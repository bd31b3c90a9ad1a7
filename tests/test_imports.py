import ast
import subprocess
import sys
from pathlib import Path

import grflab

SRC = Path(grflab.__file__).parent


def test_no_unused_module_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in names:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def test_no_scipy_import():
    # numpy is the one float linear-algebra library of src/
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "scipy" for a in node.names))
             or (isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "scipy")]
    assert found == []


def test_cli_loads_no_scipy():
    # a fresh interpreter, run from the directory that holds the package
    code = ("import sys, grflab.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=SRC.parent)
    assert out.stdout.strip() == "[]"


def test_no_assert_statements():
    # python -O strips assert statements, so src/ guards with explicit raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_flow_curvature_comes_from_geometry():
    # flow reads Geometry's attributes: no contraction or curvature code of its own
    tree = ast.parse((SRC / "flow.py").read_text())
    called = [getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert {"einsum", "christoffel", "riemann"}.isdisjoint(called)


def test_one_tensor_format():
    # tensors are object ndarrays: no wrapper class and no unwrapping attribute
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if "TensorField" in (getattr(node, "id", None), getattr(node, "name", None))
             or (isinstance(node, ast.Attribute) and node.attr == "comps")]
    assert found == []


def test_one_frame_derivative():
    # frame_derive is the one derivative: no ambient diff, no general vector-field
    # application and no switch to skip the sphere reduction
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name in ("diff", "apply_vector"))
             or (isinstance(node, ast.arg) and node.arg == "reduce")]
    assert found == []


def test_one_contraction():
    # tensors.contract is the one contraction: no other einsum or tensordot call
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for fn in tree.body
                  if path.name == "tensors.py" and getattr(fn, "name", None) == "contract"
                  for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and {getattr(node.func, "attr", None), getattr(node.func, "id", None)}
                  & {"einsum", "tensordot"}]
    assert found == []


def test_no_result_wrappers_or_structure_parameter():
    # second_variation_matrix and run_flow return their lists, torsion is a
    # test helper, and tensors reads the one set of structure constants itself
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.ClassDef) and node.name in ("OperatorMatrix", "Trajectory"))
             or (isinstance(node, ast.ClassDef) and node.name == "Geometry"
                 and any(getattr(f, "name", None) == "torsion" for f in node.body))
             or (path.name == "tensors.py" and isinstance(node, ast.arg) and node.arg == "c")
             or (path.name == "tensors.py" and isinstance(node, ast.Attribute)
                 and node.attr == "c" and getattr(node.value, "id", None) == "self")]
    assert found == []


def test_integrals_take_factors():
    # integrate_s3(p, q) integrates p * q from the factors' terms, so no caller
    # forms the product first, not even inside as_poly
    def product(node):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "as_poly":
            return len(node.args) == 1 and product(node.args[0])
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and "integrate_s3" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))
             and len(node.args) == 1 and not node.keywords and product(node.args[0])]
    assert found == []

