import ast
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


def test_no_assert_statements():
    # python -O strips assert statements, so src/ guards with explicit raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_one_tensor_format():
    # tensors are object ndarrays: no wrapper class and no unwrapping attribute
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if "TensorField" in (getattr(node, "id", None), getattr(node, "name", None))
             or (isinstance(node, ast.Attribute) and node.attr == "comps")]
    assert found == []
