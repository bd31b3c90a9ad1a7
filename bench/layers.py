"""Per-layer tracing of grflab from outside the package.

``install()`` wraps the public entry points listed in ``TARGETS`` and
patches every grflab module global and class attribute that holds the
original, so by-name imports such as ``integrate_s3`` in ``variational``,
``deformations`` and ``cli`` are traced too. Each wrapper counts calls and
self time, the time inside the call minus the time inside other wrapped
callees. Wrappers above ``frames`` also record one span per call; the hot
``poly``, ``linalg`` and ``frames`` entry points keep only counters.
"""

import sys
import time
from fractions import Fraction

# (metric prefix, module, class or None, attribute, records spans)
TARGETS = (
    ("poly.mul", "grflab.poly", "Polynomial", "__mul__", False),
    ("poly.add", "grflab.poly", "Polynomial", "__add__", False),
    ("poly.integrate", "grflab.poly", None, "integrate_s3", False),
    ("poly.jet_mul", "grflab.poly", "JetScalar", "__mul__", False),
    ("linalg.rref", "grflab.linalg", None, "rref", False),
    ("linalg.mat_vec", "grflab.linalg", None, "mat_vec", False),
    ("frames.derive", "grflab.frames", None, "frame_derive", False),
    ("harmonics.space_build", "grflab.harmonics", "CanonicalSpace", "__init__", True),
    ("harmonics.coords", "grflab.harmonics", "CanonicalSpace", "coords", True),
    ("harmonics.poisson", "grflab.harmonics", "CanonicalSpace", "poisson_solve", True),
    ("tensors.geometry_init", "grflab.tensors", "Geometry", "__init__", True),
    ("tensors.covd", "grflab.tensors", "Geometry", "covd", True),
    ("tensors.curvature", "grflab.tensors", "Geometry", "curvature", True),
    ("tensors.mixed_laplacian", "grflab.tensors", "Geometry", "mixed_laplacian_formula", True),
    ("tensors.mixed_laplacian", "grflab.tensors", "Geometry", "mixed_laplacian_definition", True),
    ("tensors.twisted_divergence", "grflab.tensors", "Geometry", "twisted_divergence", True),
    ("tensors.inner", "grflab.tensors", "Geometry", "inner", True),
    ("variational.lambda_min", "grflab.variational", None, "lambda_min", True),
    ("variational.operator_A", "grflab.variational", None, "operator_A", True),
    ("variational.operator_B", "grflab.variational", None, "operator_B", True),
    ("variational.second_variation_matrix", "grflab.variational", None,
     "second_variation_matrix", True),
    ("variational.slice_basis", "grflab.variational", None, "slice_tangent_basis", True),
    ("deformations.igsd_kernel", "grflab.deformations", None, "igsd_kernel", True),
    ("deformations.integral_identities", "grflab.deformations", None,
     "integral_identities", True),
    ("deformations.equivalence_check", "grflab.deformations", None, "equivalence_check", True),
    ("deformations.jet_check", "grflab.deformations", None,
     "jet_second_variation_check", True),
    ("flow.step", "grflab.flow", None, "step_rk4", True),
    ("flow.lambda", "grflab.flow", None, "flow_lambda", True),
    ("flow.residual", "grflab.flow", None, "soliton_residual", True),
    ("cli.dispatch", "grflab.cli", None, "dispatch", True),
    ("cli.emit", "grflab.cli", None, "_emit", True),
)

def _pairs(args):
    """Monomial products of one Polynomial multiply: |a| * |b|."""
    a, b = args[0], args[1]
    if isinstance(b, (int, Fraction)):
        return len(a.terms)
    terms = getattr(b, "terms", None)
    return len(a.terms) * len(terms) if isinstance(terms, dict) else 0


def _cells(args):
    mat = args[0]
    return len(mat) * len(mat[0]) if mat else 0


_EXTRA = {"poly.mul": ("pairs", _pairs), "linalg.rref": ("cells", _cells)}


class Tracer:
    """Counters, self times and spans of one traced process."""

    def __init__(self):
        self.records = {}    # prefix -> [calls, self seconds, extra count]
        self.spans = []      # [name, parent span index, start, end]
        self.missing = []    # TARGETS no longer found in the program
        self._inner = []     # time spent in wrapped callees, one slot per open call
        self._open = []      # indices of open spans

    def _wrap(self, prefix, fn, spans):
        rec = self.records.setdefault(prefix, [0, 0.0, 0])
        inner, opened, out = self._inner, self._open, self.spans
        extra = _EXTRA.get(prefix, (None, None))[1]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if extra is not None:
                rec[2] += extra(args)
            if spans:
                idx = len(out)
                out.append([prefix, opened[-1] if opened else -1, 0.0, 0.0])
                opened.append(idx)
            inner.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                rec[0] += 1
                rec[1] += dt - inner.pop()
                if inner:
                    inner[-1] += dt
                if spans:
                    opened.pop()
                    out[idx][2:] = (t0, t1)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        holders = []
        for name, mod in list(sys.modules.items()):
            if name == "grflab" or name.startswith("grflab."):
                holders.append(mod)
                holders.extend(v for v in vars(mod).values()
                               if isinstance(v, type) and v.__module__.startswith("grflab"))
        seen, unique = set(), []
        for h in holders:
            if id(h) not in seen:
                seen.add(id(h))
                unique.append(h)
        for prefix, module, cls, attr, spans in TARGETS:
            owner = sys.modules.get(module)
            if owner is not None and cls is not None:
                owner = getattr(owner, cls, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            wrapper = self._wrap(prefix, orig, spans)
            for h in unique:
                for key, value in list(vars(h).items()):
                    if value is orig:
                        setattr(h, key, wrapper)

    def metrics(self):
        """Per-layer counters of this process, keyed by metric name."""
        out = {}
        for prefix, (calls, self_s, extra) in self.records.items():
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.self_s"] = self_s
            if prefix in _EXTRA:
                out[f"{prefix}.{_EXTRA[prefix][0]}"] = extra
        harmonics = sys.modules.get("grflab.harmonics")
        for fn_name in ("harmonic_basis", "canonical_space"):
            info = getattr(getattr(harmonics, fn_name, None), "cache_info", None)
            if info is not None:
                ci = info()
                out["harmonics.cache_hits"] = out.get("harmonics.cache_hits", 0) + ci.hits
                out["harmonics.cache_misses"] = out.get("harmonics.cache_misses", 0) + ci.misses
        return out
