"""Per-layer tracing by rebinding public functions from the outside.

``Tracer.install`` replaces each traced function with a wrapper in every
module namespace that holds it (``rhoperp.*`` for the package's own
functions, ``numpy.linalg`` for LAPACK entry points), so calls made
through names other modules imported are counted as well.  Nothing in
the package changes; ``uninstall`` puts the originals back.

A wrapper records calls, inclusive time and self time (inclusive minus
the time of traced calls it made), and for LAPACK entry points the
number of matrices and a flop count computed from their shapes.  It
records only while ``active`` is set, so the benchmark's own checks,
which also call numpy, stay out of the figures.
"""

from __future__ import annotations

import statistics
import sys
from functools import partial
from time import perf_counter_ns

import numpy as np

# (layer, owner module, attribute) of every traced public function.
TRACED = (
    [("matcore", "rhoperp.matcore", f) for f in
     ("as_complex_matrix", "adjoint", "operator_norm", "hermitian_spectrum")]
    + [("hmodule", "rhoperp.hmodule", f) for f in
       ("inner_product", "module_norm", "module_action")]
    + [("stateface", "rhoperp.stateface", f) for f in
       ("top_face", "state_value", "face_compression", "state_from_face_vector",
        "cauchy_schwarz_gap", "maximally_mixed", "zero_in_numrange")]
    + [("normderiv", "rhoperp.normderiv", f) for f in
       ("rho_pair", "rho_plus", "rho_minus", "rho_fd")]
    + [("ortho", "rhoperp.ortho", f) for f in
       ("is_ip_orthogonal", "is_bj", "is_bj_real", "is_bj_strong",
        "is_rho_orthogonal", "is_norm_parallel", "bhatia_semrl_witness",
        "m_lower_bound")]
    + [("daugavet", "rhoperp.daugavet", f) for f in
       ("rho_cube_identity", "module_daugavet_check", "operator_daugavet_witness")]
    + [("verify", "rhoperp.verify", f) for f in
       ("bj_grid_oracle", "bj_real_grid_oracle", "strong_bj_sample_oracle",
        "random_element", "random_degenerate_element", "random_state",
        "inner_orthogonal_pair", "bj_orthogonal_pair")]
    + [("lapack", "numpy.linalg", f) for f in ("svd", "eigh", "eigvalsh", "eig")]
    + [("scipy", "scipy.optimize", "minimize"),
       ("scipy", "scipy.optimize", "minimize_scalar"),
       ("scipy", "scipy.spatial", "ConvexHull")]
)

LAPACK = ("svd", "eigh", "eigvalsh", "eig")

# Functions whose per-call durations are kept for a median.
P50_LAYERS = ("ortho", "daugavet")


def lapack_work(func: str, args, kwargs) -> tuple[int, float]:
    """(matrices, flops) for one call, from the operand's shape.

    Leading-order real flop counts (Golub and Van Loan) times 4 for complex
    arithmetic: eigvalsh 4/3 n^3, eigh 9 n^3, eig 25 n^3; svd of an l-by-k
    operand (l >= k) 4 l k^2 - 4/3 k^3 for values, 14 l k^2 + 8 k^3 with
    vectors.  These are computed, not measured.
    """
    shape = np.shape(args[0]) if args else np.shape(kwargs["a"])
    count = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
    if func == "svd":
        big, small = max(shape[-2:]), min(shape[-2:])
        uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        per = (14 * big * small ** 2 + 8 * small ** 3 if uv
               else 4 * big * small ** 2 - 4 * small ** 3 / 3)
    else:
        n = shape[-1]
        per = {"eigvalsh": 4 * n ** 3 / 3, "eigh": 9 * n ** 3, "eig": 25 * n ** 3}[func]
    return count, 4.0 * per * count


class Stat:
    __slots__ = ("calls", "incl_ns", "self_ns", "matrices", "flops", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.matrices = 0
        self.flops = 0.0
        self.durations = [] if keep_durations else None


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, Stat] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, work=None):
        stat = self.stats[key]
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if work is not None:
                mats, flops = work(args, kwargs)
                stat.matrices += mats
                stat.flops += flops
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                child = stack.pop()
                stat.calls += 1
                stat.incl_ns += dur
                stat.self_ns += dur - child
                if stack:
                    stack[-1] += dur
                if stat.durations is not None:
                    stat.durations.append(dur)

        return wrapper

    def install(self) -> None:
        """Bind wrappers in place of every function in TRACED, and of
        StateWitness construction, wherever the package refers to them."""
        import rhoperp.stateface
        modules = [m for name, m in list(sys.modules.items())
                   if name == "rhoperp" or name.startswith("rhoperp.")]
        for layer, owner, attr in TRACED:
            key = f"{layer}.{attr}"
            self.stats[key] = Stat(layer in P50_LAYERS)
            orig = getattr(sys.modules[owner], attr)
            work = partial(lapack_work, attr) if layer == "lapack" else None
            wrapped = self._wrap(key, orig, work)
            for mod in modules + [sys.modules[owner]]:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapped)
        cls = rhoperp.stateface.StateWitness
        self.stats["stateface.StateWitness"] = Stat(False)
        self._undo.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("stateface.StateWitness", cls.__init__)

    def uninstall(self) -> None:
        for obj, name, orig in reversed(self._undo):
            setattr(obj, name, orig)
        self._undo.clear()


def per_layer_names(property_names) -> list[str]:
    """Names of the per-layer metrics, in report order."""
    names = [
        "matcore.as_complex_matrix.calls", "matcore.operator_norm.calls",
        "matcore.hermitian_spectrum.calls", "matcore.hermitian_spectrum.self_ms",
        "hmodule.inner_product.calls", "hmodule.module_norm.calls",
        "stateface.StateWitness.calls", "stateface.StateWitness.self_ms",
        "normderiv.rho_pair.self_ms",
        "stateface.top_face.calls", "stateface.top_face.self_ms",
        "stateface.zero_in_numrange.calls", "stateface.zero_in_numrange.self_ms",
        "lapack.eigvalsh.matrices",
        "scipy.minimize.calls", "scipy.ConvexHull.calls",
        "lapack.eig.matrices", "lapack.eigh.matrices",
    ]
    names += [f"ortho.{p}.p50_ms" for p in
              ("is_ip_orthogonal", "is_bj", "is_bj_real", "is_bj_strong",
               "is_rho_orthogonal", "is_norm_parallel", "bhatia_semrl_witness")]
    names += [f"daugavet.{c}.p50_ms" for c in
              ("rho_cube_identity", "module_daugavet_check", "operator_daugavet_witness")]
    names += ["lapack.svd.matrices", "lapack.self_ms", "lapack.flops_computed",
              "verify.bj_grid_oracle.self_ms", "verify.bj_real_grid_oracle.self_ms",
              "verify.strong_bj_sample_oracle.self_ms"]
    names += [f"verify.property.{p}.ms" for p in property_names]
    return names


def _unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith(".flops_computed"):
        return "flop"
    return "count"


def per_layer_metrics(stats: dict, requests: int, kind_ns: dict,
                      property_names) -> dict:
    """Per-layer metrics from a traced run of ``requests`` requests.

    Counts and self times are per request; ``p50_ms`` is the median
    inclusive duration of one call; ``verify.property.<name>.ms`` is the
    median latency of the requests of that property.
    """
    out = {}
    for name in per_layer_names(property_names):
        if name.startswith("verify.property."):
            lat = kind_ns.get(name[: -len(".ms")], [])
            value = statistics.median(lat) / 1e6 if lat else 0.0
        elif name == "lapack.self_ms":
            value = sum(stats[f"lapack.{f}"].self_ns for f in LAPACK) / 1e6 / requests
        elif name == "lapack.flops_computed":
            value = sum(stats[f"lapack.{f}"].flops for f in LAPACK) / requests
        else:
            key, stat = name.rsplit(".", 1)
            s = stats[key]
            if stat == "calls":
                value = s.calls / requests
            elif stat == "matrices":
                value = s.matrices / requests
            elif stat == "self_ms":
                value = s.self_ns / 1e6 / requests
            else:
                value = statistics.median(s.durations) / 1e6 if s.durations else 0.0
        out[name] = {"value": value, "unit": _unit(name)}
    return out
