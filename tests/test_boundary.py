"""Inputs are validated once, at the public entry points.

Every public operation rejects non-finite entries and mismatched shapes;
inside, the kernels trust their arrays, so a generic call makes only the
LAPACK work its mathematics needs.  The call-count guards fail if
re-validation (drift SVDs, density eigenvalue checks, angle grids on a
scalar face) creeps back in, or if the level-set search of the support
function grows into an angle grid.
"""

import ast
import importlib
import tracemalloc

import numpy as np
import pytest

from rhoperp import (ShapeMismatch, bhatia_semrl_witness, face_compression,
                     is_bj, is_bj_real, is_bj_strong, is_ip_orthogonal,
                     is_norm_parallel, is_rho_orthogonal, m_lower_bound,
                     module_daugavet_check, operator_daugavet_witness, operator_norm,
                     rho_cube_identity, rho_fd, rho_pair, state_from_face_vector,
                     top_face, zero_in_numrange)
from rhoperp import matcore
from rhoperp.verify import (bj_orthogonal_pair, random_degenerate_element,
                            random_element)

PAIR_OPS = (rho_pair, is_ip_orthogonal, is_bj, is_bj_real, is_bj_strong,
            is_rho_orthogonal, is_norm_parallel, bhatia_semrl_witness)

LAPACK = ("svd", "eigh", "eigvalsh")

# The LAPACK drivers of the matcore choke point, each counted with the
# numpy.linalg call it stands for; zggev, the QZ solve of the support
# search's level sets, is counted as ``pencil``.
CHOKE_POINT = {"zgesdd": "svd", "zheevr": "eigh", "zheevd": "eigh",
               "eigh": "eigh", "eigvalsh": "eigvalsh", "zggev": "pencil"}


def _with_nan(a):
    a = np.array(a, dtype=np.complex128)
    a[-1, 0] = np.nan
    return a


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of LAPACK calls, all taken at the matcore choke point: zgesdd
    as ``svd``, zheevr, zheevd and the batched eigh as ``eigh``, the batched
    eigvalsh as ``eigvalsh``, zggev as ``pencil``, and as ``batched`` the
    calls on a stack of matrices, which only the stack kernel
    ``_rotated_top`` of the support search makes."""
    counts = dict.fromkeys((*LAPACK, "batched", "pencil"), 0)
    for name, f in CHOKE_POINT.items():
        orig = getattr(matcore, name)

        def driver(a, *args, _f=f, _orig=orig, **kwargs):
            counts[_f] += 1
            counts["batched"] += np.ndim(a) > 2
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(matcore, name, driver)
    return counts


@pytest.mark.parametrize("op", PAIR_OPS, ids=lambda f: f.__name__)
def test_pair_operations_reject_nonfinite_entries(op):
    rng = np.random.default_rng(40)
    x, y = random_element(rng, 3, 2), random_element(rng, 3, 2)
    with pytest.raises(ValueError):
        op(_with_nan(x), y)
    with pytest.raises(ValueError):
        op(x, np.where(np.eye(3, 2) > 0, np.inf, y))
    # finite entries whose norm is beyond the double range
    with pytest.raises(ValueError):
        op(np.full_like(x, 1e308), y)


@pytest.mark.parametrize("op", PAIR_OPS, ids=lambda f: f.__name__)
def test_pair_operations_reject_mismatched_shapes(op):
    rng = np.random.default_rng(41)
    with pytest.raises(ShapeMismatch):
        op(random_element(rng, 3, 2), random_element(rng, 2, 2))


def test_face_operations_reject_nonfinite_entries():
    x = random_element(np.random.default_rng(42), 4, 3)
    face = top_face(x)
    with pytest.raises(ValueError):
        top_face(_with_nan(x))
    with pytest.raises(ValueError):
        face_compression(face, _with_nan(np.eye(3)))
    with pytest.raises(ValueError, match="finite"):
        state_from_face_vector(face, np.array([np.nan]))
    with pytest.raises(ValueError):
        zero_in_numrange(_with_nan(np.eye(3)))


def test_face_operations_reject_mismatched_shapes():
    face = top_face(random_element(np.random.default_rng(43), 4, 3))
    with pytest.raises(ShapeMismatch):
        face_compression(face, np.eye(4))
    with pytest.raises(ShapeMismatch):
        face_compression(face, np.ones((3, 2)))
    with pytest.raises(ShapeMismatch):
        state_from_face_vector(face, np.array([1.0, 0.0]))
    with pytest.raises(ShapeMismatch):
        zero_in_numrange(np.ones((2, 3)))


@pytest.mark.parametrize("op", PAIR_OPS[:-1], ids=lambda f: f.__name__)
def test_generic_call_makes_no_redundant_lapack_work(op, lapack_calls):
    rng = np.random.default_rng(44)
    x, y = random_element(rng, 4, 4), random_element(rng, 4, 4)
    assert top_face(x).dim == 1
    for f in LAPACK:
        lapack_calls[f] = 0
    op(x, y)
    assert lapack_calls["svd"] <= 3
    assert lapack_calls["eigh"] <= 2
    assert lapack_calls["eigvalsh"] == 0


_X, _Y = bj_orthogonal_pair(np.random.default_rng(53), 3, 3)

# Every public operation that takes a tolerance, called with tol on a pair
# where the relations hold.
TOL_OPS = {
    **{op.__name__: lambda tol, op=op: op(_X, _Y, tol=tol) for op in PAIR_OPS[1:]},
    "zero_in_numrange": lambda tol: zero_in_numrange(np.array([[2, 1], [0, 3]]), tol=tol),
    "rho_cube_identity": lambda tol: rho_cube_identity(_X, tol=tol),
    "module_daugavet_check": lambda tol: module_daugavet_check(_X, 1.0, 1.0, tol=tol),
    "operator_daugavet_witness": lambda tol: operator_daugavet_witness(_X, tol=tol),
    "rho_fd": lambda tol: rho_fd(_X, _Y, tol=tol),
}


@pytest.mark.parametrize("tol", (np.nan, np.inf, -1e-9), ids=("nan", "inf", "negative"))
@pytest.mark.parametrize("op", sorted(TOL_OPS))
def test_tolerance_must_be_finite_and_nonnegative(op, tol):
    # unchecked, a NaN tol has zero_in_numrange certify membership at a
    # negative margin, and an infinite one makes every relation hold
    with pytest.raises(ValueError, match="tol must be finite"):
        TOL_OPS[op](tol)


def _two_dim_face_bj_pair():
    """x with a 2-dim top face V and y = x V B V*, tr B = 0: 0 lies inside
    W(B), so every Birkhoff-James relation holds."""
    x = random_degenerate_element(np.random.default_rng(49), 4, 4, multiplicity=2)
    v = top_face(x).isometry
    assert v.shape[1] == 2
    return x, x @ v @ np.array([[1.0, 2.0], [0.5j, -1.0]]) @ v.conj().T


def _assert_two_dim_face_caps(counts):
    """The face and one compression spectrum unbatched; the support search's
    batched calls are bounded through its pencil solves."""
    assert counts["svd"] <= 3
    assert counts["eigh"] + counts["eigvalsh"] - counts["batched"] <= 2
    assert counts["pencil"] <= 6


@pytest.mark.parametrize("op", PAIR_OPS[:-1], ids=lambda f: f.__name__)
def test_two_dim_face_makes_no_redundant_lapack_work(op, lapack_calls):
    x, y = _two_dim_face_bj_pair()
    lapack_calls.update(dict.fromkeys(lapack_calls, 0))
    op(x, y)
    _assert_two_dim_face_caps(lapack_calls)


@pytest.mark.parametrize("real", (False, True))
def test_bhatia_semrl_witness_makes_no_redundant_lapack_work(real, lapack_calls):
    x, y = bj_orthogonal_pair(np.random.default_rng(48), 4, 4)
    assert top_face(x).dim == 1
    lapack_calls.update(dict.fromkeys(lapack_calls, 0))
    bhatia_semrl_witness(x, y, real=real)
    assert lapack_calls["svd"] <= 3
    assert lapack_calls["eigh"] <= 2
    assert lapack_calls["eigvalsh"] == 0
    assert lapack_calls["batched"] == 0
    x, y = _two_dim_face_bj_pair()
    lapack_calls.update(dict.fromkeys(lapack_calls, 0))
    bhatia_semrl_witness(x, y, real=real)
    _assert_two_dim_face_caps(lapack_calls)


def _counts(counts):
    return counts["svd"], counts["eigh"], counts["eigvalsh"]


def test_bj_strong_takes_one_svd_beyond_the_face(lapack_calls):
    # ||y|| (an SVD up to a smaller side of 8, a Gram eigenvalue above), then
    # ||x|| with the face from one decomposition (an SVD up to order 8, a Gram
    # eigensolve above), and sigma_min(G* V) by SVD: no eigh of the
    # compressed Gram product V* G G* V
    rng = np.random.default_rng(50)
    for (x, y), counts in (((random_element(rng, 4, 4), random_element(rng, 4, 4)), (3, 0, 0)),
                           (_two_dim_face_bj_pair(), (3, 0, 0)),
                           ((random_element(rng, 12, 10), random_element(rng, 12, 10)),
                            (1, 2, 0))):
        lapack_calls.update(dict.fromkeys(lapack_calls, 0))
        is_bj_strong(x, y)
        assert _counts(lapack_calls) == counts


def test_daugavet_calls_make_no_redundant_lapack_work(lapack_calls):
    # ||x||, u and the face from one decomposition: an SVD with vectors at
    # 4x4, a Gram eigensolve at 12x10.  Then the cube identity takes one
    # compression spectrum, the operator witness the norms of T T* T and of
    # T + T T* T, and the module check those of x<x,x> and alpha x + beta x<x,x>:
    # each norm an SVD at 4x4, a Gram eigenvalue at 12x10
    rng = np.random.default_rng(46)
    for x, cube, operator, module in (
            (random_element(rng, 4, 4), (1, 1, 0), (3, 0, 0), (3, 0, 0)),
            (random_element(rng, 12, 10), (0, 2, 0), (0, 3, 0), (0, 3, 0))):
        for check, counts in ((rho_cube_identity, cube), (operator_daugavet_witness, operator),
                              (lambda x: module_daugavet_check(x, 1.0, 0.5), module)):
            lapack_calls.update(dict.fromkeys(lapack_calls, 0))
            check(x)
            assert _counts(lapack_calls) == counts


def test_unit_face_switches_driver_above_order_8(monkeypatch):
    # top_face of an m-by-n x takes one subset zheevr and no SVD when
    # 8 < n <= 2m, else one zgesdd with vectors and no eigensolve: at most
    # 8 columns, or wide (3x9 took zheevr while the rule read n alone)
    calls = []
    for name in ("zgesdd", "zheevr", "zheevd"):
        def driver(a, *args, _name=name, _orig=getattr(matcore, name), **kwargs):
            calls.append((_name, kwargs.get("compute_uv", kwargs.get("range"))))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(matcore, name, driver)
    rng = np.random.default_rng(52)
    svd, subset = [("zgesdd", 1)], [("zheevr", "I")]
    for (m, n), expected in (((3, 8), svd), ((8, 8), svd), ((12, 8), svd),
                             ((3, 9), svd), ((9, 9), subset), ((12, 9), subset),
                             ((12, 10), subset), ((5, 10), subset), ((4, 10), svd),
                             ((16, 512), svd), ((2, 2000), svd)):
        calls.clear()
        assert top_face(random_element(rng, m, n)).dim == 1
        assert calls == expected, (m, n)


def test_operator_witness_takes_one_top_eigenpair(monkeypatch):
    # ||T|| and x_o come from the top of the n-by-n Gram matrix of T, one
    # subset solve above the crossover; the norms of T T* T and T + T T* T
    # from two values-only top-1 solves of their Gram matrices, and no SVD
    t = random_element(np.random.default_rng(47), 40, 12)
    sigma = np.linalg.svd(t, compute_uv=False)[0]
    subsets, full, vectors = [], [], []
    zheevr, zgesdd = matcore.zheevr, matcore.zgesdd

    def subset(a, **kwargs):
        subsets.append((a.shape, kwargs["compute_v"], kwargs["range"], kwargs["il"],
                        kwargs["iu"]))
        return zheevr(a, **kwargs)

    def values(a, compute_uv=1, **kwargs):
        vectors.append(compute_uv)
        return zgesdd(a, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(matcore, "zheevr", subset)
    monkeypatch.setattr(matcore, "zheevd", lambda *a, **k: full.append(a))
    monkeypatch.setattr(matcore, "zgesdd", values)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: vectors.append(1))
    rep = operator_daugavet_witness(t)
    assert subsets == [((12, 12), True, "I", 11, 12)] + [((12, 12), False, "I", 12, 12)] * 2
    assert full == [] and vectors == []
    assert rep.within_tol and abs(rep.norm_t - sigma) <= 1e-13 * sigma


def test_norm_switches_driver_above_a_smaller_side_of_8(monkeypatch):
    # the norm of an m-by-n matrix takes one value-only zgesdd while
    # min(m, n) <= 8, else one values-only top-1 zheevr on the Gram matrix of
    # the smaller side, and no SVD
    calls = []
    for name in ("zgesdd", "zheevr", "zheevd"):
        def driver(a, *args, _name=name, _orig=getattr(matcore, name), **kwargs):
            keys = ("compute_uv",) if _name == "zgesdd" else ("compute_v", "range", "il", "iu")
            calls.append((_name, a.shape, *(kwargs.get(k) for k in keys)))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(matcore, name, driver)
    rng = np.random.default_rng(54)
    for m, n in ((8, 8), (3, 8), (2, 2000), (9, 9), (12, 10), (40, 12), (512, 16), (16, 512)):
        k = min(m, n)
        expected = ([("zgesdd", (m, n), 0)] if k <= 8
                    else [("zheevr", (k, k), False, "I", k, k)])
        calls.clear()
        operator_norm(random_element(rng, m, n))
        assert calls == expected, (m, n)


# Operations on a wide element (or pair) that form no n-by-n matrix; called
# as op(x, y).
WIDE_OPS = {
    **{op.__name__: op for op in (is_ip_orthogonal, is_bj, is_bj_real, is_bj_strong,
                                  is_rho_orthogonal, is_norm_parallel)},
    "m_lower_bound": lambda x, y: m_lower_bound(y),
    "module_daugavet_check": lambda x, y: module_daugavet_check(x, 1.0, 0.5),
    "operator_daugavet_witness": lambda x, y: operator_daugavet_witness(x),
}


@pytest.mark.parametrize("op", WIDE_OPS.values(), ids=list(WIDE_OPS))
def test_wide_pair_needs_no_n_by_n_matrix(op):
    # a 2x2000 pair: the face from a thin SVD, the relations from the
    # 2000-by-k G* V, ip and the Daugavet cubes through the 2x2 u u*, and
    # lambda_min(<y, y>) read off the shape, so no 2000x2000 Gram or G
    # (64 MB each) is formed
    rng = np.random.default_rng(53)
    x, y = random_element(rng, 2, 2000), random_element(rng, 2, 2000)
    tracemalloc.start()
    try:
        op(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_bj_on_a_scalar_face_makes_no_batched_call(lapack_calls):
    rng = np.random.default_rng(45)
    for i in range(20):
        if i % 2:
            x, y = bj_orthogonal_pair(rng, 4, 3)
        else:
            x, y = random_element(rng, 4, 3), random_element(rng, 4, 3)
        is_bj(x, y)
        if i % 2:
            bhatia_semrl_witness(x, y)
    assert lapack_calls["batched"] == 0
    assert lapack_calls["eigvalsh"] == 0


def _edge_matrix(rng, k, shift):
    """Normal k-by-k matrix whose eigenvalue polygon has the edge [-b, a]
    of the real axis, a, b > 0, with the rest above it; moved up by
    ``shift`` (0 then lies that far outside), rotated and unitarily mixed."""
    ends = [rng.uniform(0.5, 1.5), -rng.uniform(0.5, 1.5)]
    rest = rng.uniform(-1.5, 1.5, k - 2) + 1j * rng.uniform(0.3, 1.5, k - 2)
    eigs = np.exp(2j * np.pi * rng.uniform()) * (np.concatenate([ends, rest]) + 1j * shift)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q @ np.diag(eigs) @ q.conj().T


def test_support_search_takes_few_level_sets(lapack_calls):
    # a plateau: W(J_4) is a disc around 0 and every angle is optimal
    zero_in_numrange(np.diag(np.ones(3), 1))
    assert lapack_calls["pencil"] <= 2
    lapack_calls["pencil"] = 0
    is_norm_parallel(np.eye(3), np.diag(np.ones(2), 1))
    assert lapack_calls["pencil"] <= 2
    # a 2-dim face: the level sets converge quadratically to a smooth minimum
    rng = np.random.default_rng(47)
    x = random_degenerate_element(rng, 4, 4, multiplicity=2)
    y = random_element(rng, 4, 4)
    assert top_face(x).dim == 2
    lapack_calls["pencil"] = 0
    is_bj(x, y)
    assert 1 <= lapack_calls["pencil"] <= 6
    # 0 on or just beyond an edge of a normal matrix's eigenvalue polygon:
    # the minimum is a kink, which the chord normal of its arc lands on
    for k in range(3, 7):
        for shift in (0.0, 0.05):
            for _ in range(6):
                lapack_calls["pencil"] = 0
                zero_in_numrange(_edge_matrix(rng, k, shift))
                assert 1 <= lapack_calls["pencil"] <= 3


def _lapack_references(source):
    """Names through which ``source`` could reach LAPACK outside matcore:
    scipy.linalg or scipy.sparse.linalg, and every numpy.linalg name but
    LinAlgError and a ``norm`` called without ``ord`` (ord=2, -2 and "nuc"
    take an SVD).  Import aliases are resolved before names are checked."""
    tree = ast.parse(source)
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                top = a.name.partition(".")[0]
                alias[a.asname or top] = a.name if a.asname else top
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for a in node.names:
                alias[a.asname or a.name] = f"{node.module}.{a.name}"
    parent = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}

    def resolve(node):
        if isinstance(node, ast.Name):
            return alias.get(node.id)
        if isinstance(node, ast.Attribute):
            head = resolve(node.value)
            return head and f"{head}.{node.attr}"
        return None

    found = [a for a in alias.values()
             if a.startswith(("scipy.linalg", "scipy.sparse.linalg"))
             or a.startswith("numpy.linalg.") and a[13:] not in ("norm", "LinAlgError")]
    for node in ast.walk(tree):
        up = parent.get(node)
        full = resolve(node)
        if not full or isinstance(up, ast.Attribute) and up.value is node:
            continue  # not a name, or only the head of a longer one
        if full.startswith(("scipy.linalg", "scipy.sparse.linalg")):
            found.append(full)
        elif full == "numpy.linalg" or full.startswith("numpy.linalg."):
            plain_norm = (full == "numpy.linalg.norm" and isinstance(up, ast.Call)
                          and up.func is node and len(up.args) <= 1
                          and all(k.arg != "ord" for k in up.keywords))
            if not plain_norm and full != "numpy.linalg.LinAlgError":
                found.append(full)
    return found


def test_decision_code_calls_lapack_only_through_matcore():
    # the decision modules reach LAPACK only through matcore, so one
    # patch of matcore counts every call; verify is exempt, as its oracles
    # use numpy.linalg to stay independent of the code they check
    for name in ("hmodule", "stateface", "normderiv", "ortho", "daugavet"):
        path = importlib.import_module(f"rhoperp.{name}").__file__
        with open(path, encoding="utf-8") as fh:
            assert _lapack_references(fh.read()) == [], name


@pytest.mark.parametrize("source, found", [
    ("import numpy as np\nnp.linalg.norm(v)\nnp.linalg.LinAlgError", []),
    ("import numpy as np\nnp.linalg.norm(m, 2)", ["numpy.linalg.norm"]),
    ("import numpy as np\nnp.linalg.norm(m, ord=-2)", ["numpy.linalg.norm"]),
    ("import numpy as np\nf = np.linalg.norm", ["numpy.linalg.norm"]),
    ("import numpy as np\nnp.linalg.qr(m)", ["numpy.linalg.qr"]),
    ("import numpy\nnumpy.linalg.solve(a, b)", ["numpy.linalg.solve"]),
    ("import numpy as np\nla = np.linalg", ["numpy.linalg"]),
    ("from numpy import linalg as la\nla.eigh(h)", ["numpy.linalg.eigh"]),
    ("import numpy.linalg as la\nla.cholesky(h)", ["numpy.linalg.cholesky"]),
    ("import numpy.linalg\nnumpy.linalg.inv(h)", ["numpy.linalg.inv"]),
    ("from numpy.linalg import svd as s\ns(m)", ["numpy.linalg.svd"] * 2),
    ("from scipy.linalg.lapack import zggev", ["scipy.linalg.lapack.zggev"]),
    ("from scipy import linalg", ["scipy.linalg"]),
    ("import scipy\nscipy.linalg.eigh(h)", ["scipy.linalg.eigh"]),
], ids=range(14))
def test_lapack_guard_resolves_aliases(source, found):
    assert sorted(_lapack_references(source)) == sorted(found)


def test_m_lower_bound_takes_one_svd(lapack_calls):
    # lambda_min(<y, y>) = sigma_min(y)^2 from one value-only SVD of the
    # prescaled y, with no Gram matrix; a wide y has lambda_min exactly 0
    rng = np.random.default_rng(51)
    m_lower_bound(random_element(rng, 5, 3))
    assert (lapack_calls["svd"], lapack_calls["eigh"], lapack_calls["eigvalsh"]) == (1, 0, 0)
    lapack_calls.update(dict.fromkeys(lapack_calls, 0))
    assert m_lower_bound(random_element(rng, 3, 5)) == 0.0
    assert (lapack_calls["svd"], lapack_calls["eigh"], lapack_calls["eigvalsh"]) == (0, 0, 0)
