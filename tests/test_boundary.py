"""Inputs are validated once, at the public entry points.

Every public operation rejects non-finite entries and mismatched shapes;
inside, the kernels trust their arrays, so a generic call makes only the
LAPACK work its mathematics needs.  The call-count guards fail if
re-validation (drift SVDs, density eigenvalue checks, angle grids on a
scalar face) creeps back in, or if the level-set search of the support
function grows into an angle grid.
"""

import numpy as np
import pytest

from rhoperp import (ShapeMismatch, bhatia_semrl_witness, face_compression,
                     is_bj, is_bj_real, is_bj_strong, is_ip_orthogonal,
                     is_norm_parallel, is_rho_orthogonal,
                     operator_daugavet_witness, rho_cube_identity, rho_pair,
                     state_from_face_vector, top_face, zero_in_numrange)
from rhoperp import stateface
from rhoperp.stateface import zggev
from rhoperp.verify import (bj_orthogonal_pair, random_degenerate_element,
                            random_element)

PAIR_OPS = (rho_pair, is_ip_orthogonal, is_bj, is_bj_real, is_bj_strong,
            is_rho_orthogonal, is_norm_parallel, bhatia_semrl_witness)

LAPACK = ("svd", "eigh", "eigvalsh")


def _with_nan(a):
    a = np.array(a, dtype=np.complex128)
    a[-1, 0] = np.nan
    return a


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of numpy.linalg calls, of calls on a stack of matrices, and
    of the level-set pencil solves (``pencil``) of the support search."""
    counts = {f: 0 for f in LAPACK}
    counts["batched"] = 0
    for f in LAPACK:
        orig = getattr(np.linalg, f)

        def counted(a, *args, _f=f, _orig=orig, **kwargs):
            counts[_f] += 1
            counts["batched"] += np.ndim(a) > 2
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, f, counted)
    counts["pencil"] = 0

    def pencil(a, b, **kwargs):
        counts["pencil"] += 1
        return zggev(a, b, **kwargs)

    monkeypatch.setattr(stateface, "zggev", pencil)
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


def test_bj_strong_takes_one_svd_beyond_the_face(lapack_calls):
    # the two norms, the face, and sigma_min(G* V) by SVD: no eigh of the
    # compressed Gram product V* G G* V
    rng = np.random.default_rng(50)
    for x, y in ((random_element(rng, 4, 4), random_element(rng, 4, 4)),
                 _two_dim_face_bj_pair()):
        lapack_calls.update(dict.fromkeys(lapack_calls, 0))
        is_bj_strong(x, y)
        assert (lapack_calls["svd"], lapack_calls["eigh"], lapack_calls["eigvalsh"]) == (3, 1, 0)


def test_daugavet_calls_make_no_redundant_lapack_work(lapack_calls):
    x = random_element(np.random.default_rng(46), 4, 4)
    for f in LAPACK:
        lapack_calls[f] = 0
    rho_cube_identity(x)
    # one norm, one face, one compression spectrum
    assert (lapack_calls["svd"], lapack_calls["eigh"], lapack_calls["eigvalsh"]) == (1, 2, 0)
    for f in LAPACK:
        lapack_calls[f] = 0
    operator_daugavet_witness(x)
    # one thin SVD of T, then the norms of T T* T and of T + T T* T
    assert (lapack_calls["svd"], lapack_calls["eigh"], lapack_calls["eigvalsh"]) == (3, 0, 0)


def test_operator_witness_takes_a_thin_svd(monkeypatch):
    # on a tall T a full SVD would also build an m-by-m U that nothing reads
    modes = []
    svd = np.linalg.svd

    def recorded(a, full_matrices=True, compute_uv=True, **kwargs):
        if compute_uv:
            modes.append(full_matrices)
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    operator_daugavet_witness(random_element(np.random.default_rng(47), 12, 3))
    assert modes == [False]


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
