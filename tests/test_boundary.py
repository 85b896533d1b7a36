"""Inputs are validated once, at the public entry points.

Every public operation rejects non-finite entries and mismatched shapes;
inside, the kernels trust their arrays, so a generic call makes only the
LAPACK work its mathematics needs.  The call-count guards fail if
re-validation (drift SVDs, density eigenvalue checks, angle grids on a
scalar face) creeps back in.
"""

import numpy as np
import pytest

from rhoperp import (ShapeMismatch, bhatia_semrl_witness, face_compression,
                     is_bj, is_bj_real, is_bj_strong, is_ip_orthogonal,
                     is_norm_parallel, is_rho_orthogonal,
                     operator_daugavet_witness, rho_cube_identity, rho_pair,
                     state_from_face_vector, top_face, zero_in_numrange)
from rhoperp.verify import bj_orthogonal_pair, random_element

PAIR_OPS = (rho_pair, is_ip_orthogonal, is_bj, is_bj_real, is_bj_strong,
            is_rho_orthogonal, is_norm_parallel, bhatia_semrl_witness)

LAPACK = ("svd", "eigh", "eigvalsh")


def _with_nan(a):
    a = np.array(a, dtype=np.complex128)
    a[-1, 0] = np.nan
    return a


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts of numpy.linalg calls, and of calls on a stack of matrices."""
    counts = {f: 0 for f in LAPACK}
    counts["batched"] = 0
    for f in LAPACK:
        orig = getattr(np.linalg, f)

        def counted(a, *args, _f=f, _orig=orig, **kwargs):
            counts[_f] += 1
            counts["batched"] += np.ndim(a) > 2
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, f, counted)
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
    with pytest.raises(ValueError):
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
    # one full SVD of T, then the norms of T T* T and of T + T T* T
    assert (lapack_calls["svd"], lapack_calls["eigh"], lapack_calls["eigvalsh"]) == (3, 0, 0)


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
