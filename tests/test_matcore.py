"""Kernel checks: adjoint, Hermitian spectra, operator norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rhoperp import NonHermitianInput, adjoint, hermitian_spectrum, operator_norm
from rhoperp import matcore
from rhoperp.matcore import _prescaled, _top_eigh
from rhoperp.verify import random_element

complex_matrices = arrays(
    np.complex128, (3, 3),
    elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)


def test_adjoint_identity():
    np.testing.assert_array_equal(adjoint(np.eye(2)), np.eye(2))


def test_adjoint_real_nilpotent():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(adjoint(a), np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_adjoint_involution():
    a = random_element(np.random.default_rng(0), 3, 2)
    np.testing.assert_array_equal(adjoint(adjoint(a)), a)


def test_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        adjoint(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        operator_norm(np.array([[np.inf + 0j, 0.0], [0.0, 0.0]]))


def test_spectrum_diagonal():
    spec = hermitian_spectrum(np.diag([-1.0, 1.0]))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, -1.0])


def test_spectrum_identity():
    spec = hermitian_spectrum(np.eye(4))
    np.testing.assert_allclose(spec.eigenvalues, np.ones(4))


def test_spectrum_offdiagonal_pair():
    # characteristic polynomial of [[0,1],[1,0]] is l^2 - 1
    spec = hermitian_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-14)


def test_spectrum_invariants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 8))
        g = random_element(rng, n, n)
        h = (g + g.conj().T) / 2.0
        spec = hermitian_spectrum(h)
        u, lam = spec.eigenvectors, spec.eigenvalues
        assert np.all(np.diff(lam) <= 1e-14)
        scale = 1.0 + operator_norm(h)
        assert operator_norm(u.conj().T @ u - np.eye(n)) <= 1e-10
        for i in range(n):
            assert np.linalg.norm(h @ u[:, i] - lam[i] * u[:, i]) <= 1e-10 * scale
        assert operator_norm((u * lam) @ u.conj().T - h) <= 1e-9 * scale


def test_spectrum_rejects_large_drift():
    # the drift is relative: c [[0, 1], [0, 0]] is rejected at every scale c
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    for c in [2.0 ** j for j in range(-1000, 1001)] + [1e308, 1.7e308]:
        with pytest.raises(NonHermitianInput):
            hermitian_spectrum(c * nilpotent)
    with pytest.raises(NonHermitianInput):
        hermitian_spectrum(np.ones((2, 3)))


def test_spectrum_symmetrizes_roundoff_drift():
    h = np.diag([2.0, 1.0]) + np.array([[0.0, 1e-13], [0.0, 0.0]])
    spec = hermitian_spectrum(h)
    np.testing.assert_allclose(spec.eigenvalues, [2.0, 1.0], atol=1e-12)
    # x* x with its rounding drift, moved to every scale 2^j by exact scaling
    x = random_element(np.random.default_rng(3), 5, 3)
    g = x.conj().T @ x
    g[0, 1] *= 1.0 + 1e-13
    ref = hermitian_spectrum(g).eigenvalues
    for j in range(-1000, 1001):
        vals = hermitian_spectrum(2.0 ** j * g).eigenvalues
        np.testing.assert_allclose(vals, 2.0 ** j * ref, rtol=1e-13)
    # entries up to 1.7e308, where (h + h*)/2 of the unscaled h overflows
    c = 1.7e308 / operator_norm(g)
    np.testing.assert_allclose(hermitian_spectrum(c * g).eigenvalues, c * ref, rtol=1e-13)
    np.testing.assert_array_equal(hermitian_spectrum(1.7e308 * np.diag([1.0, -0.5])).eigenvalues,
                                  [1.7e308, -8.5e307])


def test_operator_norm_identity():
    assert operator_norm(np.eye(2)) == pytest.approx(1.0)


@pytest.mark.parametrize("alpha", [-1.5, -0.3, 0.0, 0.7, 1.0, 2.5])
def test_operator_norm_diagonal_shift(alpha):
    a = np.eye(2) + alpha * np.diag([-1.0, 0.0])
    assert operator_norm(a) == pytest.approx(max(abs(1.0 - alpha), 1.0))


def test_operator_norm_nilpotent():
    # A*A = diag(0, 4), so the largest singular value is 2
    assert operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)


def test_operator_norm_zero_iff_zero():
    assert operator_norm(np.zeros((3, 2))) == 0.0
    a = np.zeros((3, 2))
    a[2, 1] = 1e-11
    assert operator_norm(a) > 1e-12


@pytest.mark.filterwarnings("error")
def test_operator_norm_matches_numpy_svd_on_both_routes():
    # one zgesdd up to a smaller side of 8, the top eigenvalue of the Gram
    # matrix of the prescaled smaller side above: generic, rank-one and zero
    # matrices at scales from 1e-160 to 2^1000, within a few eps relative
    rng = np.random.default_rng(8)
    eps = np.finfo(float).eps
    for m, n in ((3, 8), (8, 8), (2, 2000), (9, 9), (12, 10), (40, 12), (512, 16),
                 (16, 512), (64, 64)):
        generic = random_element(rng, m, n)
        rank_one = random_element(rng, m, 1) @ random_element(rng, 1, n)
        for a in (generic, rank_one):
            for c in (1.0, 1e-160, 1e-150, 1e150, 2.0 ** 1000):
                ref = np.linalg.svd(c * a, compute_uv=False)[0]
                assert abs(operator_norm(c * a) - ref) <= 8.0 * eps * ref, (m, n, c)
        assert operator_norm(np.zeros((m, n))) == 0.0


def test_submultiplicativity_sweep():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p, q, r = rng.integers(1, 7, size=3)
        a, b = random_element(rng, p, q), random_element(rng, q, r)
        assert operator_norm(a @ b) <= operator_norm(a) * operator_norm(b) + 1e-9


@settings(max_examples=30, deadline=None)
@given(complex_matrices)
def test_cstar_identity(a):
    na = operator_norm(a)
    assert abs(operator_norm(adjoint(a) @ a) - na**2) <= 1e-9 * (1.0 + na**2)


def test_top_eigh_matches_the_full_spectrum_on_both_paths():
    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 8, 9, 17, 40):
        x = random_element(rng, n + 2, n)
        h = x.conj().T @ x
        full = hermitian_spectrum(h)
        for j in (1, 2):
            vals, vecs = _top_eigh(h, j)
            assert len(vals) == (n if n <= matcore._SUBSET_ABOVE else j)
            np.testing.assert_allclose(vals[:j], full.eigenvalues[:j], rtol=1e-12)
            assert np.all(np.diff(vals) <= 0.0)
            scale = full.eigenvalues[0]
            for i in range(len(vals)):
                assert np.linalg.norm(h @ vecs[:, i] - vals[i] * vecs[:, i]) <= 1e-12 * scale


def test_top_eigh_reverses_lapack_order():
    # values and vectors are LAPACK's ascending output reversed, on both
    # paths: exactly equal eigenvalues come in the reverse of LAPACK's order
    x = random_element(np.random.default_rng(7), 12, 12)
    q = np.linalg.qr(x)[0]
    cases = [(np.eye(3, dtype=np.complex128), 3, None),
             (np.diag([2.0, 1.0, 2.0]).astype(np.complex128), 2, None),
             (x.conj().T @ x, 12, None),
             ((q * np.r_[3.0, 3.0, np.linspace(0.0, 2.0, 10)]) @ q.conj().T, 2, 2)]
    for h, j, subset in cases:
        if subset:
            w, v, m, _, info = matcore.zheevr(h, range="I", il=11, iu=12, lower=1)
            assert (m, info) == (subset, 0)
            w = w[:m]
        else:
            w, v, _ = matcore.zheevd(h, lower=1)
        vals, vecs = _top_eigh(h, j)
        assert vals.tobytes() == w[::-1].tobytes()
        assert vecs.tobytes() == v[:, ::-1].tobytes()


@pytest.mark.parametrize("j", [1, 2])
def test_top_eigh_guards_the_subset_solve(j, monkeypatch):
    # zheevr(range="I") splits this matrix's tridiagonal form and, asked for
    # its top eigenpair alone, returns info 0 and no eigenvalue (values
    # only: info 2); the count check takes zheevd instead
    g = np.array([[0.5, 0.0, 0.25], [0.0, 1.0, 0.0], [0.25, 0.0, 0.25]], dtype=np.complex128)
    calls = []
    for name in ("zheevr", "zheevd"):
        orig = getattr(matcore, name)

        def driver(*args, _name=name, _orig=orig, **kwargs):
            out = _orig(*args, **kwargs)
            calls.append((_name, out[2] if _name == "zheevr" else len(out[0])))
            return out

        monkeypatch.setattr(matcore, name, driver)
    monkeypatch.setattr(matcore, "_SUBSET_ABOVE", 0)  # the subset path at n = 3
    vals, vecs = _top_eigh(g, j)
    assert calls == ([("zheevr", 0), ("zheevd", 3)] if j == 1 else [("zheevr", 2)])
    assert vals[0] == pytest.approx(1.0, abs=1e-15)
    assert abs(vecs[1, 0]) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(vecs[[0, 2], 0]) <= 1e-15


@pytest.mark.filterwarnings("error")
def test_prescale_is_exact_at_every_scale():
    # dyadic entries of at most 4 significant bits stay exact at 2^-1070,
    # where every entry is subnormal, and up to 2^1020
    rng = np.random.default_rng(6)
    x = (rng.integers(-15, 16, (5, 3)) + 1j * rng.integers(-15, 16, (5, 3))).astype(np.complex128)
    x[0, 0] = 15.0 + 8.0j
    base, s0 = _prescaled(x)
    assert s0 == 8.0 and np.abs(base.view(np.float64)).max() == 15.0 / 8.0
    with np.errstate(all="raise"):
        for j in range(-1070, 1021):
            scaled, s = _prescaled(2.0 ** j * x)
            assert s == s0 * 2.0 ** j
            assert scaled.tobytes() == base.tobytes()
            # a transposed, non-contiguous view scales the same
            assert _prescaled((2.0 ** j * x).T)[0].tobytes() == base.T.copy().tobytes()
    zero, s = _prescaled(np.zeros((2, 2), dtype=np.complex128))
    assert s == 1.0 and not zero.any()
