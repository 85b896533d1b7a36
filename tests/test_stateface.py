"""Top faces, states, compressions, and numerical-range membership."""

import warnings

import numpy as np
import pytest
from scipy.linalg import eigvals
from scipy.linalg.lapack import zggev
from scipy.optimize import minimize_scalar

from rhoperp import matcore, stateface
from rhoperp import (NonHermitianInput, NotUnitVector, ShapeMismatch, StateWitness,
                     ZeroElement, cauchy_schwarz_gap, face_compression, inner_product, is_bj,
                     is_norm_parallel, maximally_mixed, module_norm,
                     operator_norm, state_from_face_vector, state_value,
                     top_face, zero_in_numrange)
from rhoperp.matcore import _SUBSET_ABOVE, hermitian_spectrum
from rhoperp.stateface import (_UNIMODULAR_TOL, _carden_step, _minimize_support,
                               _numerical_radius, _support_extremum,
                               _unimodular_eigvals)
from rhoperp.verify import (incomparability_triple, random_degenerate_element,
                            random_element, random_state)


def _support_scan(m, count=4096):
    thetas = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    ph = np.exp(1j * thetas).reshape(-1, 1, 1)
    return np.linalg.eigvalsh((ph * m + ph.conj() * m.conj().T) / 2.0)[:, -1]


def test_top_face_of_identity_is_everything():
    face = top_face(np.eye(2))
    assert face.dim == 2
    assert face.lambda_max == pytest.approx(1.0)
    v = face.isometry
    assert operator_norm(v.conj().T @ v - np.eye(2)) <= 1e-10


def test_top_face_of_rank_one_gram():
    # <x, x> = diag(1, 0) for x = diag(-1, 0)
    face = top_face(np.diag([-1.0, 0.0]))
    assert face.dim == 1
    assert abs(abs(face.isometry[0, 0]) - 1.0) <= 1e-12
    assert face.lambda_max == pytest.approx(1.0)
    assert face.gap == pytest.approx(1.0)


def test_top_face_state_attains_norm():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x = random_element(rng, 4, 3)
        face = top_face(x)
        assert face.dim == 1
        p = state_from_face_vector(face, np.ones(1))
        val = state_value(p, inner_product(x, x)).real
        assert abs(val - module_norm(x) ** 2) <= 1e-9 * (1.0 + module_norm(x) ** 2)


@pytest.mark.filterwarnings("error")
def test_top_face_degenerate_flagged_dimension():
    x = random_degenerate_element(np.random.default_rng(9), 4, 4, multiplicity=2)
    face = top_face(x)
    assert face.dim == 2
    # the face is that of x/||x||: the same at every scale
    for c in 10.0 ** np.linspace(-150.0, 150.0, 61):
        scaled = top_face(c * x)
        assert scaled.dim == 2
        assert scaled.lambda_max == pytest.approx(c * c * face.lambda_max, rel=1e-12)
        assert scaled.gap == pytest.approx(c * c * face.gap, rel=1e-9)
        overlap = scaled.isometry.conj().T @ face.isometry
        assert np.linalg.svd(overlap, compute_uv=False)[-1] >= 1.0 - 1e-12
    # <x, x> itself would be subnormal here, and would overflow below
    assert top_face(1e-160 * x).dim == top_face(1e-170 * x).dim == 2
    with pytest.raises(ValueError):
        top_face(1e160 * x)


def _near_degenerate_element(rng, m, n):
    # lambda_2 = (1 - 6e-10) lambda_1: below the face cut, within 10 gap_tol
    u, s, vh = np.linalg.svd(random_element(rng, m, n), full_matrices=False)
    s[1] = s[0] * np.sqrt(1.0 - 6e-10)
    return (u * s) @ vh


@pytest.mark.parametrize("make, dim, near, solves", [
    (lambda rng: random_element(rng, 12, 10), 1, False, [2]),
    (lambda rng: random_element(rng, 9, 12), 1, False, [2]),
    (lambda rng: random_degenerate_element(rng, 12, 10, 2), 2, False, [2, 10]),
    (lambda rng: random_degenerate_element(rng, 12, 10, 3), 3, False, [2, 10]),
    (lambda rng: _near_degenerate_element(rng, 12, 10), 1, True, [2]),
], ids=["generic", "rank-deficient", "dim-2", "dim-3", "near-degenerate"])
def test_top_face_above_the_subset_crossover_matches_the_full_spectrum(
        monkeypatch, make, dim, near, solves):
    # above the crossover the face is read from the top two eigenpairs and
    # grown to the full spectrum only when both join it; it must be the
    # face that the full spectrum of <x, x> gives
    asked = []

    def top_eigh(h, j):
        asked.append(j)
        return real_top_eigh(h, j)

    real_top_eigh = stateface._top_eigh
    monkeypatch.setattr(stateface, "_top_eigh", top_eigh)
    for seed in range(5):
        x = make(np.random.default_rng(seed))
        assert x.shape[1] > _SUBSET_ABOVE
        asked.clear()
        face = top_face(x)
        assert asked == solves

        spec = hermitian_spectrum(inner_product(x, x))
        vals, vecs = spec.eigenvalues, spec.eigenvectors
        lam = vals[0]
        k = int(np.sum(vals >= (1.0 - face.gap_tol) * lam))
        assert face.dim == k == dim
        assert face.lambda_max == pytest.approx(lam, rel=1e-12)
        assert face.gap == pytest.approx(lam - vals[k], rel=1e-9)
        assert face.near_degenerate == near == bool(vals[k] >= (1.0 - 10.0 * face.gap_tol) * lam)
        overlap = face.isometry.conj().T @ vecs[:, :k]
        assert np.linalg.svd(overlap, compute_uv=False)[-1] >= 1.0 - 1e-9


def test_top_face_rejects_zero():
    with pytest.raises(ZeroElement):
        top_face(np.zeros((2, 2)))
    # zero means zero: a small element has the face of its direction
    x = random_element(np.random.default_rng(11), 3, 3)
    face, small = top_face(x), top_face(1e-14 * x)
    assert small.dim == face.dim == 1
    assert abs(abs(small.isometry[:, 0].conj() @ face.isometry[:, 0]) - 1.0) <= 1e-10


def test_top_face_isometry_residual():
    rng = np.random.default_rng(10)
    for _ in range(30):
        x = random_element(rng, 5, 4)
        face = top_face(x)
        res = operator_norm(inner_product(x, x) @ face.isometry - face.lambda_max * face.isometry)
        assert res <= face.gap_tol * (1.0 + face.lambda_max) * 10.0


def test_state_value_trace_state():
    assert state_value(maximally_mixed(3), np.eye(3)) == pytest.approx(1.0)


def test_state_value_diagonal_selection():
    p = StateWitness(np.diag([1.0, 0.0]).astype(complex))
    assert state_value(p, np.diag([-1.0, 1.0])).real == pytest.approx(-1.0)


def test_state_value_bounded_by_norm():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        p = random_state(rng, n)
        a = random_element(rng, n, n)
        assert abs(state_value(p, a)) <= operator_norm(a) + 1e-9


def test_state_witness_validation():
    with pytest.raises(ValueError):
        StateWitness(np.diag([2.0, 0.0]).astype(complex))  # trace 2
    with pytest.raises(ValueError):
        StateWitness(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    with pytest.raises(ShapeMismatch):
        StateWitness(np.ones((2, 3)))
    with pytest.raises(ValueError):
        StateWitness(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))  # not Hermitian


def test_state_witness_and_hermitian_spectrum_share_one_hermitian_rule():
    # drift 6e-11 on a matrix of norm 0.5: 1.2e-10 relative, beyond the
    # rule of hermitian_spectrum, so the density is rejected too
    d = np.array([[0.5, 3e-11j], [3e-11j, 0.5]])
    with pytest.raises(NonHermitianInput):
        hermitian_spectrum(d)
    with pytest.raises(ValueError, match="Hermitian"):
        StateWitness(d)
    # half the drift passes both
    d = np.array([[0.5, 1.5e-11j], [1.5e-11j, 0.5]])
    hermitian_spectrum(d)
    assert StateWitness(d).density[0, 1] == 1.5e-11j


def test_face_compression_full_face_is_unitary_conjugation():
    rng = np.random.default_rng(12)
    face = top_face(np.eye(3))
    a = random_element(rng, 3, 3)
    comp = face_compression(face, a)
    np.testing.assert_allclose(sorted(np.linalg.eigvals(comp).real),
                               sorted(np.linalg.eigvals(a).real), atol=1e-10)


def test_face_compression_identity_face():
    # the face of t is everything, in whatever basis: V C V* gives s back
    t, s, _ = incomparability_triple()
    v = top_face(t).isometry
    assert v.shape == (2, 2)
    np.testing.assert_allclose(v @ face_compression(top_face(t), s) @ v.conj().T, s,
                               atol=1e-15)


def test_face_compression_scalar():
    face = top_face(np.diag([-1.0, 0.0]))
    comp = face_compression(face, np.diag([5.0, 7.0]))
    assert comp.shape == (1, 1)
    assert comp[0, 0].real == pytest.approx(5.0)


def test_zero_in_numrange_eigenvalue_zero():
    res = zero_in_numrange(np.diag([-1.0, 0.0]))
    assert res.contains_zero
    z = res.vector
    assert abs(z.conj() @ np.diag([-1.0, 0.0]) @ z) <= 1e-9 * 2.0
    assert abs(abs(z[1]) - 1.0) <= 1e-8  # certificate is e2 up to phase


def test_zero_in_numrange_identity_separated():
    res = zero_in_numrange(np.eye(2))
    assert not res.contains_zero
    assert res.margin == pytest.approx(-1.0, abs=1e-9)
    h = (np.exp(1j * res.angle) * np.eye(2) + np.exp(-1j * res.angle) * np.eye(2)) / 2.0
    assert np.linalg.eigvalsh(h)[-1] < -1e-9 / 2.0


def test_zero_in_numrange_balanced_signs():
    # zeta = (e1 + e2)/sqrt(2) gives zeta* M zeta = 0 for M = diag(-1, 1)
    m = np.diag([-1.0, 1.0])
    res = zero_in_numrange(m)
    assert res.contains_zero
    assert res.residual <= 1e-9 * 2.0


def test_zero_in_numrange_grid_scan_agreement():
    rng = np.random.default_rng(13)
    for _ in range(200):
        k = int(rng.choice([2, 3, 5]))
        m = random_element(rng, k, k)
        res = zero_in_numrange(m)
        g_scan = float(_support_scan(m).min())
        nrm = operator_norm(m)
        band = nrm * np.pi / 4096 + 1e-9 * (1.0 + nrm)
        assert abs(res.margin - g_scan) <= band
        assert res.margin <= g_scan + 1e-12 * (1.0 + nrm)
        if g_scan > band:
            assert res.contains_zero
        if g_scan < -band:
            assert not res.contains_zero


def test_zero_in_numrange_rotation_consistency():
    rng = np.random.default_rng(14)
    m = random_element(rng, 3, 3)
    m = m - np.trace(m) / 3.0 * np.eye(3)
    res1 = zero_in_numrange(m)
    assert res1.contains_zero
    for theta in (0.3, 1.2, 2.9):
        res2 = zero_in_numrange(np.exp(1j * theta) * m)
        assert res2.contains_zero
        assert res2.residual <= 1e-9 * (1.0 + operator_norm(m))


def _haar_unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _normal_matrix(rng, eigs):
    u = _haar_unitary(rng, len(eigs))
    return u @ np.diag(eigs) @ u.conj().T


def _assert_member(m, tol=1e-9):
    res = zero_in_numrange(m, tol)
    assert res.contains_zero
    z = res.vector
    assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
    assert res.residual == pytest.approx(abs(z.conj() @ m @ z), rel=1e-6, abs=0.0)
    assert res.residual <= tol * (1.0 + operator_norm(m))
    return res


def _assert_margin(res, m, margin):
    assert abs(res.margin - margin) <= 1e-12 * (1.0 + operator_norm(m))


def test_zero_in_numrange_normal_corner_and_edge():
    rng = np.random.default_rng(19)
    for k in range(2, 7):
        for _ in range(8):
            lam = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            # 0 at an eigenvalue: a corner of the polygon or a point inside it
            _assert_member(_normal_matrix(rng, lam - lam[0]))
            # 0 inside the segment between two eigenvalues
            s = rng.uniform(0.05, 0.95)
            _assert_member(_normal_matrix(rng, lam - (s * lam[0] + (1.0 - s) * lam[1])))
        # eigenvalues in convex position: 0 at a corner (a kink of the
        # support function, and a singular M), then inside an edge; the
        # margin is the distance to the boundary, 0 on it
        hull = np.exp(2j * np.pi * np.arange(k) / k)
        m = _normal_matrix(rng, hull - hull[0])
        _assert_margin(_assert_member(m), m, 0.0)
        m = _normal_matrix(rng, hull - (0.3 * hull[0] + 0.7 * hull[1]))
        _assert_margin(_assert_member(m), m, 0.0)
        # the corner 0.05 beyond 0, along its outward normal
        m = _normal_matrix(rng, hull - 1.05 * hull[0])
        _assert_margin(zero_in_numrange(m), m, -0.05)


def test_zero_in_numrange_just_inside_a_symmetric_corner():
    # 0 at distance d inside the corner hull[0] of a regular k-gon: the best
    # start angle is a tangent level of the corner's branch, and the margin
    # is the distance d cos(pi / k) to the two edges
    rng = np.random.default_rng(28)
    for k in range(3, 7):
        hull = np.exp(2j * np.pi * np.arange(k) / k)
        for d in (1e-2, 6e-4, 1e-6, 1e-9):
            m = _normal_matrix(rng, hull - (1.0 - d) * hull[0])
            _assert_margin(_assert_member(m), m, d * np.cos(np.pi / k))


@pytest.mark.filterwarnings("error")
def test_support_extremes_scale_with_m():
    # past 1e154 and below 1e-162 the squared entries leave the double range
    scales = 10.0 ** np.linspace(-200.0, 200.0, 17)
    rng = np.random.default_rng(29)
    for k in (2, 3, 5):
        m = random_element(rng, k, k)
        g, (w, _) = _minimize_support(m)[1], _numerical_radius(m)
        for c in scales:
            assert abs(_minimize_support(c * m)[1] / c - g) <= 1e-12 * w
            assert abs(_numerical_radius(c * m)[0] / c - w) <= 1e-12 * w
    # a disc 5% of its radius away from 0, its nearest point between two of
    # the eight start angles, so only the level sets find the minimum
    k, radius = 4, np.cos(np.pi / 5)
    m = 1.05 * radius * np.exp(1j * (np.pi / 8 + 0.01)) * np.eye(k) + np.diag(np.ones(k - 1), 1)
    for c in scales:
        res = zero_in_numrange(c * m)
        assert abs(res.margin / c + 0.05 * radius) <= 1e-12
        if c >= 1.0:
            assert not res.contains_zero


@pytest.mark.filterwarnings("error")
def test_zero_in_numrange_certificates_scale_with_m():
    # 0 inside a disc and on an edge of a normal polygon: past 1e154 the
    # certificate's products of entries would leave the double range
    rng = np.random.default_rng(30)
    disc = 0.5 * np.cos(np.pi / 5) * np.exp(0.4j) * np.eye(4) + np.diag(np.ones(3), 1)
    edge = _normal_matrix(rng, np.exp(0.7j) * np.array([1.0, -0.7, 0.4 + 1.1j, -0.9 + 0.5j]))
    for m, margin in ((disc, 0.5 * np.cos(np.pi / 5)), (edge, 0.0)):
        for c in 10.0 ** np.linspace(-200.0, 200.0, 33):
            res = zero_in_numrange(c * m)
            assert res.contains_zero
            assert abs(res.margin / c - margin) <= 1e-12
            z = res.vector
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
            assert abs(res.residual - c * abs(z.conj() @ m @ z)) <= 1e-14 * c
            assert res.residual <= 1e-9 * (1.0 + c * operator_norm(m))


def test_zero_in_numrange_at_the_top_of_the_double_range():
    # ||M|| >= 2^1023, where a power of two above ||M|| is beyond the range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = zero_in_numrange(np.diag([1e308, 1.7e308]))
        assert not res.contains_zero
        assert res.margin == pytest.approx(-1e308, rel=1e-12)
        m = np.array([[0.0, 1.7e308], [0.0, 0.0]])
        res = zero_in_numrange(m)
    assert res.contains_zero
    assert res.margin == pytest.approx(8.5e307, rel=1e-12)
    assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12
    assert res.residual <= 1e-9 * 1.7e308


def test_zero_in_numrange_near_an_edge():
    # 0 at distance d = 10^[-14, -2] ||M|| inside or outside the edge [-b, a]
    # of a random normal polygon whose other vertices lie above the real
    # axis; the support function has a kink at its minimum, and the margin
    # is +d or -d (every other edge is more than 0.05 away)
    rng = np.random.default_rng(31)
    tol = 1e-9
    for k in range(3, 7):
        for side in (1.0, -1.0):
            for _ in range(12):
                ends = [rng.uniform(0.5, 1.5), -rng.uniform(0.5, 1.5)]
                rest = rng.uniform(-1.5, 1.5, k - 2) + 1j * rng.uniform(0.3, 1.5, k - 2)
                eigs = np.concatenate([ends, rest])
                d = 10.0 ** rng.uniform(-14.0, -2.0) * np.abs(eigs).max()
                m = _normal_matrix(rng, np.exp(2j * np.pi * rng.uniform()) * (eigs - 1j * side * d))
                res = zero_in_numrange(m, tol)
                norm = operator_norm(m)
                assert abs(res.margin - side * d) <= 1e-12 * (1.0 + norm)
                assert res.contains_zero == (side * d >= -0.5 * tol * (1.0 + norm))
                if res.contains_zero:
                    assert res.residual <= tol * (1.0 + norm)


def test_zero_in_numrange_jordan_discs():
    # W(c I + r J_k) is the disc of centre c and radius r cos(pi / (k + 1))
    rng = np.random.default_rng(20)
    for k in range(3, 7):
        jordan = np.diag(np.ones(k - 1), 1)
        for _ in range(6):
            r = rng.uniform(0.5, 2.0)
            direction = np.exp(2j * np.pi * rng.uniform())
            radius = r * np.cos(np.pi / (k + 1))
            u = _haar_unitary(rng, k)
            # tangent to 0, then 0 halfway to the centre
            for centre in (radius, 0.5 * radius):
                m = u @ (centre * direction * np.eye(k) + r * jordan) @ u.conj().T
                _assert_margin(_assert_member(m), m, radius - centre)


def test_support_extremes_on_plateaus():
    # W(r J_k) is the disc of radius r cos(pi / (k + 1)) around 0, so the
    # support function is constant: every angle is optimal
    rng = np.random.default_rng(26)
    for k in range(2, 7):
        r = rng.uniform(0.5, 2.0)
        u = _haar_unitary(rng, k)
        m = u @ (r * np.diag(np.ones(k - 1), 1)) @ u.conj().T
        radius = r * np.cos(np.pi / (k + 1))
        _assert_margin(_assert_member(m), m, radius)
        w, p = _numerical_radius(m)
        assert abs(w - radius) <= 1e-12 * (1.0 + r)
        assert abs(abs(p) - radius) <= 1e-12 * (1.0 + r)
    # the face of I_3 is everything and W(J_3) is the disc of radius 1/sqrt(2)
    rep = is_norm_parallel(np.eye(3), np.diag(np.ones(2), 1))
    assert not rep.holds and rep.data["face_dim"] == 3
    assert abs(rep.data["numerical_radius"] - np.sqrt(0.5)) <= 1e-12
    assert abs(rep.margin - (np.sqrt(0.5) - 1.0)) <= 1e-12


def _recorded_pencils(monkeypatch):
    """Patch the level-set solve so that it records each pencil (A, B) and
    the (alpha, beta) that LAPACK returned for it."""
    seen = []

    def recording(a, b, **kwargs):
        out = zggev(a, b, **kwargs)
        seen.append((a.copy(), b.copy(), out[0], out[1]))
        return out

    monkeypatch.setattr(matcore, "zggev", recording)
    return seen


def test_level_set_roots_match_scipy_eigvals(monkeypatch):
    # the kept roots of the direct zggev call are those of scipy's eigvals,
    # bit for bit, on the pencils the search builds and at other levels:
    # the pencil diagonal 2 gamma / ||M||_F swept over [-2, 2]
    seen = _recorded_pencils(monkeypatch)
    rng = np.random.default_rng(48)
    for k in range(1, 7):
        corner = np.concatenate([[0.0], np.exp(1j * rng.uniform(0.2, 1.4, k - 1))])
        for m in (random_element(rng, k, k), _normal_matrix(rng, corner)):
            _support_extremum(m, -1.0)
            _support_extremum(m, 1.0)
            pencils = [(pa, pb) for pa, pb, _, _ in seen]
            for pa, pb in pencils:
                for d in (None, *np.linspace(-2.0, 2.0, 9)):
                    if d is not None:
                        np.fill_diagonal(pa[k:, k:], d)
                    ref = eigvals(pa, pb)
                    ref = ref[np.abs(np.abs(ref) - 1.0) <= _UNIMODULAR_TOL]
                    assert _unimodular_eigvals(pa, pb).tobytes() == ref.tobytes()
            seen.clear()


@pytest.mark.filterwarnings("error")
def test_singular_pencils_keep_their_values(monkeypatch):
    # a singular M makes the pencil singular at level 0 (alpha = beta = 0);
    # the search must drop that eigenvalue without dividing by zero
    seen = _recorded_pencils(monkeypatch)
    cases = (
        (np.diag([0, 1j]), 0.0, (3 * np.pi / 2, 1.0), True),
        (np.diag([0, 1, 1j]), 0.0, (0.0, 1.0), True),
        (np.diag([0, 1j, 2]), 0.0, (0.0, 2.0), False),
        (np.array([[0, 1], [0, 0]]), 0.5, (5 * np.pi / 4, 0.5000000000000001), False),
    )
    for m, margin, radius, undetermined in cases:
        m = m.astype(np.complex128)
        res = zero_in_numrange(m)
        assert (res.contains_zero, res.margin, res.residual) == (True, margin, 0.0)
        if undetermined:
            assert any(((a == 0) & (b == 0)).any() for _, _, a, b in seen)
        assert _support_extremum(m, 1.0) == radius
        seen.clear()


def test_level_set_solve_reports_lapack_failure(monkeypatch):
    m = np.array([[1.0, 2.0j], [0.5, -1.0]], dtype=np.complex128)
    for info, error in ((1, np.linalg.LinAlgError), (-3, ValueError)):
        def failing(a, b, _info=info, **kwargs):
            return (*zggev(a, b, **kwargs)[:5], _info)

        with monkeypatch.context() as patch:
            patch.setattr(matcore, "zggev", failing)
            with pytest.raises(error):
                _support_extremum(m, -1.0)


def _ellipse_contains_zero(m):
    """Elliptical range theorem (C.-K. Li, Proc. AMS 124, 1996): W(M) of a
    2-by-2 M is the elliptical disc with foci l1, l2 and minor axis
    b = (tr M*M - |l1|^2 - |l2|^2)^(1/2), so 0 lies in it iff
    |l1| + |l2| <= (|l1 - l2|^2 + b^2)^(1/2)."""
    l1, l2 = np.linalg.eigvals(m)
    b2 = np.trace(m.conj().T @ m).real - abs(l1) ** 2 - abs(l2) ** 2
    return abs(l1) + abs(l2) <= np.sqrt(abs(l1 - l2) ** 2 + max(b2, 0.0))


def test_zero_in_numrange_two_by_two_ellipse_reference():
    rng = np.random.default_rng(27)
    decided = 0
    for _ in range(1000):
        a = random_element(rng, 2, 2)
        # move the centre of W(A) to a random point near 0
        shift = rng.uniform(0.0, 2.0) * np.exp(2j * np.pi * rng.uniform())
        m = a - (np.trace(a) / 2.0 + shift) * np.eye(2)
        res = zero_in_numrange(m, tol=1e-13)
        if abs(res.margin) <= 1e-9:
            continue
        decided += 1
        assert res.contains_zero == _ellipse_contains_zero(m)
    assert decided >= 950


def _support(m, t):
    return np.linalg.eigvalsh((np.exp(1j * t) * m + np.exp(-1j * t) * m.conj().T) / 2.0)[-1]


def test_zero_in_numrange_shifted_to_boundary():
    rng = np.random.default_rng(21)
    step = 2.0 * np.pi / 4096
    for _ in range(60):
        k = int(rng.integers(2, 6))
        m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        t0 = step * float(np.argmin(_support_scan(m)))
        t = minimize_scalar(lambda t: _support(m, t), bounds=(t0 - step, t0 + step),
                            method="bounded", options={"xatol": 1e-12}).x
        # after the shift the support line at angle t passes through 0
        _assert_member(m - _support(m, t) * np.exp(-1j * t) * np.eye(k))


def test_zero_in_numrange_scalar_within_tolerance_band():
    tol = 1e-9
    for c in (0.4 * tol, -0.3 * tol, 0.25j * tol, 0.4 * tol * np.exp(2.2j)):
        res = _assert_member(np.array([[c]]), tol)
        assert res.residual == pytest.approx(abs(c), rel=1e-12)


def test_zero_in_numrange_scalar_closed_form():
    # W([c]) = {c}: margin -|c|, separating angle pi - arg c, or [1] itself
    rng = np.random.default_rng(23)
    tol = 1e-9
    for _ in range(300):
        c = 10.0 ** rng.uniform(-12, 6) * np.exp(2j * np.pi * rng.uniform())
        res = zero_in_numrange(np.array([[c]]), tol)
        assert res.margin == -abs(c)
        if res.contains_zero:
            assert abs(c) <= 0.5 * tol * (1.0 + abs(c))
            np.testing.assert_array_equal(res.vector, [1.0])
            assert res.residual == abs(c)
        else:
            assert abs((np.exp(1j * res.angle) * c).real + abs(c)) <= 1e-15 * abs(c)
            assert 0.0 <= res.angle < 2.0 * np.pi


def test_bj_separating_angle_separates_the_face_compression():
    rng = np.random.default_rng(24)
    separated = 0
    for i in range(120):
        m, n = rng.integers(2, 7, size=2)
        x = (random_degenerate_element(rng, m, n, multiplicity=2) if i % 4 == 3 and min(m, n) > 1
             else random_element(rng, m, n))
        y = random_element(rng, m, n)
        rep = is_bj(x, y)
        if rep.holds:
            continue
        separated += 1
        comp = face_compression(top_face(x), inner_product(x, y))
        assert _support(comp, rep.data["separating_angle"]) < 0.0
    assert separated >= 60


def test_zero_in_numrange_flat_edge_just_missing_zero():
    rng = np.random.default_rng(22)
    tol = 1e-9
    for _ in range(10):
        # a triangle whose lower edge runs at height d = 0.4 tol_abs above 0
        # (||M|| = 2 for these eigenvalues)
        d = 0.4 * tol * (1.0 + 2.0)
        eigs = np.array([-1.0 + 1j * d, 1.0 + 1j * d, 2.0j])
        m = _normal_matrix(rng, np.exp(2j * np.pi * rng.uniform()) * eigs)
        res = _assert_member(m, tol)
        assert res.margin < 0.0
        assert res.residual >= d * (1.0 - 1e-6)


def test_carden_step_hits_targets_on_segments():
    rng = np.random.default_rng(23)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        z1, z2 = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
        z1, z2 = z1 / np.linalg.norm(z1), z2 / np.linalg.norm(z2)
        a1, a2 = z1.conj() @ m @ z1, z2.conj() @ m @ z2
        mu = a1 + rng.uniform() * (a2 - a1)
        z = _carden_step(m, z1, z2, mu)
        assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
        assert abs(z.conj() @ m @ z - mu) <= 1e-12 * (1.0 + operator_norm(m))


def test_state_from_face_vector_rank_one():
    face = top_face(np.diag([-1.0, 0.0]))
    p = state_from_face_vector(face, np.ones(1))
    v = face.isometry
    np.testing.assert_allclose(p.density, v @ v.conj().T, atol=1e-14)


def test_state_from_face_vector_matches_min_derivative():
    t, _, r = incomparability_triple()
    face = top_face(t)
    # the face is everything: its coordinates of e_1, in whatever basis
    p = state_from_face_vector(face, face.isometry.conj().T @ np.array([1.0, 0.0]))
    np.testing.assert_allclose(p.density, np.diag([1.0, 0.0]), atol=1e-14)
    assert state_value(p, inner_product(t, r)).real == pytest.approx(-1.0)


def test_state_from_face_vector_trace_one():
    rng = np.random.default_rng(15)
    for _ in range(20):
        x = random_element(rng, 4, 4)
        face = top_face(x)
        z = rng.standard_normal(face.dim) + 1j * rng.standard_normal(face.dim)
        z /= np.linalg.norm(z)
        p = state_from_face_vector(face, z)
        assert abs(np.trace(p.density).real - 1.0) <= 1e-10


def test_state_from_face_vector_rejects_unnormalized():
    face = top_face(np.eye(2))
    with pytest.raises(NotUnitVector):
        state_from_face_vector(face, np.array([1.0, 1.0]))


def test_cauchy_schwarz_gap_equality_case():
    x = random_element(np.random.default_rng(16), 3, 3)
    face = top_face(x)
    p = state_from_face_vector(face, np.eye(face.dim)[:, 0])
    assert abs(cauchy_schwarz_gap(p, x, x)) <= 1e-9 * (1.0 + module_norm(x) ** 4)


def test_cauchy_schwarz_gap_orthogonal_case():
    x = np.array([[1.0], [0.0]])
    y = np.array([[0.0], [1.0]])
    p = maximally_mixed(1)
    gap = cauchy_schwarz_gap(p, x, y)
    xx = state_value(p, inner_product(x, x)).real
    yy = state_value(p, inner_product(y, y)).real
    assert gap == pytest.approx(xx * yy)
    assert gap >= 0.0


def test_cauchy_schwarz_gap_sweep():
    rng = np.random.default_rng(17)
    for _ in range(500):
        m, n = rng.integers(1, 7, size=2)
        x, y = random_element(rng, m, n), random_element(rng, m, n)
        p = random_state(rng, n)
        scale = 1.0 + (module_norm(x) * module_norm(y)) ** 2
        assert cauchy_schwarz_gap(p, x, y) >= -1e-9 * scale


def test_face_vs_off_face_states():
    rng = np.random.default_rng(18)
    from rhoperp import hermitian_spectrum
    for _ in range(50):
        x = random_element(rng, 4, 4)
        face = top_face(x)
        gram = inner_product(x, x)
        n2 = module_norm(x) ** 2
        q = random_state(rng, face.dim)
        p_on = StateWitness(face.isometry @ q.density @ face.isometry.conj().T)
        assert abs(state_value(p_on, gram).real - n2) <= 1e-8 * (1.0 + n2)
        if face.dim < 4:
            spec = hermitian_spectrum(gram)
            off = spec.eigenvectors[:, face.dim]
            mass = rng.uniform(0.2, 0.8)
            p_mix = StateWitness((1.0 - mass) * p_on.density + mass * np.outer(off, off.conj()))
            assert state_value(p_mix, gram).real < n2 - face.gap * mass / 2.0
