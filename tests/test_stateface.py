"""Top faces, states, compressions, and numerical-range membership."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from rhoperp import (NotUnitVector, ShapeMismatch, StateWitness, ZeroElement,
                     cauchy_schwarz_gap, face_compression, inner_product, is_bj,
                     maximally_mixed, module_norm, operator_norm,
                     state_from_face_vector, state_value, top_face,
                     zero_in_numrange)
from rhoperp.stateface import _carden_step
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


def test_top_face_degenerate_flagged_dimension():
    x = random_degenerate_element(np.random.default_rng(9), 4, 4, multiplicity=2)
    assert top_face(x).dim == 2


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


def test_face_compression_full_face_is_unitary_conjugation():
    rng = np.random.default_rng(12)
    face = top_face(np.eye(3))
    a = random_element(rng, 3, 3)
    comp = face_compression(face, a)
    np.testing.assert_allclose(sorted(np.linalg.eigvals(comp).real),
                               sorted(np.linalg.eigvals(a).real), atol=1e-10)


def test_face_compression_identity_face():
    t, s, _ = incomparability_triple()
    np.testing.assert_allclose(face_compression(top_face(t), s), s)


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
        band = nrm * np.pi / 720 + 1e-9 * (1.0 + nrm)
        assert abs(res.margin - g_scan) <= band
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
        # eigenvalues in convex position: 0 at a corner, then inside an edge
        hull = np.exp(2j * np.pi * np.arange(k) / k)
        _assert_member(_normal_matrix(rng, hull - hull[0]))
        _assert_member(_normal_matrix(rng, hull - (0.3 * hull[0] + 0.7 * hull[1])))


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
            for centre in (radius, 0.5 * radius):
                m = u @ (centre * direction * np.eye(k) + r * jordan) @ u.conj().T
                _assert_member(m)


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
    p = state_from_face_vector(face, np.array([1.0, 0.0]))
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
