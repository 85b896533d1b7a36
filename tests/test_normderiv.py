"""Norm derivatives: closed forms, the finite-difference oracle, (P1)-(P5)."""

import numpy as np
import pytest

from rhoperp import (NoConvergence, inner_product, module_norm, rho_fd,
                     rho_minus, rho_pair, rho_plus, state_value)
from rhoperp.verify import (incomparability_triple, random_degenerate_element,
                            random_element)


def test_reference_values_balanced_direction():
    t, s, _ = incomparability_triple()
    assert rho_plus(t, s)[0] == pytest.approx(1.0, abs=1e-12)
    assert rho_minus(t, s)[0] == pytest.approx(-1.0, abs=1e-12)


def test_reference_values_rank_one_direction():
    t, _, r = incomparability_triple()
    assert rho_plus(t, r)[0] == pytest.approx(0.0, abs=1e-12)
    assert rho_minus(t, r)[0] == pytest.approx(-1.0, abs=1e-12)


def test_rho_of_self_is_norm_squared():
    rng = np.random.default_rng(20)
    for _ in range(50):
        x = random_element(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        n2 = module_norm(x) ** 2
        assert rho_plus(x, x)[0] == pytest.approx(n2, rel=1e-10)
        assert rho_minus(x, x)[0] == pytest.approx(n2, rel=1e-10)


def test_rho_sign_flip_exchanges_sides():
    rng = np.random.default_rng(21)
    for _ in range(100):
        m, n = rng.integers(1, 7, size=2)
        x, y = random_element(rng, m, n), random_element(rng, m, n)
        tol = 1e-10 * (1.0 + module_norm(x) * module_norm(y))
        assert abs(rho_minus(x, y)[0] + rho_plus(x, -y)[0]) <= tol


def test_rho_zero_base_point():
    y = random_element(np.random.default_rng(22), 3, 3)
    val, witness = rho_plus(np.zeros((3, 3)), y)
    # every state attains phi(<0, 0>) = 0 = ||0||^2, so any state witnesses 0
    assert val == 0.0
    assert abs(np.trace(witness.density) - 1.0) <= 1e-12
    assert state_value(witness, inner_product(np.zeros((3, 3)), y)) == 0.0


def test_rho_pair_structure():
    t, s, _ = incomparability_triple()
    pair = rho_pair(t, s)
    assert (pair.rho_plus, pair.rho_minus, pair.rho_mid) == pytest.approx((1.0, -1.0, 0.0))
    assert pair.rho_minus <= pair.rho_plus + 1e-10
    assert abs(pair.rho_mid - (pair.rho_plus + pair.rho_minus) / 2.0) <= 1e-12

    x = rho_pair(t, t)
    assert (x.rho_plus, x.rho_minus, x.rho_mid) == pytest.approx((1.0, 1.0, 1.0))


def test_fd_matches_reference_value():
    t, _, r = incomparability_triple()
    assert rho_fd(t, r, "+") == pytest.approx(0.0, abs=1e-6)


def test_fd_of_self():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = random_element(rng, 3, 4)
        n2 = module_norm(x) ** 2
        tol = 1e-6 * (1.0 + n2)
        assert abs(rho_fd(x, x, "+") - n2) <= tol
        assert abs(rho_fd(x, x, "-") - n2) <= tol


def test_fd_brackets_closed_form():
    # side + approaches from above, side - from below
    rng = np.random.default_rng(24)
    for _ in range(50):
        m, n = rng.integers(1, 7, size=2)
        x, y = random_element(rng, m, n), random_element(rng, m, n)
        pair = rho_pair(x, y)
        fuzz = 1e-10 * (1.0 + module_norm(x) * module_norm(y))
        assert rho_fd(x, y, "+") >= pair.rho_plus - fuzz
        assert rho_fd(x, y, "-") <= pair.rho_minus + fuzz


@pytest.mark.filterwarnings("error")
def test_fd_agrees_with_closed_form_sweep():
    rng = np.random.default_rng(25)
    cases = []
    for _ in range(200):
        m, n = rng.integers(1, 7, size=2)
        cases.append((random_element(rng, m, n), random_element(rng, m, n), 1.0, 1.0))
    # the quotients are taken on the unit pair: (c x, d y) gives c d times
    # the value at (x, y) across the double range
    x, y = random_element(rng, 3, 3), random_element(rng, 3, 3)
    cases += [(x, y, c, d) for c, d in ((1.0, 1.0), (1e-100, 1.0), (1.0, 1e-100),
                                        (1e100, 1.0), (1e150, 1e-150), (1e160, 1.0),
                                        (1e-300, 1.0), (1e300, 1e-300), (1e-150, 1e150))]
    for x, y, c, d in cases:
        pair = rho_pair(x, y)
        tol = 1e-5 * (1.0 + module_norm(x) * module_norm(y))
        assert abs(rho_fd(c * x, d * y, "+") / (c * d) - pair.rho_plus) <= tol
        assert abs(rho_fd(c * x, d * y, "-") / (c * d) - pair.rho_minus) <= tol


def test_fd_of_zero_element_is_zero():
    y = random_element(np.random.default_rng(27), 3, 2)
    for side in ("+", "-"):
        assert rho_fd(np.zeros((3, 2)), y, side) == 0.0
        assert rho_fd(y, 1e-310 * y, side) == 0.0


def test_fd_rejects_bad_side():
    with pytest.raises(ValueError):
        rho_fd(np.eye(2), np.eye(2), "up")


def test_fd_no_convergence_at_zero_tolerance():
    # quotients 2 + 2^{1-k} keep changing by 2^{-k} > 0 through k = 48
    with pytest.raises(NoConvergence):
        rho_fd(np.eye(2), np.diag([1.0, 2.0]), "+", tol=0.0)


def test_p1_bounds():
    rng = np.random.default_rng(26)
    for _ in range(200):
        m, n = rng.integers(1, 7, size=2)
        x, y = random_element(rng, m, n), random_element(rng, m, n)
        pair = rho_pair(x, y)
        bound = module_norm(x) * module_norm(y)
        slack = 1e-8 * (1.0 + bound)
        assert pair.rho_minus <= pair.rho_plus + 1e-10
        assert abs(pair.rho_plus) <= bound + slack
        assert abs(pair.rho_minus) <= bound + slack


def test_p2_antisymmetry():
    rng = np.random.default_rng(27)
    for _ in range(200):
        m, n = rng.integers(1, 7, size=2)
        x, y = random_element(rng, m, n), random_element(rng, m, n)
        tol = 1e-8 * (1.0 + module_norm(x) * module_norm(y))
        p = rho_pair(x, y)
        assert abs(rho_plus(-x, y)[0] + p.rho_minus) <= tol
        assert abs(rho_plus(x, -y)[0] + p.rho_minus) <= tol
        assert abs(rho_minus(-x, y)[0] + p.rho_plus) <= tol


def test_p3_translation_along_base():
    rng = np.random.default_rng(28)
    for _ in range(200):
        m, n = rng.integers(1, 7, size=2)
        x, y = random_element(rng, m, n), random_element(rng, m, n)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        nx = module_norm(x)
        tol = 1e-8 * (1.0 + nx * module_norm(y) + abs(alpha) * nx**2)
        lhs = rho_plus(x, alpha * x + y)[0]
        assert abs(lhs - (alpha.real * nx**2 + rho_plus(x, y)[0])) <= tol


def test_p4_phase_homogeneity():
    rng = np.random.default_rng(29)
    for _ in range(200):
        m, n = rng.integers(1, 7, size=2)
        x, y = random_element(rng, m, n), random_element(rng, m, n)
        alpha = complex(rng.standard_normal(), rng.standard_normal()) + 0.2
        beta = complex(rng.standard_normal(), rng.standard_normal()) + 0.2
        phase = np.exp(1j * (np.angle(beta) - np.angle(alpha)))
        mod = abs(alpha * beta)
        tol = 1e-8 * (1.0 + mod * (1.0 + module_norm(x) * module_norm(y)))
        assert abs(rho_plus(alpha * x, beta * y)[0] - mod * rho_plus(x, phase * y)[0]) <= tol


def test_p5_stability_along_direction():
    rng = np.random.default_rng(30)
    for _ in range(100):
        m, n = rng.integers(1, 7, size=2)
        x, y = random_element(rng, m, n), random_element(rng, m, n)
        base = rho_plus(x, y)[0]
        d = [rho_plus(x + t * y, y)[0] - base for t in (1e-2, 1e-4, 1e-6)]
        fuzz = 1e-9 * (1.0 + module_norm(x) * module_norm(y))
        assert d[0] >= d[1] - fuzz >= d[2] - 2 * fuzz >= -3 * fuzz
        assert abs(d[2]) <= 1e-4 * (1.0 + module_norm(y) ** 2)


def test_witnesses_attain_and_live_on_face():
    rng = np.random.default_rng(31)
    for i in range(100):
        m, n = rng.integers(2, 7, size=2)
        x = random_degenerate_element(rng, m, n) if i % 3 == 0 else random_element(rng, m, n)
        y = random_element(rng, m, n)
        pair = rho_pair(x, y)
        ip = inner_product(x, y)
        gram = inner_product(x, x)
        n2 = module_norm(x) ** 2
        tol = 1e-9 * (1.0 + module_norm(x) * module_norm(y))
        assert abs(state_value(pair.max_witness, ip).real - pair.rho_plus) <= tol
        assert abs(state_value(pair.min_witness, ip).real - pair.rho_minus) <= tol
        assert abs(state_value(pair.max_witness, gram).real - n2) <= 1e-8 * (1.0 + n2)
        assert abs(state_value(pair.min_witness, gram).real - n2) <= 1e-8 * (1.0 + n2)
