"""Norm identities around x<x,x> and the operator witness."""

import numpy as np
import pytest

from rhoperp import (InvalidScalars, ZeroOperator, inner_product,
                     is_norm_parallel, module_action, module_daugavet_check,
                     module_norm, operator_daugavet_witness, rho_cube_identity)
from rhoperp.verify import random_degenerate_element, random_element


def test_cube_identity_identity_element():
    rep = rho_cube_identity(np.eye(2))
    assert rep.rho_plus == pytest.approx(1.0)
    assert rep.rho_minus == pytest.approx(1.0)
    assert rep.norm_fourth == pytest.approx(1.0)
    assert rep.within_tol


def test_cube_identity_rank_one():
    # <x,x> = diag(1,0); the face is e1 and the compression of <x, x<x,x>> is 1
    rep = rho_cube_identity(np.diag([-1.0, 0.0]))
    assert rep.rho_plus == pytest.approx(1.0)
    assert rep.rho_minus == pytest.approx(1.0)
    assert rep.within_tol


def test_cube_identity_zero_element():
    rep = rho_cube_identity(np.zeros((2, 2)))
    assert rep.rho_plus == 0.0 and rep.rho_minus == 0.0 and rep.within_tol


def test_cube_identity_across_scales():
    x = random_element(np.random.default_rng(41), 3, 3)
    for c in (1e-60, 1e-5, 1e5, 1e60):
        rep = rho_cube_identity(c * x)
        assert rep.within_tol
        assert rep.rho_plus / rep.norm_fourth == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):  # ||x||^4 is beyond the double range
        rho_cube_identity(1e80 * x)


def test_cube_identity_sweep():
    rng = np.random.default_rng(40)
    for i in range(100):
        m, n = rng.integers(1, 7, size=2)
        if i % 3 == 0 and min(m, n) >= 2:
            x = random_degenerate_element(rng, m, n)
        else:
            x = random_element(rng, m, n)
        rep = rho_cube_identity(x)
        assert rep.max_deviation <= 1e-8 * (1.0 + rep.norm_fourth)
        assert rep.witness_square_residual <= 1e-8 * (1.0 + rep.norm_fourth)


def test_daugavet_identity_element():
    rep = module_daugavet_check(np.eye(2), 1.0, 1.0)
    assert rep.lhs == pytest.approx(2.0)
    assert rep.rhs == pytest.approx(2.0)
    assert rep.within_tol


def test_daugavet_zero_element():
    rep = module_daugavet_check(np.zeros((3, 2)), 2.0, 0.5)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.within_tol


def test_daugavet_sweep():
    rng = np.random.default_rng(41)
    for _ in range(100):
        x = random_element(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        for alpha, beta in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.1)):
            rep = module_daugavet_check(x, alpha, beta)
            assert rep.residual <= 1e-9 * (1.0 + rep.rhs)
            assert rep.cube_norm_residual <= 1e-9 * (1.0 + module_norm(x) ** 3)


@pytest.mark.filterwarnings("error")
def test_daugavet_check_across_scales():
    # ||a c x + (b/c^2) (c x)<c x, c x>|| = c ||a x + b x<x,x>||
    x = random_element(np.random.default_rng(3), 3, 3)
    base = module_daugavet_check(x, 1.0, 1.0)
    for c in 10.0 ** np.linspace(-150.0, 100.0, 26):
        rep = module_daugavet_check(c * x, 1.0, 1.0 / (c * c))
        assert rep.within_tol
        assert rep.lhs / c == pytest.approx(base.lhs, rel=1e-12)
        assert rep.rhs / c == pytest.approx(base.rhs, rel=1e-12)
    with pytest.raises(ValueError):  # ||x||^3 is beyond the double range
        module_daugavet_check(1e110 * x, 1.0, 1e-220)


def test_daugavet_rejects_nonpositive_scalars():
    with pytest.raises(InvalidScalars):
        module_daugavet_check(np.eye(2), 0.0, 1.0)
    with pytest.raises(InvalidScalars):
        module_daugavet_check(np.eye(2), 1.0, -2.0)


def test_daugavet_implies_norm_parallel():
    rng = np.random.default_rng(42)
    for _ in range(25):
        x = random_element(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        cube = module_action(x, inner_product(x, x))
        rep = is_norm_parallel(x, cube)
        assert rep.holds
        assert abs(rep.witness - 1.0) <= 1e-6


def test_daugavet_scaling_consistency():
    rng = np.random.default_rng(43)
    for _ in range(50):
        x = random_element(rng, 3, 4)
        c = complex(rng.standard_normal(), rng.standard_normal()) + 0.3
        base = module_daugavet_check(x, 1.0, 0.7)
        scaled = module_daugavet_check(c * x, 1.0, 0.7 / abs(c) ** 2)
        assert abs(scaled.residual - abs(c) * base.residual) <= 1e-9 * (1.0 + scaled.rhs)


def test_operator_witness_identity():
    rep = operator_daugavet_witness(np.eye(2))
    assert rep.sum_norm == pytest.approx(2.0)
    assert rep.within_tol


def test_operator_witness_diagonal():
    rep = operator_daugavet_witness(np.diag([2.0, 1.0]))
    assert abs(abs(rep.vector[0]) - 1.0) <= 1e-12  # top right-singular vector is e1
    assert rep.norm_t == pytest.approx(2.0)
    assert rep.norm_cube == pytest.approx(8.0)
    assert rep.sum_norm == pytest.approx(10.0)
    assert rep.within_tol


def test_operator_witness_sweep():
    rng = np.random.default_rng(44)
    for _ in range(50):
        t = random_element(rng, 4, 4)
        rep = operator_daugavet_witness(t)
        bound = 1e-8 * (1.0 + rep.norm_t ** 3)
        assert rep.attainment_residual <= bound
        assert rep.cube_attainment_residual <= bound
        assert rep.alignment_residual <= bound
        assert rep.equation_residual <= bound


def test_operator_witness_rectangular():
    rep = operator_daugavet_witness(random_element(np.random.default_rng(45), 3, 5))
    assert rep.within_tol


def test_operator_witness_rejects_zero():
    with pytest.raises(ZeroOperator):
        operator_daugavet_witness(np.zeros((2, 2)))


@pytest.mark.filterwarnings("error")
def test_operator_witness_across_scales():
    t = random_element(np.random.default_rng(3), 3, 3)
    base = operator_daugavet_witness(t)
    for c in 10.0 ** np.linspace(-150.0, 100.0, 26):
        rep = operator_daugavet_witness(c * t)
        assert rep.within_tol
        assert rep.norm_t / c == pytest.approx(base.norm_t, rel=1e-12)
        assert abs(abs(rep.vector.conj() @ base.vector) - 1.0) <= 1e-12
        assert rep.alignment_residual <= 1e-12
    with pytest.raises(ValueError):  # ||T||^3 is beyond the double range
        operator_daugavet_witness(1e110 * t)


@pytest.mark.filterwarnings("error")
def test_daugavet_tolerances_are_relative():
    # each residual is judged against tol times its own scale, so under
    # x -> c x, for c = 2^j (2^±498 spans 10^±150, and every product
    # rescales exactly), within_tol and each residual/scale ratio stay the
    # same; that holds for a tol below rounding too, which the absolute slack
    # tol (1 + value) let every x below unit scale pass.  Both are read where
    # the value is a normal double; above, it overflows.
    x = random_element(np.random.default_rng(3), 3, 3)
    nx = module_norm(x)

    def cube(c, tol):
        rep = rho_cube_identity(c * x, tol)
        n4 = rep.norm_fourth
        return rep.within_tol, [(rep.max_deviation, n4), (rep.witness_square_residual, n4)]

    def module(c, tol):
        rep = module_daugavet_check(c * x, 1.0, 1.0 / (c * c), tol)
        n3 = (c * nx) ** 3
        return rep.within_tol, [(rep.residual, rep.rhs), (rep.cube_norm_residual, n3)]

    def operator(c, tol):
        # ||T + T T* T|| is not homogeneous, so its residual ratio may move
        rep = operator_daugavet_witness(c * x, tol)
        n3 = rep.norm_t ** 3
        return rep.within_tol, [(rep.attainment_residual, rep.norm_t),
                                (rep.cube_attainment_residual, n3),
                                (rep.alignment_residual, 1.0)]

    for check, power in ((cube, 4), (module, 3), (operator, 3)):
        for tol in (1e-9, 1e-17):
            within, base = check(1.0, tol)
            assert within == (tol > 1e-16)
            ratios = [r / s for r, s in base]
            for j in range(-498, 499, 83):
                exponent = power * (j + np.log2(nx))  # of the value ||c x||^power
                if exponent >= 1024.0:
                    with pytest.raises(ValueError):
                        check(2.0 ** j, tol)
                    continue
                within_c, pairs = check(2.0 ** j, tol)
                if exponent > -1022.0:
                    assert within_c == within
                    # a nonzero residual below the smallest normal double
                    # has lost bits, so only its ratio may move
                    for (r, s), ratio in zip(pairs, ratios):
                        if not 0.0 < r < np.finfo(float).tiny:
                            assert r / s == ratio
                else:  # residuals that scale with the value underflow to 0
                    assert within_c or not within
