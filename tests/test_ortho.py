"""The six relation predicates, their witnesses, and implication chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhoperp import (PreconditionFailed, StateWitness, bhatia_semrl_witness,
                     inner_product, is_bj, is_bj_real, is_bj_strong,
                     is_ip_orthogonal, is_norm_parallel, is_rho_orthogonal,
                     m_lower_bound, module_action, module_norm, rho_pair,
                     state_value, top_face)
from rhoperp.verify import (CHAIN_EDGES, CHAIN_PREDICATES, CHAIN_SLACK,
                            bj_orthogonal_pair, incomparability_triple,
                            inner_orthogonal_pair, random_degenerate_element,
                            random_element)

T, S, R = incomparability_triple()
J2 = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_ip_reference_cases():
    assert not is_ip_orthogonal(T, S).holds
    assert is_ip_orthogonal(random_element(np.random.default_rng(0), 2, 2), np.zeros((2, 2))).holds
    x = np.array([[1.0], [0.0]])
    y = np.array([[0.0], [1.0]])
    assert is_ip_orthogonal(x, y).holds


@pytest.mark.parametrize("m, n", [(2, 40), (3, 100), (16, 512)])
def test_ip_on_a_wide_pair_matches_the_dense_norm(m, n):
    # the wide branch reads ||u* w|| from the m-by-m u u*: the same margin as
    # the n-by-n product, and an orthogonal pair stays orthogonal at the
    # default tol (a root of the eigenvalues of u u* would miss it by 1e-8)
    rng = np.random.default_rng(m * n)
    for x, y in ((random_element(rng, m, n), random_element(rng, m, n)),
                 inner_orthogonal_pair(rng, m, n)):
        u, w = x / module_norm(x), y / module_norm(y)
        dense = np.linalg.svd(u.conj().T @ w, compute_uv=False)[0]
        rep = is_ip_orthogonal(x, y)
        assert rep.margin == pytest.approx(-dense, abs=1e-14)
    assert rep.holds and rep.margin > -1e-14


def test_bj_reference_cases():
    assert is_bj(T, R).holds  # W(R) = [-1, 0] contains 0
    x, y = inner_orthogonal_pair(np.random.default_rng(1), 4, 2)
    assert is_bj(x, y).holds
    # complex scalars kill x at lambda = i, so complex-BJ fails
    x2 = np.array([[1.0], [0.0]])
    y2 = np.array([[1.0j], [0.0]])
    assert not is_bj(x2, y2).holds


def test_bj_real_reference_cases():
    assert is_bj_real(T, R).holds
    x2 = np.array([[1.0], [0.0]])
    y2 = np.array([[1.0j], [0.0]])
    assert is_bj_real(x2, y2).holds
    x = random_element(np.random.default_rng(2), 3, 3)
    assert not is_bj_real(x, x).holds


def test_bj_strong_reference_cases():
    assert is_bj_strong(T, R).holds
    assert not is_bj_strong(T, S).holds
    x, y = inner_orthogonal_pair(np.random.default_rng(3), 4, 2)
    assert is_bj_strong(x, y).holds


def test_rho_reference_cases():
    assert is_rho_orthogonal(T, S).holds
    assert not is_rho_orthogonal(T, R).holds
    x, y = inner_orthogonal_pair(np.random.default_rng(4), 4, 2)
    assert is_rho_orthogonal(x, y).holds


def test_parallel_reference_cases():
    x = random_element(np.random.default_rng(5), 3, 3)
    rep = is_norm_parallel(x, x)
    assert rep.holds and abs(rep.witness - 1.0) <= 1e-6
    cube = module_action(x, inner_product(x, x))
    rep2 = is_norm_parallel(x, cube)
    assert rep2.holds and abs(rep2.witness - 1.0) <= 1e-6
    assert not is_norm_parallel(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).holds


def test_parallel_with_phase():
    x = random_element(np.random.default_rng(6), 2, 3)
    rep = is_norm_parallel(x, -1j * x)
    assert rep.holds
    assert abs(rep.witness - 1j) <= 1e-6


def test_parallel_decided_on_degenerate_faces():
    rep = is_norm_parallel(np.eye(2), np.diag([1.0, 1j]))
    assert rep.holds and rep.data["face_dim"] == 2
    rep = is_norm_parallel(np.eye(3), np.diag([1.0, np.exp(2j), -1.0]))
    assert rep.holds and rep.data["face_dim"] == 3
    # only the second face vector aligns I with diag(0.5, i)
    rep = is_norm_parallel(np.eye(2), np.diag([0.5, 1j]))
    assert rep.holds and abs(rep.witness + 1j) <= 1e-12
    assert rep.data["max_norm"] == pytest.approx(2.0, rel=1e-12)
    # W(J_2) is the disc of radius 1/2: no face vector aligns I and J
    rep = is_norm_parallel(np.eye(2), J2)
    assert not rep.holds and rep.witness is None
    assert rep.margin == pytest.approx(-0.5, abs=1e-12)
    assert rep.data["numerical_radius"] == pytest.approx(0.5, abs=1e-12)


def test_parallel_max_norm_attained_at_reported_angle():
    rng = np.random.default_rng(15)
    pairs = [(np.eye(2), np.diag([1.0, 1j])), (np.eye(2), J2),
             (np.eye(3), np.diag([1.0, np.exp(2j), -1.0])), (T, S), (T, R)]
    for i in range(30):
        m, n = rng.integers(1, 7, size=2)
        x = random_element(rng, m, n)
        y = (random_element(rng, m, n), np.exp(1j * rng.uniform(0, 7)) * x,
             module_action(x, inner_product(x, x)))[i % 3]
        pairs.append((x, y))
    for x, y in pairs:
        rep = is_norm_parallel(x, y)
        got = module_norm(x + np.exp(1j * rep.data["angle"]) * y)
        assert got == pytest.approx(rep.data["max_norm"], rel=1e-12)


def test_parallel_zero_element_has_unit_witness():
    # the report carries the same fields as for a nonzero pair; the face of
    # a zero x is everything
    y = random_element(np.random.default_rng(16), 3, 2)
    keys = is_norm_parallel(y, y).data.keys()
    for a, b, dim in ((np.zeros((3, 2)), y, 2), (y, np.zeros((3, 2)), 1),
                      (np.zeros((3, 3)), np.eye(3), 3)):
        rep = is_norm_parallel(a, b)
        assert rep.holds and rep.witness == 1.0
        assert rep.data.keys() == keys
        assert (rep.data["numerical_radius"], rep.data["face_dim"]) == (0.0, dim)


def test_parallel_witness_is_one_when_the_support_point_is_rounding():
    # on a BJ-orthogonal pair with a 1-dim face, C = [c] with |c| ~ 1e-16:
    # xi = 1 instead of the phase of c, so max_norm reads ||x + y||
    rng = np.random.default_rng(17)
    for _ in range(20):
        m, n = rng.integers(2, 7, size=2)
        x, y = bj_orthogonal_pair(rng, m, n)
        rep = is_norm_parallel(x, y)
        assert rep.data["numerical_radius"] <= 1e-12
        assert rep.data["angle"] == 0.0
        assert rep.data["max_norm"] == pytest.approx(module_norm(x + y), rel=1e-12)


PREDICATES = (is_ip_orthogonal, is_bj, is_bj_real, is_bj_strong, is_rho_orthogonal,
              is_norm_parallel)


def _face_pairs(rng, k, count):
    """Pairs (x, y) whose x has a k-dim top face V: y generic, y near 2x
    (no BJ relation holds), and y = x V B V* with tr B = 0, which puts 0 in
    W(V* <x, y> V) and makes every BJ relation hold."""
    pairs = []
    for _ in range(count):
        x = random_degenerate_element(rng, k + 1, k + 1, k)
        v = top_face(x).isometry
        b = random_element(rng, k, k)
        b -= np.trace(b) / k * np.eye(k)
        pairs += [(x, random_element(rng, k + 1, k + 1)),
                  (x, 2.0 * x + 0.3 * random_element(rng, k + 1, k + 1)),
                  (x, x @ v @ b @ v.conj().T)]
    return pairs


def _check_bhatia_vector(v, x, y, real):
    """v is a unit vector in the top face of x with [x v, y v] = 0 (its
    real part for ``real``), relative to ||x|| ||y||."""
    nx, ny = module_norm(x), module_norm(y)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
    assert abs(np.linalg.norm(x @ v) - nx) <= 1e-8 * nx
    pairing = (x @ v).conj() @ (y @ v)
    assert abs(pairing.real if real else pairing) <= 1e-8 * nx * ny


@pytest.mark.filterwarnings("error")
def test_verdicts_invariant_under_extreme_scales():
    rng = np.random.default_rng(3)
    pairs = [(random_element(rng, 3, 3), random_element(rng, 3, 3))]
    for _ in range(6):
        m, n = rng.integers(1, 6, size=2)
        x = random_element(rng, m, n)
        c = complex(rng.standard_normal(), rng.standard_normal())
        pairs += [(x, random_element(rng, m, n)), (x, c * x)]
    pairs += [bj_orthogonal_pair(rng, 3, 3), bj_orthogonal_pair(rng, 4, 2),
              inner_orthogonal_pair(rng, 4, 3), (T, S), (T, R)]
    pairs += _face_pairs(rng, 2, 1)
    scales = (1e-150, 1e-5, 1.0, 1e80, 1e160)
    for x, y in pairs:
        base = {pred: pred(x, y) for pred in PREDICATES}
        unit = rho_pair(x, y)
        slack = 1e-12 * module_norm(x) * module_norm(y)
        for c in scales:
            for d in scales:
                for pred, ref in base.items():
                    rep = pred(c * x, d * y)
                    assert rep.holds == ref.holds, (pred.__name__, c, d)
                    assert rep.margin == pytest.approx(ref.margin, abs=1e-12)
                    if pred is is_norm_parallel and ref.holds:
                        assert abs(rep.witness - ref.witness) <= 1e-12
                pair = rho_pair(c * x, d * y)
                for got, want in ((pair.rho_plus, unit.rho_plus),
                                  (pair.rho_minus, unit.rho_minus)):
                    if np.isfinite(got):
                        assert abs(got / c / d - want) <= slack
                for real, pred in ((False, is_bj), (True, is_bj_real)):
                    if base[pred].holds:
                        _check_bhatia_vector(bhatia_semrl_witness(c * x, d * y, real=real),
                                             x, y, real)


@pytest.mark.filterwarnings("error")
def test_parallel_max_norm_past_the_double_range_reads_inf():
    # ||x + xi y|| = 2e308 is formed on the unit scale and read as a plain
    # product, like every other scale-of-input number
    x = 1e308 * np.eye(2)
    rep = is_norm_parallel(x, x)
    assert rep.holds
    assert rep.data["numerical_radius"] == pytest.approx(1.0, abs=1e-12)
    assert rep.data["max_norm"] == np.inf


def test_small_element_is_not_zero():
    rng = np.random.default_rng(3)
    x, y = random_element(rng, 3, 3), random_element(rng, 3, 3)
    for pred in PREDICATES:
        assert not pred(x, y).holds
        assert not pred(1e-14 * x, y).holds
        # a subnormal norm is the zero element, orthogonal to everything
        assert pred(1e-310 * x, y).holds


def test_every_relation_holds_against_zero():
    rng = np.random.default_rng(17)
    for x in (random_element(rng, 4, 3), random_degenerate_element(rng, 4, 4, 2)):
        zero = np.zeros_like(x)
        gram, n2 = inner_product(x, x), module_norm(x) ** 2
        for pred in PREDICATES:
            rep = pred(x, zero)
            assert rep.holds and rep.margin == 0.0
            if isinstance(rep.witness, StateWitness):
                assert abs(state_value(rep.witness, gram) - n2) <= 1e-10 * n2
        for real in (False, True):
            _check_bhatia_vector(bhatia_semrl_witness(x, zero, real=real), x, zero, real)


def test_zero_element_is_orthogonal_to_everything():
    z = np.zeros((2, 2))
    y = random_element(np.random.default_rng(7), 2, 2)
    for pred in (is_ip_orthogonal, is_bj, is_bj_real, is_bj_strong,
                 is_rho_orthogonal, is_norm_parallel):
        assert pred(z, y).holds
    # witnesses are genuine states that annihilate everything in sight
    for pred in (is_bj, is_bj_real, is_bj_strong):
        w = pred(z, y).witness
        assert abs(state_value(w, inner_product(z, y))) <= 1e-12


def test_reports_expose_consistent_margins():
    rng = np.random.default_rng(8)
    for i in range(60):
        m, n = rng.integers(2, 7, size=2)
        if i % 3 == 0:
            x, y = bj_orthogonal_pair(rng, m, n)
        else:
            x, y = random_element(rng, m, n), random_element(rng, m, n)
        for pred in (is_ip_orthogonal, is_bj, is_bj_real, is_bj_strong,
                     is_rho_orthogonal, is_norm_parallel):
            rep = pred(x, y, 2e-9)
            assert rep.tol == 2e-9 and rep.holds == (rep.margin >= -rep.tol)
            if rep.relation.value in ("bj", "bj-real", "bj-strong", "parallel") and rep.holds:
                assert rep.witness is not None


def test_bj_witness_annihilates_inner_product():
    rng = np.random.default_rng(9)
    for _ in range(40):
        x, y = bj_orthogonal_pair(rng, 4, 3)
        rep = is_bj(x, y)
        assert rep.holds
        scale = 1.0 + module_norm(x) * module_norm(y)
        assert abs(state_value(rep.witness, inner_product(x, y))) <= 1e-8 * scale
        gram = inner_product(x, x)
        n2 = module_norm(x) ** 2
        assert abs(state_value(rep.witness, gram).real - n2) <= 1e-8 * (1.0 + n2)


def test_bj_real_witness_has_zero_real_part():
    # where Re V* G V straddles 0, the witness and the real Bhatia-Semrl
    # vector come from one Carden step and vanish to rounding
    rng = np.random.default_rng(19)
    pairs = [(T, R)] + [p for k in (2, 3, 4) for p in _face_pairs(rng, k, 4)]
    straddling = 0
    for x, y in pairs:
        pair = rho_pair(x, y)
        if not pair.rho_minus <= 0.0 <= pair.rho_plus:
            continue
        straddling += 1
        bound = 1e-12 * module_norm(x) * module_norm(y)
        rep = is_bj_real(x, y)
        assert rep.holds
        assert abs(state_value(rep.witness, inner_product(x, y)).real) <= bound
        v = bhatia_semrl_witness(x, y, real=True)
        _check_bhatia_vector(v, x, y, real=True)
        assert abs(((x @ v).conj() @ (y @ v)).real) <= bound
    assert straddling >= 12


def test_bhatia_semrl_witness_raises_iff_predicate_reads_false():
    rng = np.random.default_rng(20)
    failing = 0
    for k in (2, 3, 4):
        for x, y in _face_pairs(rng, k, 3):
            for real, pred in ((False, is_bj), (True, is_bj_real)):
                scale = abs(pred(x, y).margin)
                for tol in (scale * (1.0 + 1e-6), scale * (1.0 - 1e-6)):
                    holds = pred(x, y, tol).holds
                    failing += not holds
                    try:
                        bhatia_semrl_witness(x, y, tol, real=real)
                    except PreconditionFailed:
                        assert not holds
                    else:
                        assert holds
    assert failing >= 10


def test_bj_strong_witness_annihilates_positive_element():
    rep = is_bj_strong(T, R)
    assert rep.holds
    pos = inner_product(T, R) @ inner_product(R, T)
    assert abs(state_value(rep.witness, pos).real) <= 1e-9


def test_m_lower_bound_values():
    assert m_lower_bound(S) == pytest.approx(1.0)
    assert m_lower_bound(R) == pytest.approx(0.0, abs=1e-12)
    assert m_lower_bound(np.zeros((2, 2))) == pytest.approx(0.0, abs=1e-15)


def test_m_lower_bound_reads_small_singular_values():
    # sigma_min(y)^2 to relative accuracy, where an eigenvalue of y* y would
    # carry a rounding error near eps ||y||^2 (~1e-16); a wide y has rank < n,
    # so its bound is exactly 0
    rng = np.random.default_rng(12)
    q1, q2 = (np.linalg.qr(random_element(rng, 6, 6))[0] for _ in range(2))
    for low in (1e-8, 1e-10):
        y = (q1 * np.r_[2.0, 1.5, 1.0, 0.7, 0.3, low]) @ q2
        assert m_lower_bound(y) == pytest.approx(low * low, rel=1e-4)
    for m, n in ((2, 5), (7, 8), (2, 2000)):
        assert m_lower_bound(random_element(rng, m, n)) == 0.0


@pytest.mark.filterwarnings("error")
def test_m_lower_bound_across_scales():
    y = random_element(np.random.default_rng(3), 3, 3)
    base = m_lower_bound(y)
    for c in 10.0 ** np.linspace(-150.0, 150.0, 31):
        assert m_lower_bound(c * y) / (c * c) == pytest.approx(base, rel=1e-10)
    with pytest.raises(ValueError):  # lambda_min(<y, y>) is beyond the double range
        m_lower_bound(1e160 * y)


def test_m_lower_bound_inequality_under_bj():
    rng = np.random.default_rng(10)
    for _ in range(30):
        x, y = bj_orthogonal_pair(rng, 4, 3)
        assert is_bj(x, y).holds
        my = m_lower_bound(y)
        nx2 = module_norm(x) ** 2
        for _ in range(100):
            lam = 2.0 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert module_norm(x + lam * y) ** 2 >= nx2 + abs(lam) ** 2 * my - 1e-8


def test_bhatia_semrl_witness_rank_one_direction():
    v = bhatia_semrl_witness(T, R)
    assert np.linalg.norm(T @ v) == pytest.approx(1.0)
    assert abs((T @ v).conj() @ (R @ v)) <= 1e-9


def test_bhatia_semrl_witness_balanced_direction_real():
    v = bhatia_semrl_witness(T, S, real=True)
    assert np.linalg.norm(T @ v) == pytest.approx(1.0)
    assert abs(((T @ v).conj() @ (S @ v)).real) <= 1e-9


def test_bhatia_semrl_witness_zero_direction():
    x = random_element(np.random.default_rng(11), 3, 3)
    v = bhatia_semrl_witness(x, np.zeros((3, 3)))
    assert np.linalg.norm(x @ v) == pytest.approx(module_norm(x))


def test_bhatia_semrl_witness_requires_relation():
    x = random_element(np.random.default_rng(12), 3, 3)
    with pytest.raises(PreconditionFailed):
        bhatia_semrl_witness(x, x)
    with pytest.raises(PreconditionFailed):
        bhatia_semrl_witness(x, x, real=True)


def test_implication_chains():
    rng = np.random.default_rng(13)
    t = 1e-9
    pairs = [(T, S), (T, R)]
    for i in range(150):
        m, n = rng.integers(2, 7, size=2)
        if i % 4 == 2:
            pairs.append(inner_orthogonal_pair(rng, m, n))
        elif i % 4 == 3:
            pairs.append(bj_orthogonal_pair(rng, m, n))
        else:
            pairs.append((random_element(rng, m, n), random_element(rng, m, n)))
    for x, y in pairs:
        _assert_chains(x, y, t)


def _assert_chains(x, y, tol):
    """Each stronger relation's margin is at most the weaker one's, and
    every implication of the chains holds at the one ``tol``."""
    reps = {pred: pred(x, y, tol) for pred in CHAIN_PREDICATES}
    assert all(rep.tol == tol and rep.holds == (rep.margin >= -tol) for rep in reps.values())
    for strong, weak in CHAIN_EDGES:
        assert reps[strong].margin <= reps[weak].margin + CHAIN_SLACK, (strong, weak)
        assert reps[weak].holds or not reps[strong].holds, (strong, weak)


def test_implication_chains_hold_at_the_default_tol():
    # sigma_min(G* V) = 3e-5 = the bj distance; its square, 9e-10, is below tol
    x, y = np.eye(2), np.diag([3e-5, 1.0])
    assert not is_bj_strong(x, y).holds
    assert is_bj_strong(x, y).margin == pytest.approx(-3e-5, rel=1e-12)
    _assert_chains(x, y, 1e-9)
    # every margin is -d, with rho_plus + rho_minus = 2d: bj and rho hold at
    # tol only when both decide at tol on the unit scale
    d = 8e-10
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    y = np.array([[d, 0.0], [0.0, d], [1.0, 0.0]])
    for pred in CHAIN_PREDICATES:
        rep = pred(x, y)
        assert rep.holds and rep.margin == pytest.approx(-d, rel=1e-6), pred.__name__
    _assert_chains(x, y, 1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), n=st.integers(2, 6),
       ip=st.booleans(), exponent=st.floats(-12.0, -4.0))
def test_margin_order_near_orthogonal_pairs(seed, m, n, ip, exponent):
    # a pair orthogonal by construction, moved off by 10^exponent ||y||; the
    # tol of the same size puts the verdicts near the decision boundary
    rng = np.random.default_rng(seed)
    x, y = (inner_orthogonal_pair if ip else bj_orthogonal_pair)(rng, m, n)
    z = random_element(rng, m, n)
    y = y + 10.0 ** exponent * module_norm(y) / module_norm(z) * z
    for tol in (1e-9, 10.0 ** exponent):
        _assert_chains(x, y, tol)


def test_incomparability_of_rho_and_strong():
    assert is_rho_orthogonal(T, S).holds and not is_bj_strong(T, S).holds
    assert is_bj_strong(T, R).holds and not is_rho_orthogonal(T, R).holds


def test_relations_invariant_under_scaling():
    rng = np.random.default_rng(14)
    for i in range(40):
        m, n = rng.integers(2, 7, size=2)
        if i % 2:
            x, y = bj_orthogonal_pair(rng, m, n)
        else:
            x, y = random_element(rng, m, n), random_element(rng, m, n)
        c = (0.3 + rng.uniform(0, 2.7)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        d = (0.3 + rng.uniform(0, 2.7)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        for pred in (is_ip_orthogonal, is_bj, is_bj_real, is_bj_strong, is_rho_orthogonal):
            assert pred(x, y).holds == pred(c * x, d * y).holds


def test_scaled_bj_pairs_answer_like_unit_scale():
    # The face compression V* H V is ~0 here while its rounding drift grows
    # like eps ||x|| ||y||, so a drift check against 1 + ||V* H V|| would
    # reject about half of these pairs as non-Hermitian.
    rng = np.random.default_rng(0)
    for _ in range(100):
        x, y = bj_orthogonal_pair(rng, 4, 4)
        unit, big = rho_pair(x, y), rho_pair(1e3 * x, 1e3 * y)
        slack = 1e-12 * (1.0 + module_norm(x) * module_norm(y))
        assert abs(big.rho_plus / 1e6 - unit.rho_plus) <= slack
        assert abs(big.rho_minus / 1e6 - unit.rho_minus) <= slack
        for pred in (is_bj_real, is_rho_orthogonal):
            assert pred(1e3 * x, 1e3 * y).holds == pred(x, y).holds


def _haar_unitary(rng, k):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _diagonal_family_margins(a, b, mult):
    """Margins of the six relations and w(C) for x = U D(a) W, y = U D(b) W
    whose top face is the first mult indices, from a and b alone: C is
    unitarily similar to diag(p), p_i = conj(a_i) b_i / (max|a| max|b|)."""
    q = a.conj() * b / (np.abs(a).max() * np.abs(b).max())
    p = q[:mult]
    # the support minimum of the polygon conv{p_i} lies at a vertex normal
    # or where the sinusoids of two vertices cross
    d = (p[:, None] - p[None, :]).ravel()
    t = np.concatenate([np.pi - np.angle(p), 0.5 * np.pi - np.angle(d),
                        1.5 * np.pi - np.angle(d)])
    bj = (np.exp(1j * t)[:, None] * p[None, :]).real.max(axis=1).min()
    hi, lo = p.real.max(), p.real.min()
    margins = {"ip": -np.abs(q).max(), "bj": bj, "bj-real": min(hi, -lo),
               "bj-strong": -np.abs(p).min(), "rho": -abs(hi + lo) / 2.0,
               "parallel": np.abs(p).max() - 1.0}
    return margins, np.abs(p).max()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), extra=st.integers(0, 2),
       mult=st.integers(1, 5), edge=st.booleans())
def test_margins_match_closed_forms_on_diagonal_families(seed, n, extra, mult, edge):
    # ROADMAP item 2's family: faces of dimension 1 to n, the numerical range
    # of C the polygon conv{p_i}; with edge, 0 lies on the segment [p_0, p_1]
    rng = np.random.default_rng(seed)
    m, mult = n + extra, min(mult, n)
    mags = np.concatenate([np.ones(mult), rng.uniform(0.05, 0.9, n - mult)])
    a = 10.0 ** rng.uniform(-2, 2) * mags * np.exp(2j * np.pi * rng.uniform(size=n))
    b = rng.uniform(0.05, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    if edge and mult >= 2:
        b[1] = -rng.uniform(0.2, 5.0) * np.conj(a[0]) * b[0] / np.conj(a[1])
    u, w = _haar_unitary(rng, m), _haar_unitary(rng, n)
    x, y = (u[:, :n] * a) @ w, (u[:, :n] * b) @ w
    want, radius = _diagonal_family_margins(a, b, mult)
    for pred in PREDICATES:
        rep = pred(x, y)
        assert abs(rep.margin - want[rep.relation.value]) <= 1e-12, rep.relation.value
    rep = is_norm_parallel(x, y)
    assert rep.data["face_dim"] == mult
    assert abs(rep.data["numerical_radius"] - radius) <= 1e-12
