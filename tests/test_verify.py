"""Oracles and the property-suite runner."""

import numpy as np
import pytest

from rhoperp import (ShapeMismatch, bj_grid_oracle, bj_real_grid_oracle,
                     inner_product, is_bj, is_bj_real, is_norm_parallel,
                     module_norm, operator_norm, parallel_grid_oracle,
                     property_names, property_suite, strong_bj_sample_oracle)
from rhoperp import matcore
from rhoperp.verify import (bj_orthogonal_pair, incomparability_triple,
                            inner_orthogonal_pair, random_degenerate_element,
                            random_element)

T, S, R = incomparability_triple()


def test_generators_produce_what_they_claim():
    rng = np.random.default_rng(50)
    for _ in range(30):
        m, n = rng.integers(2, 7, size=2)
        x, y = inner_orthogonal_pair(rng, m, n)
        assert operator_norm(inner_product(x, y)) <= 1e-12
        x, y = bj_orthogonal_pair(rng, m, n)
        assert is_bj(x, y).holds
        x = random_degenerate_element(rng, m, n)
        s = np.linalg.svd(x, compute_uv=False)
        assert abs(s[0] - s[1]) <= 1e-12 * (1.0 + s[0])


def test_bj_grid_oracle_complex_scalar_violation():
    # lambda = i sends x to zero, far below ||x|| = 1
    x = np.array([[1.0], [0.0]])
    y = np.array([[1.0j], [0.0]])
    assert not bj_grid_oracle(x, y)


@pytest.mark.parametrize("oracle, expected", [
    (bj_grid_oracle, False), (bj_real_grid_oracle, True),
    (strong_bj_sample_oracle, False), (parallel_grid_oracle, 2.0),
], ids=lambda v: getattr(v, "__name__", ""))
def test_oracles_validate_at_the_boundary(oracle, expected, monkeypatch):
    # the oracles take lists, raise ShapeMismatch and reject NaN like every
    # public operation, and norm by SVD alone: no eigensolve of the
    # spectral code they check
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("an oracle called a matcore eigensolver")

    monkeypatch.setattr(matcore, "zheevr", no_eigensolve)
    monkeypatch.setattr(matcore, "zheevd", no_eigensolve)
    x, y = [[1.0], [0.0]], [[1.0j], [0.0]]
    result = oracle(x, y)
    assert (result[0] == pytest.approx(expected, abs=1e-9) if isinstance(result, tuple)
            else result is expected)
    with pytest.raises(ShapeMismatch):
        oracle(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        oracle([[np.nan], [0.0]], y)


def test_bj_grid_oracle_orthogonal_instances():
    rng = np.random.default_rng(51)
    for _ in range(10):
        x, y = inner_orthogonal_pair(rng, 4, 2)
        assert bj_grid_oracle(x, y)


def test_bj_grid_oracle_agreement_sweep():
    rng = np.random.default_rng(52)
    for i in range(30):
        m, n = rng.integers(2, 7, size=2)
        x, y = bj_orthogonal_pair(rng, m, n) if i % 3 == 0 else (
            random_element(rng, m, n), random_element(rng, m, n))
        ours = is_bj(x, y).holds
        oracle = bj_grid_oracle(x, y)
        assert not (ours and not oracle)
        assert ours == oracle


def test_bj_real_grid_oracle_reference_cases():
    x = np.array([[1.0], [0.0]])
    y = np.array([[1.0j], [0.0]])
    assert bj_real_grid_oracle(x, y)  # sqrt(1 + a^2) >= 1 for real a
    assert bj_real_grid_oracle(T, R)  # max(|1-a|, 1) >= 1
    x2 = random_element(np.random.default_rng(53), 3, 3)
    assert not bj_real_grid_oracle(x2, x2)  # a = -1/2 shrinks x


def test_bj_real_grid_oracle_agreement_sweep():
    rng = np.random.default_rng(54)
    for _ in range(30):
        m, n = rng.integers(2, 7, size=2)
        x, y = random_element(rng, m, n), random_element(rng, m, n)
        assert is_bj_real(x, y).holds == bj_real_grid_oracle(x, y)


def test_strong_sample_oracle_reference_cases():
    assert not strong_bj_sample_oracle(T, S)  # a = -C zeroes T + Sa
    assert strong_bj_sample_oracle(T, R)
    x, y = inner_orthogonal_pair(np.random.default_rng(55), 4, 2)
    assert strong_bj_sample_oracle(x, y)


def _parallel_sweep_pairs(rng):
    """Generic, ip- and BJ-orthogonal pairs, (x, e^{ia} x), and x with a
    2- to 4-dim top face against parallel and non-parallel partners."""
    pairs = []
    for i in range(12):
        m, n = (int(v) for v in rng.integers(2, 7, size=2))
        pairs.append((random_element(rng, m, n), random_element(rng, m, n)))
        pairs.append(inner_orthogonal_pair(rng, m, n))
        pairs.append(bj_orthogonal_pair(rng, m, n))
        x = random_element(rng, m, n)
        pairs.append((x, np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * x))
        mult = 2 + i % 3
        x = random_degenerate_element(rng, mult + 1 + i % 2, mult + 1, mult)
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=len(s)))
        weights = np.r_[1.0, rng.uniform(0.2, 0.9, size=len(s) - 1)]
        # same singular vectors, new phases and weights: parallel through
        # the first face vector only
        pairs.append((x, (u * (s * phases * weights)) @ vh))
        # partner's top singular vector lies off the face: not parallel
        pairs.append((x, (u * np.sort(rng.uniform(0.2, 1.0, size=len(s)))) @ vh))
        # shift inside the face: w(J_k) = cos(pi / (k + 1)) < 1
        pairs.append((x, u[:, :mult] @ np.diag(np.ones(mult - 1), 1) @ vh[:mult]))
    return pairs


def test_parallel_grid_oracle_agreement_sweep():
    pairs = _parallel_sweep_pairs(np.random.default_rng(57))
    assert len(pairs) >= 60
    verdicts = set()
    for x, y in pairs:
        target = module_norm(x) + module_norm(y)
        max_norm, angle = parallel_grid_oracle(x, y)
        assert operator_norm(x + np.exp(1j * angle) * y) == pytest.approx(max_norm, rel=1e-12)
        oracle = max_norm >= target - 1e-9 * (1.0 + target)
        rep = is_norm_parallel(x, y)
        assert rep.holds == oracle
        if rep.holds:
            assert operator_norm(x + rep.witness * y) == pytest.approx(target, rel=1e-12)
        verdicts.add(oracle)
    assert verdicts == {True, False}


def test_property_names_are_pinned_in_suite_order():
    # a property's position sets its child stream, so a reorder would
    # change every seeded result
    assert property_names() == (
        "norm-submultiplicative", "cstar-identity", "spectral-reconstruction",
        "inner-product-axioms", "module-norm-consistency", "cauchy-schwarz-norm",
        "cauchy-schwarz-state-gap", "face-attains-norm", "off-face-deficit",
        "rho-p1", "rho-p2", "rho-p3", "rho-p4", "rho-p5", "rho-closed-vs-fd",
        "rho-witness-attainment", "cube-identity", "daugavet-equation",
        "daugavet-scaling", "daugavet-parallel", "operator-witness",
        "bj-vs-grid-oracle", "bj-real-vs-grid-oracle", "strong-vs-sampling-oracle",
        "implication-chains", "bj-norm-lower-bound", "relation-homogeneity",
        "numrange-grid-agreement", "numrange-rotation-consistency",
        "witness-validity", "two-by-two-reference", "incomparability")


def test_property_suite_passes():
    rep = property_suite(seed=0, trials=30)
    failed = [r.name for r in rep.results if r.failures]
    assert rep.all_pass, failed
    assert {r.name for r in rep.results} == set(property_names())


def _outcome(payload):
    """The payload without the per-property wall times, which vary."""
    props = [{k: v for k, v in p.items() if k != "seconds"} for p in payload["properties"]]
    return {**payload, "properties": props}


def test_property_suite_is_deterministic():
    a = property_suite(seed=3, trials=10)
    b = property_suite(seed=3, trials=10)
    assert _outcome(a.to_payload()) == _outcome(b.to_payload())


def test_property_suite_subset_matches_full_run():
    full = property_suite(seed=5, trials=10)
    part = property_suite(seed=5, trials=10, names=["rho-p2", "cube-identity"])
    by_name = {r.name: r for r in full.results}
    for r in part.results:
        assert r == by_name[r.name]


def test_property_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        property_suite(seed=0, trials=5, names=["no-such-property"])
    with pytest.raises(ValueError):
        property_suite(seed=0, trials=0)


def test_property_suite_payload_schema():
    rep = property_suite(seed=1, trials=5, names=["rho-p1"])
    doc = rep.to_payload()
    assert set(doc) == {"seed", "trials", "all_pass", "properties"}
    entry = doc["properties"][0]
    assert set(entry) == {"name", "trials", "failures", "worst_margin", "seconds"}
    assert 0.0 < entry["seconds"] < 60.0
