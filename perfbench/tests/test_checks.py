"""Each output check accepts the program's output and rejects corrupted ones."""

from dataclasses import replace

import numpy as np
import pytest

import rhoperp
from perfbench import checks, workloads as W


@pytest.fixture(scope="module")
def pairs():
    rng = np.random.default_rng(11)
    x = W.gaussian(rng, 3, 4)
    generic = W.PairCase("generic", x, W.gaussian(rng, 3, 4), 1, 0.7, 1.3)
    x = W.gaussian(rng, 4, 3)
    bj = W.PairCase("bj", x, W.bj_partner(rng, x))
    ip = W.PairCase("ip", *W.ip_pair(rng, 3, 5))
    x = W.degenerate_element(rng, 5, 5, 3)
    degenerate = W.PairCase("degenerate-bj", x, W.bj_partner(rng, x), 3)
    return {c.kind: c for c in (generic, bj, ip, degenerate)}


def run(case, kind):
    req = next(r for r in W.pair_requests(case, 0) if r.kind == kind)
    return getattr(rhoperp, req.func)(*req.args)


def problems(case, kind, out):
    return checks.check_request(kind, out, case, checks.PairTruth(case.x, case.y))


ALL_KINDS = [r.kind for r in W.pair_requests(W.PairCase("bj", np.eye(2), np.eye(2)), 0)]


@pytest.mark.parametrize("label", ["generic", "bj", "ip", "degenerate-bj"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_program_output_is_accepted(pairs, label, kind):
    case = pairs[label]
    if kind == "ortho.bhatia_semrl_witness" and label == "generic":
        pytest.skip("precondition fails by design on a generic pair")
    assert problems(case, kind, run(case, kind)) == []


@pytest.mark.parametrize("kind", ["ortho.is_ip_orthogonal", "ortho.is_bj",
                                  "ortho.is_bj_real", "ortho.is_bj_strong",
                                  "ortho.is_rho_orthogonal", "ortho.is_norm_parallel"])
def test_flipped_verdict_on_generic_pair_is_rejected(pairs, kind):
    case = pairs["generic"]
    out = run(case, kind)
    assert not out.holds
    witness = None
    if kind.endswith("parallel"):
        witness = 1.0 + 0j
    elif kind.startswith("ortho.is_bj"):
        # a valid face state, which attains ||x||^2 but annihilates nothing
        witness = run(case, "normderiv.rho_pair").max_witness
    assert problems(case, kind, replace(out, holds=True, witness=witness))


@pytest.mark.parametrize("label,kind", [("bj", "ortho.is_bj"), ("bj", "ortho.is_bj_real"),
                                        ("ip", "ortho.is_bj_strong"),
                                        ("ip", "ortho.is_ip_orthogonal"),
                                        ("ip", "ortho.is_rho_orthogonal")])
def test_flipped_verdict_on_orthogonal_pair_is_rejected(pairs, label, kind):
    case = pairs[label]
    out = run(case, kind)
    assert out.holds
    data = dict(out.data, separating_angle=0.3)
    assert problems(case, kind, replace(out, holds=False, witness=None, data=data))


def test_pair_verdicts_reject_broken_chain_and_construction():
    assert checks.check_pair_verdicts({"ortho.is_ip_orthogonal": True,
                                       "ortho.is_bj_strong": False}, "generic")
    assert checks.check_pair_verdicts({"ortho.is_bj": True,
                                       "ortho.is_bj_real": False}, "generic")
    assert checks.check_pair_verdicts({"ortho.is_bj": False}, "bj")
    assert checks.check_pair_verdicts({"ortho.is_bj": True, "ortho.is_bj_real": True,
                                       "ortho.is_rho_orthogonal": True}, "bj") == []


def _perturbed_state(density, rng):
    n = density.shape[0]
    g = W.gaussian(rng, n, n)
    other = g @ g.conj().T
    return rhoperp.StateWitness(0.999 * density + 0.001 * other / np.trace(other).real)


@pytest.mark.parametrize("label,kind", [("bj", "ortho.is_bj"), ("bj", "ortho.is_bj_real"),
                                        ("ip", "ortho.is_bj_strong"),
                                        ("degenerate-bj", "ortho.is_bj")])
def test_perturbed_witness_is_rejected(pairs, label, kind):
    case = pairs[label]
    out = run(case, kind)
    bad = _perturbed_state(out.witness.density, np.random.default_rng(0))
    assert problems(case, kind, replace(out, witness=bad))


def test_shifted_rho_and_perturbed_rho_witness_are_rejected(pairs):
    case = pairs["generic"]
    out = run(case, "normderiv.rho_pair")
    assert problems(case, "normderiv.rho_pair", replace(out, rho_plus=out.rho_plus + 1e-3))
    assert problems(case, "normderiv.rho_pair", replace(out, rho_minus=out.rho_minus - 1e-3))
    bad = _perturbed_state(out.max_witness.density, np.random.default_rng(1))
    assert problems(case, "normderiv.rho_pair", replace(out, max_witness=bad))


def test_wrong_separating_angle_is_rejected(pairs):
    case = pairs["generic"]
    out = run(case, "ortho.is_bj")
    theta = out.data["separating_angle"] + np.pi
    assert problems(case, "ortho.is_bj", replace(out, data={"separating_angle": theta}))


def test_perturbed_vectors_are_rejected(pairs):
    rng = np.random.default_rng(2)
    case = pairs["bj"]
    v = run(case, "ortho.bhatia_semrl_witness")
    w = v + 1e-3 * W.gaussian(rng, v.shape[0], 1)[:, 0]
    assert problems(case, "ortho.bhatia_semrl_witness", w / np.linalg.norm(w))
    out = run(case, "daugavet.operator_daugavet_witness")
    w = out.vector + 1e-3 * W.gaussian(rng, out.vector.shape[0], 1)[:, 0]
    bad = replace(out, vector=w / np.linalg.norm(w))
    assert problems(case, "daugavet.operator_daugavet_witness", bad)


def test_daugavet_reports_with_wrong_values_are_rejected(pairs):
    case = pairs["generic"]
    out = run(case, "daugavet.module_daugavet_check")
    assert problems(case, "daugavet.module_daugavet_check", replace(out, lhs=out.lhs * 1.001))
    out = run(case, "daugavet.rho_cube_identity")
    assert problems(case, "daugavet.rho_cube_identity", replace(out, rho_plus=out.rho_plus + 1e-3))


@pytest.mark.parametrize("make", W._NUMRANGE_KINDS)
def test_numrange_certificates(make):
    case = make(np.random.default_rng(3), 4)
    out = rhoperp.zero_in_numrange(case.m)
    assert checks.check_numrange(out, case) == []
    assert checks.check_numrange(replace(out, contains_zero=not out.contains_zero,
                                         vector=np.eye(4)[0], angle=0.0), case)
    if out.contains_zero:
        z = out.vector + 1e-3 * W.gaussian(np.random.default_rng(4), 4, 1)[:, 0]
        assert checks.check_numrange(replace(out, vector=z / np.linalg.norm(z)), case)
    else:
        assert checks.check_numrange(replace(out, angle=out.angle + np.pi), case)


def test_suite_report_with_failures_is_rejected():
    case = W.SuiteCase("rho-p1", 5, 2)
    out = rhoperp.property_suite(seed=5, trials=2, names=("rho-p1",))
    assert checks.check_suite(out, case) == []
    bad = replace(out, results=(replace(out.results[0], failures=1),))
    assert checks.check_suite(bad, case)
