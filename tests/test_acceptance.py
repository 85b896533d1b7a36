"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import numpy as np

from rhoperp import (bhatia_semrl_witness, bj_grid_oracle, bj_real_grid_oracle,
                     inner_product, is_bj, is_bj_real, is_bj_strong,
                     is_ip_orthogonal, is_rho_orthogonal, module_action,
                     module_daugavet_check, module_norm,
                     operator_daugavet_witness, operator_norm, property_suite,
                     rho_fd, rho_pair, state_value, top_face)
from rhoperp.verify import (_bj_search, bj_orthogonal_pair, incomparability_triple,
                            inner_orthogonal_pair, random_degenerate_element,
                            random_element)


def _verdict(num, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"\nACCEPTANCE {num} ({label}): {status}")
    assert not problems, problems[:5]


def test_criterion_1_reference_reproduction():
    problems = []
    t, s, r = incomparability_triple()
    pair_s = rho_pair(t, s)
    pair_r = rho_pair(t, r)
    for label, got, want in [
        ("rho_plus(T,S)", pair_s.rho_plus, 1.0),
        ("rho_minus(T,S)", pair_s.rho_minus, -1.0),
        ("rho_minus(T,R)", pair_r.rho_minus, -1.0),
        ("rho_plus(T,R)", pair_r.rho_plus, 0.0),
    ]:
        if abs(got - want) > 1e-9:
            problems.append(f"{label} = {got!r}, want {want}")
    for label, got, want in [
        ("T rho-orth S", is_rho_orthogonal(t, s).holds, True),
        ("T ip-orth S", is_ip_orthogonal(t, s).holds, False),
        ("T rho-orth R", is_rho_orthogonal(t, r).holds, False),
        ("T bj-real R", is_bj_real(t, r).holds, True),
        ("T bj-strong S", is_bj_strong(t, s).holds, False),
        ("T bj-strong R", is_bj_strong(t, r).holds, True),
    ]:
        if got != want:
            problems.append(f"{label} = {got}, want {want}")
    _verdict(1, "reference 2x2 values and relation table", problems)


def test_criterion_2_cube_derivative_identity():
    problems = []
    rng = np.random.default_rng(1002)
    degenerate_seen = 0
    for i in range(100):
        if i % 7 == 0:
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            x = random_degenerate_element(rng, m, n)
        else:
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            x = random_element(rng, m, n)
        if top_face(x).dim >= 2:
            degenerate_seen += 1
        pair = rho_pair(x, module_action(x, inner_product(x, x)))
        n4 = module_norm(x) ** 4
        bound = 1e-8 * (1.0 + n4)
        if abs(pair.rho_plus - n4) > bound or abs(pair.rho_minus - n4) > bound:
            problems.append(f"instance {i}: rho=({pair.rho_plus}, {pair.rho_minus}) vs {n4}")
    if degenerate_seen < 10:
        problems.append(f"only {degenerate_seen} degenerate top faces (need >= 10)")
    _verdict(2, "rho(x, x<x,x>) = ||x||^4 on 100 instances", problems)


def test_criterion_3_daugavet_and_operator_witness():
    problems = []
    rng = np.random.default_rng(1003)
    for i in range(100):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        x = random_element(rng, m, n)
        for alpha, beta in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.1)):
            rep = module_daugavet_check(x, alpha, beta)
            if rep.residual > 1e-9 * (1.0 + rep.rhs):
                problems.append(f"instance {i} ({alpha},{beta}): residual {rep.residual}")
        w = operator_daugavet_witness(x / module_norm(x))
        worst = max(w.attainment_residual, w.cube_attainment_residual, w.alignment_residual)
        if worst > 1e-8:
            problems.append(f"instance {i}: witness residual {worst}")
    _verdict(3, "Daugavet norm identity and operator witness", problems)


def test_criterion_4_closed_form_vs_definition():
    problems = []
    rng = np.random.default_rng(1004)
    for i in range(200):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        x, y = random_element(rng, m, n), random_element(rng, m, n)
        pair = rho_pair(x, y)
        bound = 1e-5 * (1.0 + module_norm(x) * module_norm(y))
        dev = max(abs(rho_fd(x, y, "+") - pair.rho_plus),
                  abs(rho_fd(x, y, "-") - pair.rho_minus))
        if dev > bound:
            problems.append(f"pair {i}: fd deviation {dev} > {bound}")
    _verdict(4, "closed form vs finite-difference on 200 pairs", problems)


def test_criterion_5_bj_equivalence_with_grid_oracle():
    problems = []
    # A certificate-FALSE with oracle-TRUE is allowed (the oracle cannot
    # see violations shallower than its tolerance) but must stay rare.
    resolution_misses = 0
    rng = np.random.default_rng(1005)
    for i in range(200):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        x, y = random_element(rng, m, n), random_element(rng, m, n)
        ours = is_bj(x, y).holds
        oracle = bj_grid_oracle(x, y)
        if ours and not oracle:
            problems.append(f"pair {i}: certificate-TRUE / oracle-FALSE (bj)")
        resolution_misses += (not ours) and oracle
        ours_r = is_bj_real(x, y).holds
        oracle_r = bj_real_grid_oracle(x, y)
        if ours_r and not oracle_r:
            problems.append(f"pair {i}: certificate-TRUE / oracle-FALSE (bj-real)")
        resolution_misses += (not ours_r) and oracle_r
    if resolution_misses > 4:
        problems.append(f"{resolution_misses} oracle-resolution misses (systematic drift)")
    # engineered TRUE-side instances exercise the membership branch, and the
    # oracle certifies each TRUE by its subgradient bound
    for i in range(30):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        x, y = bj_orthogonal_pair(rng, m, n)
        if not is_bj(x, y).holds:
            problems.append(f"engineered pair {i}: predicate missed orthogonality")
        if _bj_search(x, y) != (None, True):
            problems.append(f"engineered pair {i}: oracle TRUE not certified (bj)")
    _verdict(5, f"BJ decisions vs definition-level oracles, {resolution_misses} "
             "resolution misses", problems)


def test_criterion_6_property_suite():
    report = property_suite(seed=0, trials=500)
    problems = [f"{r.name}: {r.failures} failures" for r in report.results if r.failures]
    required = {"rho-p1", "rho-p2", "rho-p3", "rho-p4", "rho-p5",
                "cauchy-schwarz-state-gap", "bj-norm-lower-bound",
                "implication-chains", "incomparability", "two-by-two-reference"}
    missing = required - {r.name for r in report.results}
    if missing:
        problems.append(f"missing properties: {sorted(missing)}")
    _verdict(6, "property suite (P1-P5, chains, incomparability) at 500 trials", problems)


def test_criterion_7_witness_validity():
    problems = []
    rng = np.random.default_rng(1007)
    t, s, r = incomparability_triple()
    instances = [(t, s), (t, r)]
    for i in range(100):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        if i % 3 == 0:
            x, y = inner_orthogonal_pair(rng, m, n)
        elif i % 3 == 1:
            x, y = bj_orthogonal_pair(rng, m, n)
        else:
            x, y = random_element(rng, m, n), random_element(rng, m, n)
        if module_norm(x) > 0 and module_norm(y) > 0:
            instances.append((x / module_norm(x), y / module_norm(y)))
    for i, (x, y) in enumerate(instances):
        ip = inner_product(x, y)
        gram = inner_product(x, x)
        n2 = module_norm(x) ** 2
        reports = {
            "bj": (is_bj(x, y), lambda w: abs(state_value(w, ip))),
            "bj-real": (is_bj_real(x, y), lambda w: abs(state_value(w, ip).real)),
            "bj-strong": (is_bj_strong(x, y),
                          lambda w: abs(state_value(w, ip @ ip.conj().T).real)),
        }
        for name, (rep, annihilation) in reports.items():
            if not rep.holds:
                continue
            if abs(state_value(rep.witness, gram).real - n2) > 1e-8:
                problems.append(f"instance {i} {name}: witness off the norming face")
            if annihilation(rep.witness) > 1e-8:
                problems.append(f"instance {i} {name}: annihilation violated")
        if is_bj(x, y).holds:
            v = bhatia_semrl_witness(x, y)
            if abs(np.linalg.norm(x @ v) - operator_norm(x)) > 1e-8:
                problems.append(f"instance {i}: BS vector misses the norm")
            if abs((x @ v).conj() @ (y @ v)) > 1e-8:
                problems.append(f"instance {i}: BS vector pairing nonzero")
        if is_bj_real(x, y).holds:
            v = bhatia_semrl_witness(x, y, real=True)
            if abs(np.linalg.norm(x @ v) - operator_norm(x)) > 1e-8:
                problems.append(f"instance {i}: real BS vector misses the norm")
            if abs(((x @ v).conj() @ (y @ v)).real) > 1e-8:
                problems.append(f"instance {i}: real BS vector pairing nonzero")
    _verdict(7, "state witnesses and Bhatia-Semrl vectors", problems)
