"""Inputs are reproducible from the seed and have the stated structure."""

import numpy as np
import pytest

import rhoperp
from perfbench import workloads as W

PROPS = rhoperp.property_names()


def _arrays(workload):
    out = []
    for case in workload.cases:
        out += [np.asarray(v) for v in vars(case).values() if isinstance(v, np.ndarray)]
    return out


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_entries(name):
    a, b, c = (W.build(name, s, PROPS) for s in (7, 7, 8))
    assert [r.kind for r in a.requests] == [r.kind for r in c.requests]
    assert a.cases == b.cases if name == "check-suite" else all(
        np.array_equal(u, v) for u, v in zip(_arrays(a), _arrays(b)))
    if name == "check-suite":
        assert a.cases != c.cases
    else:
        assert [u.shape for u in _arrays(a)] == [u.shape for u in _arrays(c)]
        assert not np.array_equal(_arrays(a)[0], _arrays(c)[0])


@pytest.mark.parametrize("name", ["small-pairs", "numrange-boundary", "large-dense"])
def test_pairs_have_their_structure(name):
    for case in W.build(name, 3).cases:
        if not isinstance(case, W.PairCase):
            continue
        s = np.linalg.svd(case.x, compute_uv=False)
        assert s[0] > 0.1
        if case.kind == "ip":
            assert np.abs(case.x.conj().T @ case.y).max() < 1e-12
        if case.kind.endswith("bj"):
            v = np.linalg.svd(case.x)[2][0].conj()
            assert abs((case.x @ v).conj() @ (case.y @ v)) < 1e-12
        if case.kind.startswith("degenerate"):
            assert np.allclose(s[: case.mult], s[0], rtol=1e-12)
            assert s[case.mult] < 0.9 * s[0] if len(s) > case.mult else True


@pytest.mark.parametrize("k", W.NUMRANGE_SIZES)
@pytest.mark.parametrize("make", W._NUMRANGE_KINDS)
def test_numrange_margins_match_a_support_function_scan(make, k):
    thetas = np.linspace(0.0, 2.0 * np.pi, 20000, endpoint=False)
    ph = np.exp(1j * thetas)[:, None, None]
    rng = np.random.default_rng(k)
    for case in (make(rng, k) for _ in range(3)):
        m = case.m
        g = np.linalg.eigvalsh((ph * m + ph.conj() * m.conj().T) / 2.0)[:, -1].min()
        err = np.linalg.norm(m, 2) * np.pi / 20000
        assert case.margin - 1e-12 <= g + 1e-12 <= case.margin + err + 1e-9, case.kind


def test_tail_leaves_at_least_ten_requests_beyond():
    for name in W.WORKLOADS:
        n = len(W.build(name, 0, PROPS).requests)
        assert 10 <= W.TAIL_BEYOND[name] < n, name
