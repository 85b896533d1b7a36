"""Oracles and the property-suite runner."""

import numpy as np
import pytest
import scipy.optimize

from rhoperp import (ShapeMismatch, bj_grid_oracle, bj_real_grid_oracle,
                     inner_product, is_bj, is_bj_real, is_norm_parallel,
                     module_norm, operator_norm, parallel_grid_oracle,
                     property_names, property_suite, strong_bj_sample_oracle,
                     top_face)
from rhoperp import matcore, verify
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
    # public operation, and norm by numpy's SVD alone: no LAPACK call of the
    # spectral code they check, no scipy.optimize search and no random draw
    def trap(*args, **kwargs):
        raise AssertionError("an oracle called a matcore LAPACK kernel, scipy.optimize "
                             "or a random generator")

    for name in ("zheevr", "zheevd", "zgesdd"):
        monkeypatch.setattr(matcore, name, trap)
    for name in ("minimize", "minimize_scalar"):
        monkeypatch.setattr(scipy.optimize, name, trap)
    monkeypatch.setattr(np.random, "default_rng", trap)
    x, y = [[1.0], [0.0]], [[1.0j], [0.0]]
    result = oracle(x, y)
    assert (result[0] == pytest.approx(expected, abs=1e-9) if isinstance(result, tuple)
            else result is expected)
    with pytest.raises(ShapeMismatch):
        oracle(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        oracle([[np.nan], [0.0]], y)


def _assert_search(x, y, real, holds):
    """_bj_search certifies its verdict, and a FALSE carries a violator c
    that a fresh numpy SVD confirms: ||x + c y|| < ||x|| (1 - 1e-6)."""
    c, certified = verify._bj_search(x, y, real)
    assert certified and (c is None) == holds
    if c is not None:
        assert not real or isinstance(c, float)
        fresh = np.linalg.svd(x + c * y, compute_uv=False)[0]
        assert fresh < np.linalg.svd(x, compute_uv=False)[0] * (1.0 - verify._ORACLE_TOL)


def test_bj_oracles_on_column_vectors():
    # n = 1: min over complex c of ||x + c y|| is the distance from x to
    # span(y), sqrt(||x||^2 - |y* x|^2/||y||^2); over real c,
    # sqrt(||x||^2 - (Re y* x)^2/||y||^2)
    rng = np.random.default_rng(60)
    for i in range(60):
        m = int(rng.integers(2, 7))
        x, y = random_element(rng, m, 1), random_element(rng, m, 1)
        if i % 3:
            # y* x = 0 (i % 3 == 1) or purely imaginary (i % 3 == 2)
            y = y - x * (x.conj().T @ y) / (x.conj().T @ x)
            y = y + (1j * x if i % 3 == 2 else 0.0)
        nx, ny = np.linalg.norm(x), np.linalg.norm(y)
        ip = complex((y.conj().T @ x)[0, 0])
        for real, part in ((False, abs(ip)), (True, abs(ip.real))):
            dist = np.sqrt(max(nx * nx - (part / ny) ** 2, 0.0))
            _assert_search(x, y, real, dist >= nx * (1.0 - verify._ORACLE_TOL))


def _two_dim_face_pair(rng, m, n, bj):
    """x with a 2-dim top face spanned by v1, v2; for ``bj`` y is moved so
    that the compression [u_i* y v_j] has trace 0, which puts 0 in its
    numerical range although the subgradient at c = 0 is not unique."""
    x = random_degenerate_element(rng, m, n, 2)
    y = random_element(rng, m, n)
    if bj:
        u, _, vh = np.linalg.svd(x, full_matrices=False)
        top = [np.outer(u[:, i], vh[i]) for i in range(2)]
        y = y - sum(u[:, i].conj() @ y @ vh[i].conj() for i in range(2)) / 2.0 * sum(top)
    return x, y


def test_bj_oracles_certify_two_dim_faces_and_scale_ratios():
    # the verdicts of is_bj and is_bj_real, each certified by the search,
    # with ||x||/||y|| spread over 10^[-3, 3] and at 10^160 and 10^-160 (the
    # level ||x|| (1 - 1e-6) is relative, so a tiny ||x|| decides as well)
    rng = np.random.default_rng(61)
    for i in range(40):
        m, n = (int(v) for v in rng.integers(2, 7, size=2))
        x, y = _two_dim_face_pair(rng, m, n, bj=i % 2 == 0)
        assert top_face(x).dim == 2
        ratio = 10.0 ** rng.uniform(-3.0, 3.0)
        for xs, ys in ((x, y), (ratio * x, y), (x, ratio * y), (x, 1e-160 * y),
                       (1e-160 * x, y)):
            _assert_search(xs, ys, False, is_bj(xs, ys).holds)
            _assert_search(xs, ys, True, is_bj_real(xs, ys).holds)
        if i % 2 == 0:
            assert is_bj(x, y).holds


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
    # min_a ||x + y a|| = ||(I - P_y) x||, with P_y the projection onto range(y)
    assert not strong_bj_sample_oracle(T, S)  # a = -C zeroes T + Sa
    assert strong_bj_sample_oracle(T, R)
    rng = np.random.default_rng(55)
    x, y = inner_orthogonal_pair(rng, 4, 2)
    assert strong_bj_sample_oracle(x, y)
    # y of full column rank, m >= n: TRUE off range(y), FALSE for x = y b
    y = random_element(rng, 5, 2)
    q = np.linalg.qr(y, mode="complete")[0]
    assert strong_bj_sample_oracle(q[:, 2:] @ random_element(rng, 3, 2), y)
    assert not strong_bj_sample_oracle(y @ random_element(rng, 2, 2), y)
    # a generic wide y has P_y = I: FALSE for every nonzero x
    for _ in range(5):
        assert not strong_bj_sample_oracle(random_element(rng, 2, 5), random_element(rng, 2, 5))
    # rank 1 at 5x6, stored with singular values from 2e-16 to 3e-15: the
    # rank cut keeps a = -y^+ x, of norm near 1e16 without it, from lowering
    # the norm by rounding alone
    x, y = inner_orthogonal_pair(np.random.default_rng(0), 5, 6)
    assert np.linalg.svd(y, compute_uv=False)[1] < 1e-14
    assert strong_bj_sample_oracle(x, y)
    assert strong_bj_sample_oracle(x, np.zeros_like(x))


def test_bj_oracles_are_homogeneous():
    # each BJ oracle gives the verdict on (c x, d y) that it gives on (x, y):
    # a generic pair (FALSE), a BJ-orthogonal pair (TRUE for bj and bj-real)
    # and an ip-orthogonal pair (TRUE for all three)
    rng = np.random.default_rng(65)
    pairs = [(random_element(rng, 3, 3), random_element(rng, 3, 3)),
             bj_orthogonal_pair(rng, 4, 3), inner_orthogonal_pair(rng, 3, 4)]
    for oracle in (bj_grid_oracle, bj_real_grid_oracle, strong_bj_sample_oracle):
        for k, (x, y) in enumerate(pairs):
            want = oracle(x, y)
            assert want == (k == 2 or (k == 1 and oracle is not strong_bj_sample_oracle))
            for c in (1e-150, 1e-8, 1e8, 1e150):
                for d in (1e-150, 1e-8, 1e8, 1e150):
                    assert oracle(c * x, d * y) == want, (oracle.__name__, k, c, d)
    # x = 0: min ||c y|| = 0 = ||x||, certified without a cut
    for real in (False, True):
        _assert_search(np.zeros_like(x), y, real, True)


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


def test_parallel_search_on_diagonal_pairs():
    # x = U D(a) W, y = U D(b) W: max_t ||x + e^{it} y|| = max_i |a_i| + |b_i|,
    # which is ||x|| + ||y|| (parallel) iff one i is the top of |a| and of |b|;
    # the bound certifies either verdict, the angle reproduces the norm.  A
    # non-parallel pair falls short by min(||y||, ||x||)/2 or more, beyond the
    # resolution ||y|| pi / 720 for ||y||/||x|| below 100
    rng = np.random.default_rng(62)
    for i in range(40):
        k = int(rng.integers(2, 6))
        mags_a = np.r_[1.0, rng.uniform(0.1, 0.5, k - 1)]
        mags_b = np.r_[1.0, rng.uniform(0.1, 0.5, k - 1)] * 10.0 ** rng.uniform(-2.0, 2.0)
        if i % 2:
            mags_b[:2] = mags_b[1::-1]  # the top of |b| at the second of |a|
        a = mags_a * np.exp(2j * np.pi * rng.uniform(size=k))
        b = mags_b * np.exp(2j * np.pi * rng.uniform(size=k))
        u, w = (np.linalg.qr(random_element(rng, k, k))[0] for _ in range(2))
        x, y = u @ np.diag(a) @ w, u @ np.diag(b) @ w
        closed = float(np.max(mags_a + mags_b))
        target = mags_a.max() + mags_b.max()
        value, angle, upper = verify._parallel_search(x, y)
        fresh = np.linalg.svd(x + np.exp(1j * angle) * y, compute_uv=False)[0]
        assert fresh == pytest.approx(value, rel=1e-14)
        assert value <= closed * (1.0 + 1e-14) and upper >= closed * (1.0 - 1e-14)
        parallel = value >= target - 1e-9 * (1.0 + target)
        assert parallel == (i % 2 == 0) == (upper >= target)


def _normal(rng, eigs):
    q = np.linalg.qr(random_element(rng, len(eigs), len(eigs)))[0]
    return q @ np.diag(eigs) @ q.conj().T


def test_support_scan_on_closed_form_ranges():
    # min_t lambda_max(Re(e^{it} M)) in closed form: for a normal M with
    # eigenvalues {0, 1, i} or {-1, 1, i} moved by d, 0 lies at signed
    # distance -|d| or d from a corner or an edge; W(c I + J_k) is the disc
    # of radius cos(pi/(k + 1)) around c; the scan reads a grid value within
    # ||M|| pi / 4096 above the minimum
    rng = np.random.default_rng(63)
    cases = []
    for d in (0.0, 0.05, 0.3):
        rot = np.exp(2j * np.pi * rng.uniform())
        corner = np.array([0.0, 1.0, 1j]) + d * np.exp(0.25j * np.pi)
        cases.append((_normal(rng, rot * corner), -d))
        for s in (1.0, -1.0):
            edge = np.array([-1.0, 1.0, 1j]) + s * 1j * d
            cases.append((_normal(rng, rot * edge), -s * d))
    for k in (2, 3, 4):
        for c in (0.0, 0.2 * np.exp(2j * np.pi * rng.uniform())):
            cases.append((c * np.eye(k) + np.diag(np.ones(k - 1), 1),
                          np.cos(np.pi / (k + 1)) - abs(c)))
    for m, closed in cases:
        nrm = np.linalg.svd(m, compute_uv=False)[0]
        scan = verify._support_scan(m, nrm)
        assert closed - 1e-12 <= scan <= closed + nrm * np.pi / 4096 + 1e-12


def test_oracles_take_few_evaluations(monkeypatch):
    # a fixed 100-pair stream: numpy SVD matrices per pair for each oracle,
    # and eigvalsh matrices (scanned angles) per matrix for the support scan
    count = [0]

    def counting(f):
        def wrapped(a, *args, **kwargs):
            count[0] += int(np.prod(np.shape(a)[:-2]))
            return f(a, *args, **kwargs)
        return wrapped

    rng = np.random.default_rng(64)
    pairs = [verify._mixed_pair(rng, i) for i in range(100)]
    mats = [random_element(rng, k, k) for k in rng.choice([2, 3, 5], size=100)]
    norms = [operator_norm(m) for m in mats]
    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    caps = {bj_grid_oracle: (32, 8), bj_real_grid_oracle: (16, 8),
            parallel_grid_oracle: (1100, 500)}
    for oracle, (most, mean) in caps.items():
        counts = []
        for x, y in pairs:
            count[0] = 0
            oracle(x, y)
            counts.append(count[0])
        assert max(counts) <= most and np.mean(counts) <= mean, oracle.__name__
    counts = []
    for m, nrm in zip(mats, norms):
        count[0] = 0
        verify._support_scan(m, nrm)
        counts.append(count[0])
    assert max(counts) <= 1024 and np.mean(counts) <= 256


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
    with pytest.raises(ValueError):
        property_suite(seed=0, trials=5, names=[])


def test_property_suite_checks_names_before_running(monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("rho-p1 ran")

    monkeypatch.setattr(verify, "rho_pair", ran)
    # a str is not read as a set of one-letter names, nor a bool or a
    # fraction as a trial count
    for kwargs, match in (({"names": ["rho-p1", "bogus"]}, "bogus"),
                          ({"names": "rho-p1"}, "names must be"),
                          ({"names": ["rho-p1"], "trials": 2.5}, "trials must be"),
                          ({"names": ["rho-p1"], "trials": True}, "trials must be")):
        with pytest.raises(ValueError, match=match):
            property_suite(**{"seed": 0, "trials": 5, **kwargs})


def test_one_property_builds_one_stream(monkeypatch):
    # the property at registry index i draws from the i-th spawned child of
    # the seed, built on its own: no spawn of the other 31
    i = property_names().index("cube-identity")
    child = np.random.SeedSequence(9).spawn(len(property_names()))[i]
    want = verify._PROPERTIES[i][1](np.random.default_rng(child), 3)
    built = []

    class OneStream(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.spawn_key)

        def spawn(self, n_children):
            raise AssertionError("spawned every child stream")

    monkeypatch.setattr(np.random, "SeedSequence", OneStream)
    (got,) = property_suite(seed=9, trials=3, names=["cube-identity"]).results
    assert built == [(i,)]
    assert (got.trials, got.failures, got.worst_margin) == want


def test_property_suite_payload_schema():
    rep = property_suite(seed=1, trials=5, names=["rho-p1"])
    doc = rep.to_payload()
    assert set(doc) == {"seed", "trials", "all_pass", "properties"}
    entry = doc["properties"][0]
    assert set(entry) == {"name", "trials", "failures", "worst_margin", "seconds"}
    assert 0.0 < entry["seconds"] < 60.0
