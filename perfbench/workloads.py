"""Seeded inputs and request lists for the four benchmark workloads.

Only numpy is used here: the program under test receives the generated
arrays and nothing else.  Shapes, kinds and the request order are fixed
per workload; the seed changes only the entries, so runs on different
seeds do the same amount and kind of work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# request_tail_ms is the latency with this many requests beyond it, which
# on each list falls inside one block of same-kind requests (see README.md).
# Ten is the least.  Deeper tails avoid blocks whose size or cost depends on
# the seed: on numrange-boundary the ten slowest are certificate fallbacks,
# taken by about half of the disc-through-0 cases; on check-suite they are
# the top few of the 56 bj-vs-grid-oracle requests.
TAIL_BEYOND = {"small-pairs": 10, "numrange-boundary": 132,
               "large-dense": 10, "check-suite": 26}

# Properties per check-suite request run at this fixed trial count.
SUITE_TRIALS = 4

# Property-suite seeds in the check-suite list.
SUITE_SEEDS = 56

PREDICATES = ("is_ip_orthogonal", "is_bj", "is_bj_real", "is_bj_strong",
              "is_rho_orthogonal", "is_norm_parallel")

# Pair kinds whose relations hold by construction.
ORTHOGONAL_KINDS = ("bj", "ip", "degenerate-bj")


@dataclass(frozen=True)
class PairCase:
    """A module pair (x, y) and how it was built.

    ``kind`` is ``generic``, ``bj`` (Birkhoff-James orthogonal by
    construction), ``ip`` (<x, y> = 0 by construction), or
    ``degenerate-generic`` / ``degenerate-bj`` for an x whose top singular
    value has multiplicity ``mult``.
    """

    kind: str
    x: np.ndarray
    y: np.ndarray
    mult: int = 1
    alpha: float = 1.0
    beta: float = 1.0


@dataclass(frozen=True)
class NumrangeCase:
    """A k-by-k matrix whose numerical range is known in closed form.

    ``margin`` is min_t lambda_max(Re(e^{it} M)): the signed distance from
    0 to the boundary of W(M), 0 when 0 sits on it, negative outside.
    """

    kind: str
    m: np.ndarray
    margin: float


@dataclass(frozen=True)
class SuiteCase:
    """One property of the seeded suite on one suite seed."""

    name: str
    seed: int
    trials: int


@dataclass(frozen=True)
class Request:
    """One public call: ``<module>.<func>(*args)`` on ``cases[case]``.

    The function is looked up when the request runs, so a wrapper bound
    in its place is the one called.
    """

    kind: str
    module: str
    func: str
    args: tuple
    case: int
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    requests: tuple


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


def gaussian(rng, m: int, n: int) -> np.ndarray:
    """m-by-n matrix of i.i.d. standard complex Gaussians."""
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2.0)


def haar_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(gaussian(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))


def bj_partner(rng, x: np.ndarray) -> np.ndarray:
    """y with (x v)* (y v) = 0 for a top right-singular vector v of x.

    v lies in the top face, so 0 = v* <x, y> v is in the numerical range
    of the face compression: x is Birkhoff-James orthogonal to y.
    """
    u, _, vh = np.linalg.svd(x, full_matrices=False)
    v1, u1 = vh[0].conj(), u[:, 0]
    z = gaussian(rng, *x.shape)
    return z - np.outer(u1 * (u1.conj() @ (z @ v1)), v1.conj())


def ip_pair(rng, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) with <x, y> = x* y = 0 and x != 0 (needs m >= 2).

    For m <= n the smallest singular value of x is zeroed so that its
    column space has a nontrivial complement; y lies in that complement.
    """
    x = gaussian(rng, m, n)
    if m <= n:
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        s[-1] = 0.0
        x = (u * s) @ vh
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    basis = u[:, : int(np.sum(s > 1e-12 * s[0]))]
    z = gaussian(rng, m, n)
    return x, z - basis @ (basis.conj().T @ z)


def degenerate_element(rng, m: int, n: int, mult: int) -> np.ndarray:
    """x whose top singular value has multiplicity exactly ``mult``;
    the other singular values lie in [0.1, 0.8] of the top one."""
    r = min(m, n)
    s = np.sort(rng.uniform(0.1, 0.8, r))[::-1]
    s[:mult] = 1.0
    u = haar_unitary(rng, m)[:, :r]
    v = haar_unitary(rng, n)[:, :r]
    return rng.uniform(0.5, 2.0) * (u * s) @ v.conj().T


def _daugavet_scalars(rng) -> tuple[float, float]:
    return float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0))


# ---------------------------------------------------------------------------
# Numerical ranges with known geometry
# ---------------------------------------------------------------------------


def _similar(rng, a: np.ndarray) -> np.ndarray:
    u = haar_unitary(rng, a.shape[0])
    return u @ a @ u.conj().T


def normal_corner(rng, k: int, shift: float) -> NumrangeCase:
    """Normal matrix with eigenvalue 0 at a corner of the eigenvalue
    polygon; the polygon is then moved ``shift`` away from 0.

    The other eigenvalues lie in a cone of half-angle pi/3 around the
    direction e^{i phi}, so the nearest point of the hull is the apex.
    """
    phi = rng.uniform(0.0, 2.0 * np.pi)
    psi = rng.uniform(-np.pi / 3.0, np.pi / 3.0, k - 1)
    rad = rng.uniform(0.5, 2.0, k - 1)
    eigs = np.concatenate([[0.0], rad * np.exp(1j * psi)]) + shift
    a = np.diag(np.exp(1j * phi) * eigs)
    kind = "normal-corner" if shift == 0.0 else "normal-corner-out"
    return NumrangeCase(kind, _similar(rng, a), -shift)


def normal_edge(rng, k: int, shift: float) -> NumrangeCase:
    """Normal matrix with 0 inside an edge of the eigenvalue polygon
    (between eigenvalues a and -b on a supporting line), moved ``shift``
    away from 0 across that line."""
    phi = rng.uniform(0.0, 2.0 * np.pi)
    ends = np.array([rng.uniform(0.5, 1.5), -rng.uniform(0.5, 1.5)], dtype=complex)
    rest = rng.uniform(-1.5, 1.5, k - 2) + 1j * rng.uniform(0.3, 1.5, k - 2)
    eigs = np.concatenate([ends, rest]) + 1j * shift
    a = np.diag(np.exp(1j * phi) * eigs)
    kind = "normal-edge" if shift == 0.0 else "normal-edge-out"
    return NumrangeCase(kind, _similar(rng, a), -shift)


def jordan_disc(rng, k: int, offset: float, kind: str) -> NumrangeCase:
    """c I + r J_k up to unitary similarity.  W is the disc around c of
    radius r cos(pi/(k+1)); |c| = radius + offset."""
    r = rng.uniform(0.5, 2.0)
    radius = r * np.cos(np.pi / (k + 1))
    c = (radius + offset * radius) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    a = c * np.eye(k) + r * np.eye(k, k=1)
    return NumrangeCase(kind, _similar(rng, a.astype(complex)), -offset * radius)


_NUMRANGE_KINDS = (
    lambda rng, k: normal_corner(rng, k, 0.0),
    lambda rng, k: normal_edge(rng, k, 0.0),
    lambda rng, k: jordan_disc(rng, k, 0.0, "jordan-through"),
    lambda rng, k: jordan_disc(rng, k, -0.5, "jordan-inside"),
    lambda rng, k: normal_corner(rng, k, 0.05),
    lambda rng, k: normal_edge(rng, k, 0.05),
    lambda rng, k: jordan_disc(rng, k, 0.05, "jordan-out"),
)


# ---------------------------------------------------------------------------
# Request lists
# ---------------------------------------------------------------------------


def pair_requests(case: PairCase, index: int, predicates=PREDICATES,
                  daugavet: bool = True) -> list[Request]:
    """rho_pair, the relation predicates and (on x) the Daugavet checks;
    bhatia_semrl_witness where BJ orthogonality holds by construction."""
    x, y = case.x, case.y
    reqs = [Request("normderiv.rho_pair", "rhoperp.normderiv", "rho_pair", (x, y), index)]
    reqs += [Request(f"ortho.{p}", "rhoperp.ortho", p, (x, y), index) for p in predicates]
    if case.kind in ORTHOGONAL_KINDS:
        reqs.append(Request("ortho.bhatia_semrl_witness", "rhoperp.ortho",
                            "bhatia_semrl_witness", (x, y), index))
    if daugavet:
        reqs += [
            Request("daugavet.rho_cube_identity", "rhoperp.daugavet",
                    "rho_cube_identity", (x,), index),
            Request("daugavet.module_daugavet_check", "rhoperp.daugavet",
                    "module_daugavet_check", (x, case.alpha, case.beta), index),
            Request("daugavet.operator_daugavet_witness", "rhoperp.daugavet",
                    "operator_daugavet_witness", (x,), index),
        ]
    return reqs


def _pairs_workload(name, cases, **kw) -> Workload:
    reqs = []
    for i, case in enumerate(cases):
        reqs += pair_requests(case, i, **kw)
    return Workload(name, tuple(cases), tuple(reqs))


# (m, n) for small-pairs: every m and every n in 2..8 appears.
SMALL_SHAPES = ((2, 2), (2, 5), (3, 3), (3, 7), (4, 2), (4, 4), (5, 3), (5, 8),
                (6, 6), (6, 2), (7, 4), (7, 7), (8, 3), (8, 8), (2, 8), (8, 5))
SMALL_COPIES = 12


def small_pairs(rng, warm: bool = False) -> Workload:
    shapes = SMALL_SHAPES[2:3] if warm else SMALL_SHAPES * SMALL_COPIES
    cases = []
    for m, n in shapes:
        x = gaussian(rng, m, n)
        cases.append(PairCase("generic", x, gaussian(rng, m, n), 1, *_daugavet_scalars(rng)))
        x = gaussian(rng, m, n)
        cases.append(PairCase("bj", x, bj_partner(rng, x), 1, *_daugavet_scalars(rng)))
        x, y = ip_pair(rng, m, n)
        cases.append(PairCase("ip", x, y, 1, *_daugavet_scalars(rng)))
    return _pairs_workload("small-pairs", cases)


# (m, n, multiplicity of the top singular value) for numrange-boundary.
DEGENERATE_SHAPES = ((4, 4, 2), (5, 5, 3), (6, 6, 4), (4, 6, 2), (6, 4, 3), (8, 8, 4))
DEGENERATE_COPIES = 24
NUMRANGE_SIZES = (3, 4, 5, 6)
# Copies per size of each kind in _NUMRANGE_KINDS.  A Jordan disc through
# 0 takes the slow certificate fallbacks on roughly half of all inputs,
# unpredictably, so its count is kept small next to the rest of the list.
NUMRANGE_COPIES = (64, 32, 16, 32, 16, 16, 16)


def numrange_boundary(rng, warm: bool = False) -> Workload:
    shapes = DEGENERATE_SHAPES[:1] if warm else DEGENERATE_SHAPES * DEGENERATE_COPIES
    cases = []
    for m, n, k in shapes:
        x = degenerate_element(rng, m, n, k)
        cases.append(PairCase("degenerate-generic", x, gaussian(rng, m, n), k))
        x = degenerate_element(rng, m, n, k)
        cases.append(PairCase("degenerate-bj", x, bj_partner(rng, x), k))
    wl = _pairs_workload("numrange-boundary", cases, predicates=PREDICATES[:5],
                         daugavet=False)
    reqs = list(wl.requests)
    for make, copies in zip(_NUMRANGE_KINDS, NUMRANGE_COPIES):
        for k in NUMRANGE_SIZES[:1] if warm else NUMRANGE_SIZES * copies:
            cases.append(make(rng, k))
            reqs.append(Request("stateface.zero_in_numrange", "rhoperp.stateface",
                                "zero_in_numrange", (cases[-1].m,), len(cases) - 1))
    return Workload("numrange-boundary", tuple(cases), tuple(reqs))


# Shapes for large-dense.  The 33 squares from 40x40 to 72x72 give every
# call a spread of costs, so that the median and the tail fall among
# requests of nearby cost, not on a gap between two clusters of them.
LARGE_SHAPES = (((128, 128),) + tuple((n, n) for n in range(40, 73))
                + ((512, 16), (256, 32)))


def large_dense(rng, warm: bool = False) -> Workload:
    shapes = ((16, 16),) if warm else LARGE_SHAPES
    cases = [PairCase("generic", gaussian(rng, m, n), gaussian(rng, m, n), 1,
                      *_daugavet_scalars(rng)) for m, n in shapes]
    return _pairs_workload("large-dense", cases)


def check_suite(rng, names, warm: bool = False) -> Workload:
    """Every property of ``names`` on SUITE_SEEDS seeds drawn from rng."""
    seeds = rng.integers(0, 2**31 - 1, size=1 if warm else SUITE_SEEDS)
    trials = 1 if warm else SUITE_TRIALS
    cases, reqs = [], []
    for seed in seeds:
        for name in names:
            cases.append(SuiteCase(name, int(seed), trials))
            reqs.append(Request(f"verify.property.{name}", "rhoperp.verify", "property_suite",
                                (), len(cases) - 1,
                                {"seed": int(seed), "trials": trials, "names": (name,)}))
    return Workload("check-suite", tuple(cases), tuple(reqs))


WORKLOADS = ("small-pairs", "numrange-boundary", "large-dense", "check-suite")


def build(name: str, seed: int, property_names=(), warm: bool = False) -> Workload:
    """The workload's list for ``seed``; ``warm`` gives a small list with
    one instance of each request kind, drawn from a separate stream.

    The requests run in one fixed shuffled order, the same for every seed,
    so that each kind is spread over the whole run: a slow spell of the
    machine then shifts every kind alike instead of the kinds that
    happened to run during it.
    """
    index = WORKLOADS.index(name)
    rng = np.random.default_rng(np.random.SeedSequence([seed, index, int(warm)]))
    if name == "small-pairs":
        wl = small_pairs(rng, warm)
    elif name == "numrange-boundary":
        wl = numrange_boundary(rng, warm)
    elif name == "large-dense":
        wl = large_dense(rng, warm)
    else:
        wl = check_suite(rng, property_names, warm)
    order = np.random.default_rng(index).permutation(len(wl.requests))
    return Workload(wl.name, wl.cases, tuple(wl.requests[i] for i in order))
