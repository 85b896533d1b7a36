"""Definition-level oracles and the seeded property suite.

The oracles evaluate the defining inequalities by search instead of the
spectral reductions used elsewhere, so they are an independent ground
truth.  They are one-sided: a FALSE return exhibits a concrete violator
and is exact, a TRUE return is evidence at the search resolution.

``property_suite`` replays every documented invariant on seeded random
instances (dimensions 1..6) and returns a deterministic structured
report: per property, the number of trials, failures, and the worst
margin (slack left before the stated tolerance; negative means a
violation).
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .daugavet import (module_daugavet_check, operator_daugavet_witness,
                       rho_cube_identity)
from .hmodule import _as_pair, inner_product, module_action, module_norm
from .matcore import adjoint, hermitian_spectrum, operator_norm
from .normderiv import rho_fd, rho_pair
from .ortho import (bhatia_semrl_witness, is_bj, is_bj_real, is_bj_strong,
                    is_ip_orthogonal, is_norm_parallel, is_rho_orthogonal,
                    m_lower_bound)
from .stateface import (StateWitness, cauchy_schwarz_gap, state_value,
                        top_face, zero_in_numrange)

# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------


def random_element(rng, m: int, n: int) -> np.ndarray:
    """m-by-n matrix with i.i.d. standard complex Gaussian entries."""
    z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return z / np.sqrt(2.0)


def random_degenerate_element(rng, m: int, n: int, multiplicity: int = 2) -> np.ndarray:
    """Random element whose top singular value has exact multiplicity.

    Stress case for faces of dimension >= 2.  Needs min(m, n) >= 2 for a
    nontrivial multiplicity.
    """
    x = random_element(rng, m, n)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    mult = min(multiplicity, len(s))
    s[:mult] = s[0]
    return (u * s) @ vh


def random_state(rng, n: int) -> StateWitness:
    """Random full-rank density matrix."""
    g = random_element(rng, n, n)
    d = g @ g.conj().T
    return StateWitness(d / np.trace(d).real)


def inner_orthogonal_pair(rng, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair with <x, y> = 0: y is projected off the column space of x.

    For m <= n the smallest singular value of x is zeroed first so the
    complement is nontrivial.
    """
    x = random_element(rng, m, n)
    if m <= n:
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        s[-1] = 0.0
        x = (u * s) @ vh
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * (s[0] + 1.0)))
    basis = u[:, :rank]
    z = random_element(rng, m, n)
    y = z - basis @ (basis.conj().T @ z)
    return x, y


def bj_orthogonal_pair(rng, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair that is Birkhoff-James orthogonal by construction.

    For a generic x the top face is one-dimensional, spanned by the top
    right-singular vector v; y is adjusted so that (X v)*(Y v) = 0, which
    puts 0 in the (then scalar) compressed numerical range exactly.
    """
    x = random_element(rng, m, n)
    u, _, vh = np.linalg.svd(x, full_matrices=False)
    v1 = vh[0].conj()
    u1 = u[:, 0]
    z = random_element(rng, m, n)
    w = z @ v1
    y = z - np.outer(u1 * (u1.conj() @ w), v1.conj())
    return x, y


def incomparability_triple() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical 2x2 trio (identity and two diagonal sign patterns)
    separating the rho- and strong Birkhoff-James relations."""
    t = np.eye(2, dtype=np.complex128)
    s = np.diag([-1.0 + 0j, 1.0])
    r = np.diag([-1.0 + 0j, 0.0])
    return t, s, r


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


# The BJ grid oracles scan _ORACLE_GRID magnitudes in [1e-4, _ORACLE_RADIUS]
# (and as many angles); every oracle accepts a minimum down to ||x|| - _ORACLE_TOL.
_ORACLE_RADIUS = 4.0
_ORACLE_GRID = 64
_ORACLE_TOL = 1e-6


def _norms(a):
    """Top singular value of each matrix in a, by numpy's SVD, not matcore's."""
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def _batched_norms(x, lams, y):
    return _norms(x[None, :, :] + lams[:, None, None] * y[None, :, :])


def bj_grid_oracle(x, y) -> bool:
    """Search min ||x + lam y|| over a polar grid of complex lam with local
    refinement; FALSE certifies non-orthogonality, TRUE is evidence."""
    x, y = _as_pair(x, y)
    radii = np.logspace(-4, np.log10(_ORACLE_RADIUS), _ORACLE_GRID)
    angles = np.linspace(0.0, 2.0 * np.pi, _ORACLE_GRID, endpoint=False)
    lams = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    norms = _batched_norms(x, lams, y)
    i = int(np.argmin(norms))
    res = minimize(
        lambda p: _norms(x + (p[0] + 1j * p[1]) * y),
        x0=[lams[i].real, lams[i].imag], method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 400},
    )
    return min(float(norms[i]), float(res.fun)) >= float(_norms(x)) - _ORACLE_TOL


def bj_real_grid_oracle(x, y) -> bool:
    """Real-scalar variant of :func:`bj_grid_oracle`."""
    x, y = _as_pair(x, y)
    mags = np.logspace(-4, np.log10(_ORACLE_RADIUS), _ORACLE_GRID)
    alphas = np.concatenate([-mags[::-1], [0.0], mags])
    norms = _batched_norms(x, alphas.astype(complex), y)
    i = int(np.argmin(norms))
    lo = alphas[max(i - 1, 0)]
    hi = alphas[min(i + 1, len(alphas) - 1)]
    res = minimize_scalar(lambda a: _norms(x + a * y), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-12})
    return min(float(norms[i]), float(res.fun)) >= float(_norms(x)) - _ORACLE_TOL


_PARALLEL_GRID = 720


def parallel_grid_oracle(x, y) -> tuple[float, float]:
    """max_t ||x + e^{it} y|| and a maximizing angle in [0, 2 pi).

    Scans the circle at 720 angles and refines the 16 highest local grid
    maxima by bounded scalar search; the objective is Lipschitz in the
    angle with constant ||y||.  A max_norm short of ||x|| + ||y|| by more
    than the grid error certifies non-parallelism.
    """
    x, y = _as_pair(x, y)
    thetas = np.linspace(0.0, 2.0 * np.pi, _PARALLEL_GRID, endpoint=False)
    vals = _batched_norms(x, np.exp(1j * thetas), y)
    step = 2.0 * np.pi / _PARALLEL_GRID
    local = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    local = local[np.argsort(-vals[local], kind="stable")][:16]
    best_t, best_v = float(thetas[np.argmax(vals)]), float(np.max(vals))
    for i in local:
        res = minimize_scalar(lambda t: -_norms(x + np.exp(1j * t) * y),
                              bounds=(thetas[i] - step, thetas[i] + step),
                              method="bounded", options={"xatol": 1e-12})
        if -res.fun > best_v:
            best_t, best_v = float(res.x), float(-res.fun)
    return best_v, best_t % (2.0 * np.pi)


# Gaussian algebra elements per scale and the seed they are drawn from.
_SAMPLES_PER_SCALE = 50
_SAMPLE_SEED = 7


def strong_bj_sample_oracle(x, y) -> bool:
    """Search min ||x + y a|| over sampled algebra elements.

    Samples 50 Gaussian a at each of four scales, from a fixed seed, plus
    the aimed one-parameter family a = -c <y, x>, the canonical violator
    direction.  FALSE certifies a violation, TRUE is sampling evidence.
    """
    x, y = _as_pair(x, y)
    rng = np.random.default_rng(_SAMPLE_SEED)
    n = x.shape[1]
    best = np.inf
    for scale in (1e-2, 1e-1, 1.0, 10.0):
        a = scale * (rng.standard_normal((_SAMPLES_PER_SCALE, n, n))
                     + 1j * rng.standard_normal((_SAMPLES_PER_SCALE, n, n))) / np.sqrt(2.0)
        best = min(best, float(_norms(x[None] + np.matmul(y, a)).min()))
    aimed = _batched_norms(x, -np.logspace(-3.0, 1.0, 49), y @ (y.conj().T @ x))
    return min(best, float(aimed.min())) >= float(_norms(x)) - _ORACLE_TOL


# ---------------------------------------------------------------------------
# Property suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    failures: int
    worst_margin: float | None
    # wall time of the property; not part of its outcome, so == ignores it
    seconds: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    trials: int
    results: tuple[PropertyResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.failures == 0 for r in self.results)

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "all_pass": self.all_pass,
            "properties": [asdict(r) for r in self.results],
        }

    def to_json(self) -> str:
        """The document ``rhoperp check`` prints."""
        return json.dumps(self.to_payload(), indent=2)


# (name, check) in suite order; check(rng, trials) returns (trials, failures,
# worst margin or None).  The position of a property sets its child stream.
_PROPERTIES = []


def _property(name):
    """Register ``check(rng, trials)``, which counts its own failures."""
    def register(check):
        _PROPERTIES.append((name, check))
        return check
    return register


def _margin_property(name, cap=None):
    """Register ``one(rng)``, which draws one instance and returns its
    margin(s), run on min(trials, cap) instances; a margin below 0 fails."""
    def register(one):
        def check(rng, trials):
            trials = trials if cap is None else min(trials, cap)
            worst = np.inf
            failures = 0
            for _ in range(trials):
                for v in np.atleast_1d(one(rng)):
                    v = float(v)
                    worst = min(worst, v)
                    failures += v < 0.0
            return trials, int(failures), worst
        _PROPERTIES.append((name, check))
        return one
    return register


def _dims(rng, lo=1, hi=6):
    return int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))


def _gaussian_pair(rng, lo=1):
    """Two Gaussian elements of one random shape, m and n in lo..6."""
    m, n = _dims(rng, lo)
    return random_element(rng, m, n), random_element(rng, m, n)


def _mixed_pair(rng, i):
    """Gaussian (i = 0, 1 mod 4), ip- (2) or BJ-orthogonal (3), m and n in 2..6."""
    if i % 4 < 2:
        return _gaussian_pair(rng, 2)
    return (inner_orthogonal_pair if i % 4 == 2 else bj_orthogonal_pair)(rng, *_dims(rng, 2, 6))


@_margin_property("norm-submultiplicative")
def _norm_submultiplicative(rng):
    p, q = _dims(rng)
    r = int(rng.integers(1, 7))
    a, b = random_element(rng, p, q), random_element(rng, q, r)
    return operator_norm(a) * operator_norm(b) + 1e-9 - operator_norm(a @ b)


@_margin_property("cstar-identity")
def _cstar_identity(rng):
    a = random_element(rng, *_dims(rng))
    na = operator_norm(a)
    return 1e-9 * (1.0 + na ** 2) - abs(operator_norm(adjoint(a) @ a) - na ** 2)


@_margin_property("spectral-reconstruction")
def _spectral_reconstruction(rng):
    n = int(rng.integers(1, 7))
    g = random_element(rng, n, n)
    h = (g + g.conj().T) / 2.0
    spec = hermitian_spectrum(h)
    back = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    return 1e-9 * (1.0 + operator_norm(h)) - operator_norm(back - h)


@_margin_property("inner-product-axioms")
def _inner_product_axioms(rng):
    x, y = _gaussian_pair(rng)
    a = random_element(rng, x.shape[1], x.shape[1])
    scale = 1.0 + module_norm(x) * module_norm(y)
    sym = operator_norm(adjoint(inner_product(x, y)) - inner_product(y, x))
    psd = float(hermitian_spectrum(inner_product(x, x)).eigenvalues[-1])
    act = operator_norm(inner_product(x, module_action(y, a))
                        - inner_product(x, y) @ a)
    return [1e-12 * scale - sym, psd + 1e-10,
            1e-10 * scale * (1.0 + operator_norm(a)) - act]


@_margin_property("module-norm-consistency")
def _module_norm_consistency(rng):
    x = random_element(rng, *_dims(rng))
    via_gram = np.sqrt(operator_norm(inner_product(x, x)))
    return 1e-10 * (1.0 + module_norm(x)) - abs(module_norm(x) - via_gram)


@_margin_property("cauchy-schwarz-norm")
def _cauchy_schwarz_norm(rng):
    x, y = _gaussian_pair(rng)
    return module_norm(x) * module_norm(y) + 1e-9 - operator_norm(inner_product(x, y))


@_margin_property("cauchy-schwarz-state-gap")
def _cauchy_schwarz_state_gap(rng):
    x, y = _gaussian_pair(rng)
    p = random_state(rng, x.shape[1])
    scale = 1.0 + (module_norm(x) * module_norm(y)) ** 2
    return cauchy_schwarz_gap(p, x, y) + 1e-9 * scale


@_margin_property("face-attains-norm")
def _face_attains_norm(rng):
    m, n = _dims(rng, 2, 6)
    x = random_element(rng, m, n) if rng.integers(2) else random_degenerate_element(rng, m, n)
    face = top_face(x)
    q = random_state(rng, face.dim)
    p = StateWitness(face.isometry @ q.density @ face.isometry.conj().T)
    val = state_value(p, inner_product(x, x)).real
    n2 = module_norm(x) ** 2
    return 1e-8 * (1.0 + n2) - abs(val - n2)


@_margin_property("off-face-deficit")
def _off_face_deficit(rng):
    m, n = _dims(rng, 2, 6)
    x = random_element(rng, m, n)
    face = top_face(x)
    if face.dim >= n:
        return 1.0
    spec = hermitian_spectrum(inner_product(x, x))
    off = spec.eigenvectors[:, face.dim]
    mass = rng.uniform(0.1, 0.9)
    q = random_state(rng, face.dim)
    on_face = face.isometry @ q.density @ face.isometry.conj().T
    p = StateWitness((1.0 - mass) * on_face + mass * np.outer(off, off.conj()))
    val = state_value(p, inner_product(x, x)).real
    return (module_norm(x) ** 2 - face.gap * mass / 2.0) - val


@_margin_property("rho-p1")
def _rho_p1(rng):
    x, y = _gaussian_pair(rng)
    nx, ny = module_norm(x), module_norm(y)
    pair = rho_pair(x, y)
    self_pair = rho_pair(x, x)
    scale = 1.0 + nx * ny
    return [pair.rho_plus - pair.rho_minus + 1e-10,
            nx * ny + 1e-8 * scale - abs(pair.rho_plus),
            nx * ny + 1e-8 * scale - abs(pair.rho_minus),
            1e-8 * (1.0 + nx ** 2) - abs(self_pair.rho_plus - nx ** 2),
            1e-8 * (1.0 + nx ** 2) - abs(self_pair.rho_minus - nx ** 2)]


@_margin_property("rho-p2")
def _rho_p2(rng):
    x, y = _gaussian_pair(rng)
    tol = 1e-8 * (1.0 + module_norm(x) * module_norm(y))
    p = rho_pair(x, y)
    p_negx = rho_pair(-x, y)
    p_negy = rho_pair(x, -y)
    return [tol - abs(p_negx.rho_plus + p.rho_minus),
            tol - abs(p_negy.rho_plus + p.rho_minus),
            tol - abs(p_negx.rho_minus + p.rho_plus),
            tol - abs(p_negy.rho_minus + p.rho_plus)]


@_margin_property("rho-p3")
def _rho_p3(rng):
    x, y = _gaussian_pair(rng)
    alpha = complex(rng.standard_normal(), rng.standard_normal())
    nx = module_norm(x)
    base = rho_pair(x, y)
    shifted = rho_pair(x, alpha * x + y)
    tol = 1e-8 * (1.0 + nx * module_norm(y) + abs(alpha) * nx ** 2)
    return [tol - abs(shifted.rho_plus - (alpha.real * nx ** 2 + base.rho_plus)),
            tol - abs(shifted.rho_minus - (alpha.real * nx ** 2 + base.rho_minus))]


@_margin_property("rho-p4")
def _rho_p4(rng):
    x, y = _gaussian_pair(rng)
    alpha = complex(rng.standard_normal(), rng.standard_normal()) + 0.2
    beta = complex(rng.standard_normal(), rng.standard_normal()) + 0.2
    phase = np.exp(1j * (np.angle(beta) - np.angle(alpha)))
    lhs = rho_pair(alpha * x, beta * y)
    rhs = rho_pair(x, phase * y)
    mod = abs(alpha * beta)
    tol = 1e-8 * (1.0 + mod * (1.0 + module_norm(x) * module_norm(y)))
    return [tol - abs(lhs.rho_plus - mod * rhs.rho_plus),
            tol - abs(lhs.rho_minus - mod * rhs.rho_minus)]


@_margin_property("rho-p5")
def _rho_p5(rng):
    x, y = _gaussian_pair(rng)
    base = rho_pair(x, y).rho_plus
    d = [rho_pair(x + t * y, y).rho_plus - base for t in (1e-2, 1e-4, 1e-6)]
    fuzz = 1e-9 * (1.0 + module_norm(x) * module_norm(y))
    return [d[0] - d[1] + fuzz, d[1] - d[2] + fuzz, d[2] + fuzz,
            1e-4 * (1.0 + module_norm(y) ** 2) - abs(d[2])]


@_margin_property("rho-closed-vs-fd")
def _rho_closed_vs_fd(rng):
    x, y = _gaussian_pair(rng)
    pair = rho_pair(x, y)
    tol = 1e-5 * (1.0 + module_norm(x) * module_norm(y))
    return [tol - abs(rho_fd(x, y, "+") - pair.rho_plus),
            tol - abs(rho_fd(x, y, "-") - pair.rho_minus)]


@_margin_property("rho-witness-attainment")
def _rho_witness_attainment(rng):
    m, n = _dims(rng, 2, 6)
    x = random_element(rng, m, n) if rng.integers(2) else random_degenerate_element(rng, m, n)
    y = random_element(rng, m, n)
    pair = rho_pair(x, y)
    ip = inner_product(x, y)
    gram = inner_product(x, x)
    n2 = module_norm(x) ** 2
    tol = 1e-9 * (1.0 + module_norm(x) * module_norm(y))
    out = []
    for w, target in ((pair.max_witness, pair.rho_plus), (pair.min_witness, pair.rho_minus)):
        out.append(tol - abs(state_value(w, ip).real - target))
        out.append(1e-8 * (1.0 + n2) - abs(state_value(w, gram).real - n2))
    return out


@_margin_property("cube-identity")
def _cube_identity(rng):
    m, n = _dims(rng, 2, 6)
    x = random_element(rng, m, n) if rng.integers(2) else random_degenerate_element(rng, m, n)
    rep = rho_cube_identity(x)
    n4 = rep.norm_fourth
    return [1e-8 * n4 - rep.max_deviation, 1e-8 * n4 - rep.witness_square_residual]


@_margin_property("daugavet-equation")
def _daugavet_equation(rng):
    x = random_element(rng, *_dims(rng))
    out = []
    for alpha, beta in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.1)):
        rep = module_daugavet_check(x, alpha, beta)
        out.append(1e-9 * rep.rhs - rep.residual)
        out.append(1e-9 * module_norm(x) ** 3 - rep.cube_norm_residual)
    return out


@_margin_property("daugavet-scaling")
def _daugavet_scaling(rng):
    x = random_element(rng, *_dims(rng))
    c = complex(rng.standard_normal(), rng.standard_normal()) + 0.3
    alpha, beta = 1.0, 0.7
    base = module_daugavet_check(x, alpha, beta)
    scaled = module_daugavet_check(c * x, alpha, beta / abs(c) ** 2)
    return 1e-9 * scaled.rhs - abs(scaled.residual - abs(c) * base.residual)


@_margin_property("daugavet-parallel", cap=120)
def _daugavet_parallel(rng):
    x = random_element(rng, *_dims(rng))
    y = module_action(x, inner_product(x, x))
    rep = is_norm_parallel(x, y)
    if not rep.holds:
        return -1.0
    target = module_norm(x) + module_norm(y)
    max_norm, _ = parallel_grid_oracle(x, y)
    return [1e-6 - abs(rep.witness - 1.0),
            1e-9 * (1.0 + target) - (target - max_norm)]


@_margin_property("operator-witness")
def _operator_witness(rng):
    t = random_element(rng, *_dims(rng))
    rep = operator_daugavet_witness(t)
    nt, n3 = rep.norm_t, rep.norm_t ** 3
    return [1e-8 * nt - rep.attainment_residual, 1e-8 * n3 - rep.cube_attainment_residual,
            1e-8 - rep.alignment_residual, 1e-8 * (nt + n3) - rep.equation_residual]


def _oracle_disagreements(rng, trials, predicate, oracle):
    """Pairs on which the predicate holds at tol 1e-9 but the oracle
    exhibits a violator."""
    pairs = [_mixed_pair(rng, i) for i in range(min(trials, 100))]
    failures = sum(predicate(x, y, tol=1e-9).holds and not oracle(x, y) for x, y in pairs)
    return len(pairs), int(failures), None


@_property("bj-vs-grid-oracle")
def _bj_vs_grid_oracle(rng, trials):
    return _oracle_disagreements(rng, trials, is_bj, bj_grid_oracle)


@_property("bj-real-vs-grid-oracle")
def _bj_real_vs_grid_oracle(rng, trials):
    return _oracle_disagreements(rng, trials, is_bj_real, bj_real_grid_oracle)


@_property("strong-vs-sampling-oracle")
def _strong_vs_sampling_oracle(rng, trials):
    t, s, r = incomparability_triple()
    cases = [(t, s, False), (t, r, True)]
    cases += [(*_mixed_pair(rng, i), None) for i in range(min(trials, 100))]
    failures = 0
    for x, y, expected in cases:
        ours = is_bj_strong(x, y, tol=1e-9).holds
        failures += ours and not strong_bj_sample_oracle(x, y)
        failures += expected is not None and ours != expected
    return len(cases), int(failures), None


CHAIN_PREDICATES = (is_ip_orthogonal, is_bj_strong, is_bj, is_bj_real, is_rho_orthogonal)
# (stronger, weaker): ip => bj-strong => bj => bj-real and ip => rho => bj-real.
CHAIN_EDGES = ((is_ip_orthogonal, is_bj_strong), (is_bj_strong, is_bj), (is_bj, is_bj_real),
               (is_ip_orthogonal, is_rho_orthogonal), (is_rho_orthogonal, is_bj_real))
# Rounding allowed in the margin order: 4 ulp of 1, the unit-pair margins' scale.
CHAIN_SLACK = 4.0 * np.finfo(float).eps


@_property("implication-chains")
def _implication_chains(rng, trials):
    """m_strong <= m_weak + CHAIN_SLACK on every edge: as every predicate
    decides holds == (margin >= -tol), that is each implication at one tol."""
    triple = incomparability_triple()
    pairs = [(triple[0], triple[1]), (triple[0], triple[2])]
    pairs += [_mixed_pair(rng, i) for i in range(trials)]
    margins = [{pred: pred(x, y).margin for pred in CHAIN_PREDICATES} for x, y in pairs]
    slack = CHAIN_SLACK + np.array([m[w] - m[s] for m in margins for s, w in CHAIN_EDGES])
    return len(pairs), int(np.sum(slack < 0.0)), float(slack.min())


@_margin_property("bj-norm-lower-bound", cap=120)
def _bj_norm_lower_bound(rng):
    x, y = bj_orthogonal_pair(rng, *_dims(rng, 2, 6))
    if not is_bj(x, y).holds:
        return -1.0
    my = m_lower_bound(y)
    r = 2.0 * np.sqrt(rng.uniform(0.0, 1.0, size=100))
    lams = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=100))
    norms = _batched_norms(x, lams, y)
    slack = norms ** 2 - module_norm(x) ** 2 - np.abs(lams) ** 2 * my
    return float(slack.min()) + 1e-8


@_property("relation-homogeneity")
def _relation_homogeneity(rng, trials):
    """Verdicts on (c x, d y) equal those on (x, y), for |c|, |d| drawn
    log-uniformly over 10^[-150, 150] with random phases; a warning or a
    raise on the rescaled pair counts as a failure."""
    trials = min(trials, 100)
    failures = 0
    predicates = (is_ip_orthogonal, is_bj, is_bj_real, is_bj_strong, is_rho_orthogonal,
                  is_norm_parallel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in range(trials):
            x, y = _mixed_pair(rng, i)
            c, d = 10.0 ** rng.uniform(-150.0, 150.0, size=2) * np.exp(
                1j * rng.uniform(0.0, 2.0 * np.pi, size=2))
            for pred in predicates:
                try:
                    failures += pred(x, y).holds != pred(c * x, d * y).holds
                except (ArithmeticError, ValueError, RuntimeWarning):
                    failures += 1
    return trials, int(failures), None


@_margin_property("numrange-grid-agreement", cap=200)
def _numrange_grid_agreement(rng):
    k = int(rng.choice([2, 3, 5]))
    m = random_element(rng, k, k)
    res = zero_in_numrange(m)
    ph = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)).reshape(-1, 1, 1)
    g_scan = float(np.linalg.eigvalsh((ph * m + ph.conj() * m.conj().T) / 2.0)[:, -1].min())
    nrm = operator_norm(m)
    # The margin is the support function evaluated at its minimum, so
    # it lies at or below the scan's minimum (up to rounding) and within
    # the 4096-angle grid's Lipschitz error ||M|| pi / 4096 of it.
    band = nrm * np.pi / 4096 + 1e-9 * (1.0 + nrm)
    if g_scan > band and not res.contains_zero:
        return -1.0
    if g_scan < -band and res.contains_zero:
        return -1.0
    return [band - abs(res.margin - g_scan), g_scan + 1e-12 * (1.0 + nrm) - res.margin]


@_margin_property("numrange-rotation-consistency", cap=100)
def _numrange_rotation_consistency(rng):
    k = int(rng.choice([2, 3, 4]))
    m = random_element(rng, k, k)
    res1 = zero_in_numrange(m)
    if not res1.contains_zero:
        return 1.0
    res2 = zero_in_numrange(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * m)
    if not res2.contains_zero:
        return -1.0
    tol_abs = 1e-9 * (1.0 + operator_norm(m))
    return min(tol_abs - res1.residual, tol_abs - res2.residual)


def _witness_margins(x, y):
    """Slacks of every TRUE report's defining equations at 1e-8."""
    out = []
    nx, ny = module_norm(x), module_norm(y)
    n2 = nx ** 2
    ip = inner_product(x, y)
    gram = inner_product(x, x)
    bj, bj_real = is_bj(x, y), is_bj_real(x, y)
    checks = (
        (bj, lambda w: abs(state_value(w, ip))),
        (bj_real, lambda w: abs(state_value(w, ip).real)),
        (is_bj_strong(x, y), lambda w: abs(state_value(w, ip @ adjoint(ip)).real)),
    )
    for rep, annihilation in checks:
        if not rep.holds or rep.witness is None:
            continue
        out.append(1e-8 * (1.0 + n2) - abs(state_value(rep.witness, gram).real - n2))
        out.append(1e-8 * (1.0 + nx * ny + (nx * ny) ** 2) - annihilation(rep.witness))
    for real, rep in ((False, bj), (True, bj_real)):
        if not rep.holds:
            continue
        v = bhatia_semrl_witness(x, y, real=real)
        xv, yv = x @ v, y @ v
        cross = xv.conj() @ yv
        out.append(1e-8 * (1.0 + nx) - abs(float(np.linalg.norm(xv)) - nx))
        out.append(1e-8 * (1.0 + nx * ny) - abs(cross.real if real else cross))
    return out


@_margin_property("witness-validity", cap=120)
def _witness_validity(rng):
    x, y = _mixed_pair(rng, int(rng.integers(0, 4)))
    return _witness_margins(x, y) or [1.0]


@_property("two-by-two-reference")
def _two_by_two_reference(rng, trials):
    t, s, r = incomparability_triple()
    pair_s = rho_pair(t, s)
    pair_r = rho_pair(t, r)
    margins = [1e-9 - abs(pair_s.rho_plus - 1.0),
               1e-9 - abs(pair_s.rho_minus + 1.0),
               1e-9 - abs(pair_r.rho_plus - 0.0),
               1e-9 - abs(pair_r.rho_minus + 1.0)]
    table = [
        (is_rho_orthogonal(t, s).holds, True),
        (is_ip_orthogonal(t, s).holds, False),
        (is_rho_orthogonal(t, r).holds, False),
        (is_bj_real(t, r).holds, True),
        (is_bj_strong(t, s).holds, False),
        (is_bj_strong(t, r).holds, True),
        (is_bj(t, r).holds, True),
        (is_bj(t, s).holds, True),
    ]
    failures = sum(got != want for got, want in table) + sum(m < 0 for m in margins)
    return 1, int(failures), float(min(margins))


@_property("incomparability")
def _incomparability(rng, trials):
    t, s, r = incomparability_triple()
    rho_not_strong = is_rho_orthogonal(t, s).holds and not is_bj_strong(t, s).holds
    strong_not_rho = is_bj_strong(t, r).holds and not is_rho_orthogonal(t, r).holds
    failures = (not rho_not_strong) + (not strong_not_rho)
    return 1, int(failures), None


def property_names() -> tuple[str, ...]:
    """Names of all suite properties, in registry order."""
    return tuple(name for name, _ in _PROPERTIES)


def property_suite(seed: int = 0, trials: int = 200, names=None) -> SuiteReport:
    """Run the invariant suite on seeded random instances.

    Deterministic for a fixed seed: the property at registry index i draws
    from ``SeedSequence(seed, spawn_key=(i,))``, the i-th child of the seed,
    so a subset (``names``) reproduces the full run's numbers; a str, empty or
    unknown names, or a non-integer or non-positive ``trials`` raise ValueError
    before any property runs.  Expensive searches cap their own trial counts.
    Each result carries the wall time of its property in ``seconds``
    (``time.perf_counter``), the one field that varies between runs.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if isinstance(names, str):
        raise ValueError(f"names must be a collection of names, not the string {names!r}")
    index = {name: i for i, (name, _) in enumerate(_PROPERTIES)}
    wanted = index.keys() if names is None else set(names)
    if not wanted <= index.keys():
        raise ValueError(f"unknown properties: {sorted(wanted - index.keys())}")
    if not wanted:
        raise ValueError("no property selected")
    results = []
    for i in sorted(index[name] for name in wanted):
        name, check = _PROPERTIES[i]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        start = time.perf_counter()
        outcome = check(rng, trials)
        results.append(PropertyResult(name, *outcome, seconds=time.perf_counter() - start))
    return SuiteReport(seed=seed, trials=trials, results=tuple(results))
