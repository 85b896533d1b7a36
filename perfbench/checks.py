"""Output checks that are independent of the program under test.

Every check recomputes what it needs from the inputs with numpy: norms
from singular values, one-sided derivatives from the benchmark's own
difference quotients, the top face of <x, x> from its own eigensolve,
and numerical ranges from the construction of the input.  A negative
Birkhoff-James verdict must come with a step that lowers the norm.

Each ``check_*`` function returns a list of problems; empty means the
output is accepted.  The program's outputs are read by attribute only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Attainment of a state or a witness vector, relative to the natural scale.
WITNESS_TOL = 1e-8
# Agreement of rho_+/- with the difference quotients.
RHO_TOL = 1e-6
# zero_in_numrange's default decision tolerance.
NUMRANGE_TOL = 1e-9
# Own first-order values closer to 0 than this (relative) cannot decide a
# verdict; either answer is accepted there.
UNDECIDED = 1e-6
# A step counts as lowering the norm when it does so by this much (relative).
DECREASE = 1e-13


def norm2(a) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _herm(a):
    return (a + a.conj().T) / 2.0


def density_problems(p, n: int) -> list[str]:
    """Problems with ``p`` as an n-by-n density matrix."""
    p = np.asarray(p)
    if p.shape != (n, n):
        return [f"density of shape {p.shape}, expected {(n, n)}"]
    if norm2(p - p.conj().T) > 1e-10 * (1.0 + norm2(p)):
        return ["density is not Hermitian"]
    out = []
    if np.linalg.eigvalsh(_herm(p))[0] < -1e-10:
        out.append("density is not positive")
    if abs(np.trace(p).real - 1.0) > 1e-10:
        out.append("density trace is not 1")
    return out


def _state(p, a) -> complex:
    return complex(np.trace(np.asarray(p) @ a))


@dataclass
class PairTruth:
    """Facts about (x, y) computed apart from the program, once per pair."""

    x: np.ndarray
    y: np.ndarray

    @cached_property
    def nx(self) -> float:
        return norm2(self.x)

    @cached_property
    def ny(self) -> float:
        return norm2(self.y)

    @cached_property
    def scale(self) -> float:
        return 1.0 + self.nx * self.ny

    @cached_property
    def gram(self) -> np.ndarray:
        return self.x.conj().T @ self.x

    @cached_property
    def ip(self) -> np.ndarray:
        return self.x.conj().T @ self.y

    @cached_property
    def face(self) -> np.ndarray:
        """Isometry onto the eigenvectors of <x, x> within 1e-9 (relative)
        of its top eigenvalue."""
        vals, vecs = np.linalg.eigh(_herm(self.gram))
        return vecs[:, vals >= (1.0 - 1e-9) * vals[-1]]

    @cached_property
    def compression(self) -> np.ndarray:
        """V* <x, y> V on the own face."""
        return self.face.conj().T @ self.ip @ self.face

    def quotient(self, t: float) -> float:
        """(||x + t y||^2 - ||x||^2) / (2 t)."""
        return (norm2(self.x + t * self.y) ** 2 - self.nx ** 2) / (2.0 * t)

    @cached_property
    def rho_fd(self) -> tuple[float, float]:
        """(rho_+, rho_-) from one-sided difference quotients with one
        Richardson step, which cancels the term linear in t."""
        h = 1e-5 * self.nx / self.ny
        plus = 2.0 * self.quotient(h / 2.0) - self.quotient(h)
        minus = 2.0 * self.quotient(-h / 2.0) - self.quotient(-h)
        return plus, minus

    def lowers_norm(self, step) -> bool:
        """True if ||x + step(s)|| < ||x|| for some s = 2^-k, k = 0..60."""
        for k in range(61):
            if norm2(self.x + step(2.0 ** -k)) < self.nx * (1.0 - DECREASE):
                return True
        return False

    def support(self, theta: float) -> float:
        """lambda_max(Re(e^{i theta} V* <x, y> V))."""
        return float(np.linalg.eigvalsh(_herm(np.exp(1j * theta) * self.compression))[-1])

    @cached_property
    def numerical_radius(self) -> tuple[float, float]:
        """Lower and upper bounds on the numerical radius of the compression
        (exact for a 1-dim face; a 2048-angle scan plus its Lipschitz error
        otherwise)."""
        c = self.compression
        if c.shape[0] == 1:
            r = abs(complex(c[0, 0]))
            return r, r
        thetas = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
        ph = np.exp(1j * thetas)[:, None, None]
        lo = float(np.linalg.eigvalsh((ph * c + ph.conj() * c.conj().T) / 2.0)[:, -1].max())
        return lo, lo + norm2(c) * np.pi / 2048

    @cached_property
    def real_value(self) -> float:
        """min(lambda_max, -lambda_min) of the Hermitian part of the
        compression, over 1 + ||x|| ||y||: >= 0 iff BJ-real holds."""
        vals = np.linalg.eigvalsh(_herm(self.compression))
        return min(vals[-1], -vals[0]) / self.scale

    @cached_property
    def strong_value(self) -> float:
        """lambda_min(V* <x,y><y,x> V): zero iff strong BJ holds."""
        return float(np.linalg.eigvalsh(_herm(self.compression_pos))[0])

    @cached_property
    def compression_pos(self) -> np.ndarray:
        return self.face.conj().T @ self.ip @ self.ip.conj().T @ self.face


# ---------------------------------------------------------------------------
# Per-request checks
# ---------------------------------------------------------------------------


def _state_problems(p, t: PairTruth, what: str) -> list[str]:
    """p is a density attaining ||x||^2 on <x, x>."""
    out = density_problems(p, t.x.shape[1])
    if out:
        return [f"{what}: {s}" for s in out]
    n2 = t.nx ** 2
    if abs(_state(p, t.gram).real - n2) > WITNESS_TOL * (1.0 + n2):
        out.append(f"{what}: phi(<x,x>) != ||x||^2")
    return out


def check_rho_pair(out, t: PairTruth) -> list[str]:
    plus, minus = t.rho_fd
    tol = RHO_TOL * t.scale
    probs = []
    if abs(out.rho_plus - plus) > tol:
        probs.append(f"rho_plus {out.rho_plus!r} vs difference quotient {plus!r}")
    if abs(out.rho_minus - minus) > tol:
        probs.append(f"rho_minus {out.rho_minus!r} vs difference quotient {minus!r}")
    for w, val, name in ((out.max_witness, out.rho_plus, "max witness"),
                         (out.min_witness, out.rho_minus, "min witness")):
        if w is None:
            probs.append(f"{name} missing")
            continue
        probs += _state_problems(w.density, t, name)
        if abs(_state(w.density, t.ip).real - val) > WITNESS_TOL * t.scale:
            probs.append(f"{name} does not attain its derivative")
    return probs


def check_ip(out, t: PairTruth) -> list[str]:
    r = norm2(t.ip) / t.scale
    if r <= 1e-12 and not out.holds:
        return [f"ip: <x,y> = 0 (relative {r:.1e}) but verdict false"]
    if r >= 1e-7 and out.holds:
        return [f"ip: ||<x,y>|| = {r:.1e} (relative) but verdict true"]
    return []


def check_bj(out, t: PairTruth) -> list[str]:
    if out.holds:
        if out.witness is None:
            return ["bj: positive verdict without witness"]
        probs = _state_problems(out.witness.density, t, "bj witness")
        if abs(_state(out.witness.density, t.ip)) > WITNESS_TOL * t.scale:
            probs.append("bj witness does not annihilate <x,y>")
        return probs
    theta = out.data.get("separating_angle")
    if theta is None:
        return ["bj: negative verdict without separating angle"]
    g = t.support(theta)
    if g >= -1e-12 * t.scale:
        return [f"bj: angle {theta!r} does not separate 0 (support {g:.3e})"]
    if g < -UNDECIDED * t.scale:
        c = np.exp(1j * theta) * t.nx / t.ny
        if not t.lowers_norm(lambda s: s * c * t.y):
            return [f"bj: no step c = s e^(i {theta:.6f}) lowers ||x + c y||"]
    return []


def check_bj_real(out, t: PairTruth) -> list[str]:
    plus, minus = t.rho_fd
    own = min(plus, -minus) / t.scale
    if out.holds:
        if own < -UNDECIDED:
            return [f"bj-real: verdict true but rho_- = {minus!r}, rho_+ = {plus!r}"]
        if out.witness is None:
            return ["bj-real: positive verdict without witness"]
        probs = _state_problems(out.witness.density, t, "bj-real witness")
        if abs(_state(out.witness.density, t.ip).real) > WITNESS_TOL * t.scale:
            probs.append("bj-real witness: Re phi(<x,y>) != 0")
        return probs
    if own > UNDECIDED or t.real_value >= -1e-12:
        return [f"bj-real: verdict false but rho_- = {minus!r} <= 0 <= rho_+ = {plus!r}"]
    if own < -UNDECIDED:
        sign = 1.0 if plus < 0.0 else -1.0
        if not t.lowers_norm(lambda s: sign * s * (t.nx / t.ny) * t.y):
            return ["bj-real: no real step lowers ||x + c y||"]
    return []


def check_bj_strong(out, t: PairTruth) -> list[str]:
    scale2 = 1.0 + (t.nx * t.ny) ** 2
    if out.holds:
        if out.witness is None:
            return ["bj-strong: positive verdict without witness"]
        probs = _state_problems(out.witness.density, t, "bj-strong witness")
        if abs(_state(out.witness.density, t.ip @ t.ip.conj().T)) > WITNESS_TOL * scale2:
            probs.append("bj-strong witness does not annihilate <x,y><y,x>")
        return probs
    if t.strong_value <= 1e-12 * scale2:
        return ["bj-strong: a face state annihilates <x,y><y,x> but verdict false"]
    if t.strong_value / scale2 > UNDECIDED:
        yx = t.ip.conj().T
        if not t.lowers_norm(lambda s: -s / t.ny ** 2 * (t.y @ yx)):
            return ["bj-strong: no step a = -s <y,x> lowers ||x + y a||"]
    return []


def check_rho_orthogonal(out, t: PairTruth) -> list[str]:
    plus, minus = t.rho_fd
    r = abs(plus + minus) / t.scale
    if r <= 1e-7 and not out.holds:
        return [f"rho: rho_+ + rho_- = {plus + minus:.1e} but verdict false"]
    if r >= 1e-5 and out.holds:
        return [f"rho: rho_+ + rho_- = {plus + minus:.1e} but verdict true"]
    return []


def check_norm_parallel(out, t: PairTruth) -> list[str]:
    target = t.nx + t.ny
    lo, hi = t.numerical_radius
    nn = t.nx * t.ny
    if out.holds:
        xi = complex(out.witness)
        if abs(abs(xi) - 1.0) > 1e-12:
            return ["parallel: witness is not unit"]
        if norm2(t.x + xi * t.y) < target - 1e-7 * (1.0 + target):
            return ["parallel: ||x + xi y|| < ||x|| + ||y||"]
        if hi < nn * (1.0 - UNDECIDED):
            return ["parallel: verdict true but numerical radius < ||x|| ||y||"]
        return []
    if lo >= nn * (1.0 - 1e-12):
        return ["parallel: verdict false but numerical radius = ||x|| ||y||"]
    got = norm2(t.x + np.exp(1j * out.data["angle"]) * t.y)
    if abs(got - out.data["max_norm"]) > 1e-9 * (1.0 + target):
        return ["parallel: reported max_norm is not attained at the reported angle"]
    return []


def check_bhatia(out, t: PairTruth) -> list[str]:
    v = np.asarray(out)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        return ["bhatia-semrl: vector is not unit"]
    xv, yv = t.x @ v, t.y @ v
    probs = []
    if abs(np.linalg.norm(xv) - t.nx) > WITNESS_TOL * (1.0 + t.nx):
        probs.append("bhatia-semrl: ||X v|| != ||X||")
    if abs(complex(xv.conj() @ yv)) > WITNESS_TOL * t.scale:
        probs.append("bhatia-semrl: [X v, Y v] != 0")
    return probs


def check_cube(out, t: PairTruth) -> list[str]:
    n4 = t.nx ** 4
    tol = WITNESS_TOL * (1.0 + n4)
    probs = []
    if abs(out.rho_plus - n4) > tol or abs(out.rho_minus - n4) > tol:
        probs.append(f"cube identity: rho != ||x||^4 = {n4!r}")
    if not out.within_tol:
        probs.append("cube identity: report says not within tol")
    square = t.gram @ t.gram
    for w in (out.max_witness, out.min_witness):
        if w is None:
            probs.append("cube identity: witness missing")
            continue
        probs += _state_problems(w.density, t, "cube witness")
        if abs(_state(w.density, square).real - n4) > tol:
            probs.append("cube witness: phi(<x,x>^2) != ||x||^4")
    return probs


def check_module_daugavet(out, t: PairTruth, alpha: float, beta: float) -> list[str]:
    own = norm2(alpha * t.x + beta * (t.x @ t.gram))
    rhs = alpha * t.nx + beta * t.nx ** 3
    tol = 1e-9 * (1.0 + rhs)
    probs = []
    if abs(own - rhs) > tol:
        probs.append("daugavet: ||a x + b x<x,x>|| != a||x|| + b||x||^3 (own)")
    if abs(out.lhs - own) > tol or abs(out.rhs - rhs) > tol:
        probs.append(f"daugavet: reported lhs/rhs {out.lhs!r}/{out.rhs!r} vs {own!r}/{rhs!r}")
    if not out.within_tol:
        probs.append("daugavet: report says not within tol")
    return probs


def check_operator_witness(out, t: PairTruth) -> list[str]:
    v = np.asarray(out.vector)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        return ["operator witness: vector is not unit"]
    tv = t.x @ v
    n3 = t.nx ** 3
    probs = []
    if abs(np.linalg.norm(tv) - t.nx) > WITNESS_TOL * (1.0 + t.nx):
        probs.append("operator witness: ||T v|| != ||T||")
    if abs(np.linalg.norm(tv + t.x @ (t.gram @ v)) - (t.nx + n3)) > WITNESS_TOL * (1.0 + n3):
        probs.append("operator witness: ||(T + TT*T) v|| != ||T|| + ||T||^3")
    if abs(out.norm_t - t.nx) > 1e-10 * (1.0 + t.nx) or not out.within_tol:
        probs.append("operator witness: reported norm or within_tol wrong")
    return probs


def check_numrange(out, case) -> list[str]:
    """Verdict, certificate and margin against the constructed geometry."""
    m = case.m
    nrm = norm2(m)
    tol_abs = NUMRANGE_TOL * (1.0 + nrm)
    probs = []
    if abs(out.margin - case.margin) > 1e-6 * (1.0 + nrm):
        probs.append(f"{case.kind}: margin {out.margin!r}, geometry gives {case.margin!r}")
    if case.margin >= 0.0:
        if not out.contains_zero:
            return probs + [f"{case.kind}: 0 is in W(M) but verdict false"]
        z = np.asarray(out.vector)
        if abs(np.linalg.norm(z) - 1.0) > 1e-10:
            return probs + [f"{case.kind}: certificate is not unit"]
        if abs(complex(z.conj() @ m @ z)) > tol_abs:
            probs.append(f"{case.kind}: |z* M z| = {abs(complex(z.conj() @ m @ z)):.1e} > tol")
        return probs
    if out.contains_zero:
        return probs + [f"{case.kind}: 0 is outside W(M) but verdict true"]
    g = float(np.linalg.eigvalsh(_herm(np.exp(1j * out.angle) * m))[-1])
    if g >= -1e-12 * (1.0 + nrm):
        probs.append(f"{case.kind}: angle does not separate 0 from W(M)")
    return probs


def check_suite(out, case) -> list[str]:
    names = [r.name for r in out.results]
    if names != [case.name]:
        return [f"suite returned properties {names}, expected [{case.name}]"]
    r = out.results[0]
    if r.failures:
        return [f"property {case.name} seed {case.seed}: {r.failures} failures"]
    return []


_PAIR_CHECKS = {
    "normderiv.rho_pair": check_rho_pair,
    "ortho.is_ip_orthogonal": check_ip,
    "ortho.is_bj": check_bj,
    "ortho.is_bj_real": check_bj_real,
    "ortho.is_bj_strong": check_bj_strong,
    "ortho.is_rho_orthogonal": check_rho_orthogonal,
    "ortho.is_norm_parallel": check_norm_parallel,
    "ortho.bhatia_semrl_witness": check_bhatia,
    "daugavet.rho_cube_identity": check_cube,
    "daugavet.operator_daugavet_witness": check_operator_witness,
}


def check_request(kind: str, out, case, truth: PairTruth | None) -> list[str]:
    """Problems with the output of one request."""
    if kind == "stateface.zero_in_numrange":
        return check_numrange(out, case)
    if kind.startswith("verify.property."):
        return check_suite(out, case)
    if kind == "daugavet.module_daugavet_check":
        return check_module_daugavet(out, truth, case.alpha, case.beta)
    return _PAIR_CHECKS[kind](out, truth)


# ---------------------------------------------------------------------------
# Checks across the requests of one pair
# ---------------------------------------------------------------------------

# (stronger, weaker): a true stronger verdict forces a true weaker one.
IMPLICATIONS = (("ip", "bj-strong"), ("bj-strong", "bj"), ("bj", "bj-real"),
                ("ip", "rho"), ("rho", "bj-real"))

_RELATION = {"ortho.is_ip_orthogonal": "ip", "ortho.is_bj": "bj",
             "ortho.is_bj_real": "bj-real", "ortho.is_bj_strong": "bj-strong",
             "ortho.is_rho_orthogonal": "rho"}

# Relations that hold by construction, per pair kind.
_BY_CONSTRUCTION = {
    "ip": ("ip", "bj-strong", "bj", "bj-real", "rho"),
    "bj": ("bj", "bj-real", "rho"),
    "degenerate-bj": ("bj", "bj-real"),
}


def check_pair_verdicts(verdicts: dict, kind: str) -> list[str]:
    """``verdicts`` maps request kinds to the program's booleans for one
    pair.  Checks the implication chains and the by-construction verdicts."""
    held = {_RELATION[k]: v for k, v in verdicts.items() if k in _RELATION}
    probs = [f"{s} holds but {w} does not" for s, w in IMPLICATIONS
             if held.get(s) and held.get(w) is False]
    probs += [f"{rel} holds by construction but verdict false"
              for rel in _BY_CONSTRUCTION.get(kind, ()) if held.get(rel) is False]
    return probs
