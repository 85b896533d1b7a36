"""One-sided norm derivatives rho_plus / rho_minus.

The closed forms reduce to eigenvalues of a face compression: with
V the top-face isometry of <x, x> and H the Hermitian part of <x, y>,

    rho_plus(x, y)  = lambda_max(V* H V),
    rho_minus(x, y) = lambda_min(V* H V),

each attained by the rank-one state built from the extreme eigenvector.
``rho_fd`` evaluates the defining one-sided difference quotient of
t -> ||x + t y||^2 instead and serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoConvergence
from .hmodule import _as_pair, module_norm
from .matcore import _norm, _spectrum
from .stateface import (StateWitness, ZERO_NORM_TOL, _compress, _face_state,
                        _top_face)


@dataclass(frozen=True)
class DerivativePair:
    """Both one-sided derivatives, their midpoint, and attaining states."""

    rho_plus: float
    rho_minus: float
    rho_mid: float
    max_witness: StateWitness | None
    min_witness: StateWitness | None


def _rho_extremes(x, y, nx):
    """Extreme eigenvalues of V* H V and their states, for trusted x, y
    with ||x|| = nx."""
    if nx <= ZERO_NORM_TOL:
        # The difference quotient is t ||y||^2 / 2 -> 0.
        return 0.0, None, 0.0, None
    face = _top_face(x)
    h = (x.conj().T @ y + y.conj().T @ x) / 2.0
    spec = _spectrum(_compress(face, h))
    hi = float(spec.eigenvalues[0])
    lo = float(spec.eigenvalues[-1])
    w_hi = _face_state(face, spec.eigenvectors[:, 0])
    w_lo = _face_state(face, spec.eigenvectors[:, -1])
    return hi, w_hi, lo, w_lo


def rho_plus(x, y) -> tuple[float, StateWitness | None]:
    """Right norm derivative and a state attaining it (None for x = 0)."""
    x, y = _as_pair(x, y)
    hi, w_hi, _, _ = _rho_extremes(x, y, _norm(x))
    return hi, w_hi


def rho_minus(x, y) -> tuple[float, StateWitness | None]:
    """Left norm derivative and a state attaining it (None for x = 0)."""
    x, y = _as_pair(x, y)
    _, _, lo, w_lo = _rho_extremes(x, y, _norm(x))
    return lo, w_lo


def rho_pair(x, y) -> DerivativePair:
    """Both derivatives at once, sharing one face computation."""
    x, y = _as_pair(x, y)
    hi, w_hi, lo, w_lo = _rho_extremes(x, y, _norm(x))
    if not lo <= hi + 1e-10:
        raise AssertionError(f"derivative order violated: {lo!r} > {hi!r}")
    return DerivativePair(rho_plus=hi, rho_minus=lo, rho_mid=(hi + lo) / 2.0,
                          max_witness=w_hi, min_witness=w_lo)


def rho_fd(x, y, side: str = "+", tol: float = 1e-6) -> float:
    """One-sided difference quotient (||x + t y||^2 - ||x||^2) / (2 t).

    Evaluates at t = (+/-) 2^{-k}, k = 1..48.  Convexity of
    t -> ||x + t y||^2 makes the quotients monotone, approaching
    rho_plus from above (side "+") or rho_minus from below (side "-");
    returns the first value whose successive change drops below
    ``tol * (1 + ||x|| ||y||)`` and raises :class:`NoConvergence` if that
    never happens (ill-conditioned input).
    """
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    x, y = _as_pair(x, y)
    sign = 1.0 if side == "+" else -1.0
    base = module_norm(x) ** 2
    scale = tol * (1.0 + module_norm(x) * module_norm(y))
    prev = None
    for k in range(1, 49):
        t = sign * 2.0 ** (-k)
        q = (module_norm(x + t * y) ** 2 - base) / (2.0 * t)
        if prev is not None and abs(q - prev) < scale:
            return float(q)
        prev = q
    raise NoConvergence(f"difference quotients did not settle within tol {tol:g}")
