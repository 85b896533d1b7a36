"""One-sided norm derivatives rho_plus / rho_minus.

The closed forms reduce to eigenvalues of a face compression: with
V the top-face isometry of <x, x> and H the Hermitian part of <x, y>,

    rho_plus(x, y)  = lambda_max(V* H V),
    rho_minus(x, y) = lambda_min(V* H V),

each attained by the rank-one state built from the extreme eigenvector.
Both are computed on the unit pair u = x/||x||, w = y/||y|| and scaled
by ||x|| ||y|| only at output.
``rho_fd`` evaluates the defining one-sided difference quotient of
t -> ||x + t y||^2 instead and serves as the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoConvergence
from .hmodule import _as_pair, module_norm
from .matcore import _spectrum
from .stateface import StateWitness, _compress, _face_state, _reduce


@dataclass(frozen=True)
class DerivativePair:
    """Both one-sided derivatives, their midpoint, and attaining states."""

    rho_plus: float
    rho_minus: float
    rho_mid: float
    max_witness: StateWitness
    min_witness: StateWitness


def _rho_extremes(face, g):
    """Extreme eigenvalues of Re V* G V and their states, for the face V
    and G = <u, w> of a unit pair."""
    spec = _spectrum(_compress(face, g))
    hi = float(spec.eigenvalues[0])
    lo = float(spec.eigenvalues[-1])
    w_hi = _face_state(face, spec.eigenvectors[:, 0])
    w_lo = _face_state(face, spec.eigenvectors[:, -1])
    return hi, w_hi, lo, w_lo


def rho_plus(x, y) -> tuple[float, StateWitness]:
    """Right norm derivative and a state attaining it."""
    pair = rho_pair(x, y)
    return pair.rho_plus, pair.max_witness


def rho_minus(x, y) -> tuple[float, StateWitness]:
    """Left norm derivative and a state attaining it."""
    pair = rho_pair(x, y)
    return pair.rho_minus, pair.min_witness


def rho_pair(x, y) -> DerivativePair:
    """Both derivatives at once, sharing one face computation; for x = 0
    both are 0, attained by every state."""
    nx, ny, face, g = _reduce(x, y)
    hi, w_hi, lo, w_lo = _rho_extremes(face, g)
    if not lo <= hi:
        raise AssertionError(f"derivative order violated: {lo!r} > {hi!r}")
    return DerivativePair(rho_plus=hi * nx * ny, rho_minus=lo * nx * ny,
                          rho_mid=(hi + lo) / 2.0 * nx * ny,
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
