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
from .hmodule import _as_pair, _unit
from .matcore import _check_tol, _norm, _top_eigh
from .stateface import StateWitness, _face_state, _reduce


@dataclass(frozen=True)
class DerivativePair:
    """Both one-sided derivatives, their midpoint, and attaining states."""

    rho_plus: float
    rho_minus: float
    rho_mid: float
    max_witness: StateWitness
    min_witness: StateWitness


def _rho_extremes(c):
    """(lambda_max, z_max, lambda_min, z_min, H): the extreme eigenpairs, in face
    coordinates, of H = Re C for the compression C = V* G V of G = <u, w>
    (a unit pair) to the face V."""
    h = (c + c.conj().T) / 2.0
    vals, vecs = _top_eigh(h, len(h))
    return float(vals[0]), vecs[:, 0], float(vals[-1]), vecs[:, -1], h


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
    nx, ny, _, _, face, _, c = _reduce(x, y)
    hi, z_hi, lo, z_lo, _ = _rho_extremes(c)
    if not lo <= hi:
        raise AssertionError(f"derivative order violated: {lo!r} > {hi!r}")
    return DerivativePair(rho_plus=hi * nx * ny, rho_minus=lo * nx * ny,
                          rho_mid=(hi + lo) / 2.0 * nx * ny,
                          max_witness=_face_state(face, z_hi),
                          min_witness=_face_state(face, z_lo))


def rho_fd(x, y, side: str = "+", tol: float = 1e-6) -> float:
    """One-sided difference quotient (||x + t y||^2 - ||x||^2) / (2 t).

    Evaluates (||u + s w||^2 - 1) / (2 s) on the unit pair u = x/||x||,
    w = y/||y|| at s = (+/-) 2^{-k}, k = 1..48.  Convexity makes the
    quotients monotone, approaching rho_plus from above (side "+") or
    rho_minus from below (side "-"); returns ||x|| ||y|| times the first
    whose successive change drops below the unitless ``tol`` and raises
    :class:`NoConvergence` if none does.  A zero x or y gives 0.0.
    """
    _check_tol(tol)
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    (nx, u), (ny, w) = map(_unit, _as_pair(x, y))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    sign = 1.0 if side == "+" else -1.0
    prev = None
    for k in range(1, 49):
        s = sign * 2.0 ** (-k)
        q = (_norm(u + s * w) ** 2 - 1.0) / (2.0 * s)
        if prev is not None and abs(q - prev) < tol:
            return q * nx * ny
        prev = q
    raise NoConvergence(f"difference quotients did not settle within tol {tol:g}")
