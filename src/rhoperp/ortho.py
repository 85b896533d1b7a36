"""Decision procedures for six orthogonality / parallelism relations.

Each predicate returns an :class:`OrthoReport` carrying the boolean, a
signed margin in the relation's natural (normalized) scale, the
effective threshold, and a witness when the relation holds:

=============  =======================================  =================
relation       holds iff                                witness
=============  =======================================  =================
ip             ||<x, y>|| ~ 0                           --
bj             0 in W(V* <x,y> V)                       state annihilating <x, y>
bj-real        rho_minus <= 0 <= rho_plus               state with Re phi(<x,y>) = 0
bj-strong      lambda_min(V* <x,y><y,x> V) ~ 0          state annihilating <x,y><y,x>
rho            rho_plus + rho_minus ~ 0                 --
parallel       w(V* <x,y> V) = ||x|| ||y||              the maximizing unit xi
=============  =======================================  =================

The zero element is orthogonal to everything: every predicate returns
TRUE for x = 0 with the tracial state as witness where one is due.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import PreconditionFailed
from .hmodule import _as_pair
from .matcore import _finite, _norm, _spectrum, as_complex_matrix
from .normderiv import _rho_extremes
from .stateface import (ZERO_NORM_TOL, _compress, _face_state,
                        _numerical_radius, _state, _top_face,
                        _zero_in_numrange, _zero_quadratic_vector,
                        maximally_mixed)

DEFAULT_TOL = 1e-9


class Relation(str, Enum):
    IP = "ip"
    BJ = "bj"
    BJ_REAL = "bj-real"
    BJ_STRONG = "bj-strong"
    RHO = "rho"
    PARALLEL = "parallel"


@dataclass(frozen=True)
class OrthoReport:
    """Decision outcome: ``holds == (margin >= -tol)`` by construction.

    ``witness`` is a :class:`StateWitness` (bj, bj-real, bj-strong), the
    maximizing complex unit (parallel), or None.  ``data`` carries the
    relation-specific raw numbers behind the margin.
    """

    relation: Relation
    holds: bool
    margin: float
    tol: float
    witness: object | None = None
    data: dict = field(default_factory=dict)


def _norms(x, y):
    """The validated pair and its norms: the one entry check of each predicate."""
    x, y = _as_pair(x, y)
    return x, y, _norm(x), _norm(y)


def _face_numrange(x, y, tol_abs: float):
    """Top face of x and 0 in W(V* <x, y> V) for it, at absolute slack
    tol_abs: the Birkhoff-James decision for a nonzero x."""
    face = _top_face(x)
    return face, _zero_in_numrange(_compress(face, x.conj().T @ y), tol_abs)


def is_ip_orthogonal(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Inner-product orthogonality <x, y> = 0."""
    x, y, nx, ny = _norms(x, y)
    scale = 1.0 + nx * ny
    val = _norm(_finite(x.conj().T @ y))
    margin = -val / scale
    return OrthoReport(Relation.IP, margin >= -tol, margin, tol,
                       data={"inner_product_norm": val})


def is_bj(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Birkhoff-James orthogonality: ||x|| <= ||x + c y|| for all complex c.

    Decided as 0 in W(V* <x, y> V).  The margin is the signed distance
    from 0 to the boundary of that range, normalized by 1 + ||x|| ||y||;
    the decision allows tol/2 of slack on either side, so the report's
    ``tol`` field is tol/2.
    """
    x, y, nx, ny = _norms(x, y)
    scale = 1.0 + nx * ny
    if nx <= ZERO_NORM_TOL:
        return OrthoReport(Relation.BJ, True, 0.0, tol / 2.0,
                           witness=maximally_mixed(x.shape[1]))
    face, res = _face_numrange(x, y, tol * scale)
    margin = res.margin / scale
    data = {"support_min": res.margin}
    if res.contains_zero:
        witness = _face_state(face, res.vector)
        data["certificate_residual"] = res.residual
        return OrthoReport(Relation.BJ, True, margin, tol / 2.0, witness, data)
    data["separating_angle"] = res.angle
    return OrthoReport(Relation.BJ, False, margin, tol / 2.0, None, data)


def is_bj_real(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Real-scalar Birkhoff-James orthogonality: rho_minus <= 0 <= rho_plus.

    The witness mixes the two extreme states so that Re phi(<x, y>)
    vanishes exactly for the combined state.
    """
    x, y, nx, ny = _norms(x, y)
    scale = 1.0 + nx * ny
    if nx <= ZERO_NORM_TOL:
        return OrthoReport(Relation.BJ_REAL, True, 0.0, tol,
                           witness=maximally_mixed(x.shape[1]),
                           data={"rho_plus": 0.0, "rho_minus": 0.0})
    hi, w_hi, lo, w_lo = _rho_extremes(x, y, nx)
    margin = min(hi, -lo) / scale
    holds = margin >= -tol
    witness = None
    if holds:
        span = hi - lo
        lam = float(np.clip(hi / span, 0.0, 1.0)) if span > 0.0 else 0.0
        witness = _state(lam * w_lo.density + (1.0 - lam) * w_hi.density)
    return OrthoReport(Relation.BJ_REAL, holds, margin, tol, witness,
                       data={"rho_plus": hi, "rho_minus": lo})


def is_bj_strong(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Strong Birkhoff-James orthogonality: ||x|| <= ||x + y a|| for all a.

    Holds iff some face state annihilates the positive element
    <x, y><y, x>, i.e. iff lambda_min of its face compression vanishes.
    """
    x, y, nx, ny = _norms(x, y)
    scale = 1.0 + (nx * ny) ** 2
    if nx <= ZERO_NORM_TOL:
        return OrthoReport(Relation.BJ_STRONG, True, 0.0, tol,
                           witness=maximally_mixed(x.shape[1]),
                           data={"annihilation_value": 0.0})
    face = _top_face(x)
    spec = _spectrum(_compress(face, (x.conj().T @ y) @ (y.conj().T @ x)))
    lam_min = float(spec.eigenvalues[-1])
    margin = -lam_min / scale
    holds = margin >= -tol
    witness = _face_state(face, spec.eigenvectors[:, -1]) if holds else None
    return OrthoReport(Relation.BJ_STRONG, holds, margin, tol, witness,
                       data={"annihilation_value": lam_min})


def is_rho_orthogonal(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """rho-orthogonality: rho_plus(x, y) + rho_minus(x, y) = 0."""
    x, y, nx, ny = _norms(x, y)
    scale = 1.0 + nx * ny
    hi, _, lo, _ = _rho_extremes(x, y, nx)
    margin = -abs(hi + lo) / scale
    return OrthoReport(Relation.RHO, margin >= -tol, margin, tol,
                       data={"rho_plus": hi, "rho_minus": lo})


def is_norm_parallel(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Norm parallelism: ||x + xi y|| = ||x|| + ||y|| for some unit xi.

    Decided on the top face: x and y are parallel iff the numerical
    radius of C = V* <u, w> V, for u = x/||x|| and w = y/||y||, is 1,
    i.e. iff some unit v in the face has |v* C v| = 1 (Zamani and
    Moslehian, "Exact and approximate operator parallelism", Canad.
    Math. Bull. 58, 2015).  Deciding on the normalized pair keeps the
    verdict independent of the scale of x and y.  The margin is
    w(C) - 1, in [-1, 0] up to rounding.

    The witness is xi = conj(v* C v) / |v* C v| for the v attaining the
    radius (1 when v* C v = 0); ``data`` holds ``max_norm`` =
    ||x + xi y||, attained at ``angle`` = arg xi, together with
    ``numerical_radius`` and ``face_dim``.  An exactly zero x or y is
    parallel to everything, with xi = 1.
    """
    x, y, nx, ny = _norms(x, y)
    if nx == 0.0 or ny == 0.0:
        return OrthoReport(Relation.PARALLEL, True, 0.0, tol, witness=1.0 + 0.0j,
                           data={"max_norm": nx + ny, "angle": 0.0})
    u, w = x / nx, y / ny
    face = _top_face(u)
    comp = _compress(face, u.conj().T @ w)
    radius, v = _numerical_radius(comp)
    val = complex(v.conj() @ comp @ v)
    xi = abs(val) / val if val != 0.0 else 1.0 + 0.0j
    margin = radius - 1.0
    holds = margin >= -tol
    return OrthoReport(Relation.PARALLEL, holds, margin, tol,
                       witness=xi if holds else None,
                       data={"max_norm": _norm(_finite(x + xi * y)),
                             "angle": float(np.angle(xi) % (2.0 * np.pi)),
                             "numerical_radius": radius, "face_dim": face.dim})


def m_lower_bound(y) -> float:
    """inf phi(<y, y>) over all states: lambda_min(<y, y>)."""
    y = as_complex_matrix(y)
    return float(_spectrum(_finite(y.conj().T @ y)).eigenvalues[-1])


def bhatia_semrl_witness(x, y, tol: float = DEFAULT_TOL, real: bool = False) -> np.ndarray:
    """Unit vector v with ||X v|| = ||X|| and [X v, Y v] = 0.

    For the real variant only Re [X v, Y v] = 0 is required and the
    corresponding precondition is the real-scalar relation.  Raises
    :class:`PreconditionFailed` when the relation does not hold.
    """
    x, y, nx, ny = _norms(x, y)
    scale = 1.0 + nx * ny
    if nx <= ZERO_NORM_TOL:
        v = np.zeros(x.shape[1], dtype=np.complex128)
        v[0] = 1.0
        return v
    if real:
        face = _top_face(x)
        h = (x.conj().T @ y + y.conj().T @ x) / 2.0
        z, val = _zero_quadratic_vector(_compress(face, h))
        if abs(val) > tol * scale:
            raise PreconditionFailed("real-scalar Birkhoff-James orthogonality does not hold")
    else:
        face, res = _face_numrange(x, y, tol * scale)
        if not res.contains_zero:
            raise PreconditionFailed("Birkhoff-James orthogonality does not hold")
        z = res.vector
    return face.isometry @ z
