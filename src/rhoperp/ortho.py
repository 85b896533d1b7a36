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
parallel       max_t ||x + e^{it} y|| = ||x|| + ||y||   the maximizing unit xi
=============  =======================================  =================

The zero element is orthogonal to everything: every predicate returns
TRUE for x = 0 with the tracial state as witness where one is due.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import PreconditionFailed
from .hmodule import _as_pair, inner_product, module_norm
from .matcore import as_complex_matrix, hermitian_spectrum, operator_norm
from .normderiv import _rho_extremes
from .stateface import (StateWitness, ZERO_NORM_TOL, _golden_min,
                        _zero_quadratic_vector, face_compression,
                        maximally_mixed, state_from_face_vector, top_face,
                        zero_in_numrange)

DEFAULT_TOL = 1e-9

_PARALLEL_GRID = 720


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
    x, y = _as_pair(x, y)
    return x, y, module_norm(x), module_norm(y)


def _face_numrange(x, y, tol: float, scale: float):
    """Top face of x and 0 in W(V* <x, y> V) for it, at absolute slack
    tol * scale: the Birkhoff-James decision for a nonzero x."""
    face = top_face(x)
    comp = face_compression(face, inner_product(x, y))
    return face, zero_in_numrange(comp, tol * scale / (1.0 + operator_norm(comp)))


def is_ip_orthogonal(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Inner-product orthogonality <x, y> = 0."""
    x, y, nx, ny = _norms(x, y)
    scale = 1.0 + nx * ny
    val = operator_norm(inner_product(x, y))
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
    face, res = _face_numrange(x, y, tol, scale)
    margin = res.margin / scale
    data = {"support_min": res.margin}
    if res.contains_zero:
        witness = state_from_face_vector(face, res.vector)
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
    hi, w_hi, lo, w_lo = _rho_extremes(x, y)
    margin = min(hi, -lo) / scale
    holds = margin >= -tol
    witness = None
    if holds:
        span = hi - lo
        lam = float(np.clip(hi / span, 0.0, 1.0)) if span > 0.0 else 0.0
        witness = StateWitness(lam * w_lo.density + (1.0 - lam) * w_hi.density)
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
    face = top_face(x)
    pos = inner_product(x, y) @ inner_product(y, x)
    spec = hermitian_spectrum(face_compression(face, pos))
    lam_min = float(spec.eigenvalues[-1])
    margin = -lam_min / scale
    holds = margin >= -tol
    witness = state_from_face_vector(face, spec.eigenvectors[:, -1]) if holds else None
    return OrthoReport(Relation.BJ_STRONG, holds, margin, tol, witness,
                       data={"annihilation_value": lam_min})


def is_rho_orthogonal(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """rho-orthogonality: rho_plus(x, y) + rho_minus(x, y) = 0."""
    x, y, nx, ny = _norms(x, y)
    scale = 1.0 + nx * ny
    hi, _, lo, _ = _rho_extremes(x, y)
    margin = -abs(hi + lo) / scale
    return OrthoReport(Relation.RHO, margin >= -tol, margin, tol,
                       data={"rho_plus": hi, "rho_minus": lo})


def is_norm_parallel(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Norm parallelism: ||x + xi y|| = ||x|| + ||y|| for some unit xi.

    Maximizes over the unit circle (coarse grid plus golden-section
    refinement; the objective is Lipschitz in the angle with constant
    ||y||).  The witness is the maximizing xi.
    """
    x, y, nx, ny = _norms(x, y)
    scale = 1.0 + nx + ny
    thetas = np.linspace(0.0, 2.0 * np.pi, _PARALLEL_GRID, endpoint=False)
    stack = x[None, :, :] + np.exp(1j * thetas)[:, None, None] * y[None, :, :]
    vals = np.linalg.svd(stack, compute_uv=False)[:, 0]

    def neg_norm(t):
        return -module_norm(x + np.exp(1j * t) * y)

    step = 2.0 * np.pi / _PARALLEL_GRID
    local = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
    local = local[np.argsort(-vals[local], kind="stable")][:16]
    best_t, best_v = float(thetas[np.argmax(vals)]), float(np.max(vals))
    for i in local:
        t, v = _golden_min(neg_norm, thetas[i] - step, thetas[i] + step)
        if -v > best_v:
            best_t, best_v = t, -v
    best_t %= 2.0 * np.pi
    margin = (best_v - nx - ny) / scale
    holds = margin >= -tol
    xi = complex(np.exp(1j * best_t))
    return OrthoReport(Relation.PARALLEL, holds, margin, tol,
                       witness=xi if holds else None,
                       data={"max_norm": best_v, "angle": best_t})


def m_lower_bound(y) -> float:
    """inf phi(<y, y>) over all states: lambda_min(<y, y>)."""
    y = as_complex_matrix(y)
    spec = hermitian_spectrum(inner_product(y, y))
    return float(spec.eigenvalues[-1])


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
        face = top_face(x)
        h = (inner_product(x, y) + inner_product(y, x)) / 2.0
        z, val = _zero_quadratic_vector(face_compression(face, h))
        if abs(val) > tol * scale:
            raise PreconditionFailed("real-scalar Birkhoff-James orthogonality does not hold")
    else:
        face, res = _face_numrange(x, y, tol, scale)
        if not res.contains_zero:
            raise PreconditionFailed("Birkhoff-James orthogonality does not hold")
        z = res.vector
    return face.isometry @ z
