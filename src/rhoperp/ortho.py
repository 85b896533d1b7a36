"""Decision procedures for six orthogonality / parallelism relations.

Every relation is homogeneous in x and in y, so each predicate decides
on the unit pair u = x/||x||, w = y/||y||: with V the top face of <u, u>
and G = <u, w> (so ||G|| <= 1), it returns an :class:`OrthoReport`
carrying the boolean, a unitless signed margin read off V and G, the
effective threshold (``holds == (margin >= -tol)``), and a witness when
the relation holds:

=========  ===========================================  ==============================
relation   margin                                       witness when it holds
=========  ===========================================  ==============================
ip         -||G||                                       --
bj         min_t lambda_max(Re(e^{it} V* G V)), the     state annihilating <x, y>
           signed distance from 0 to W(V* G V)
bj-real    min(lambda_max, -lambda_min) of Re V* G V    state with Re phi(<x, y>) = 0
bj-strong  -lambda_min(V* G G* V)                       state annihilating <x,y><y,x>
rho        -|lambda_max + lambda_min| of Re V* G V      --
parallel   w(V* G V) - 1                                the maximizing unit xi
=========  ===========================================  ==============================

So no verdict changes when (x, y) becomes (c x, d y), c, d nonzero.  The
raw numbers in ``data`` are unit-pair values times ||x|| ||y|| (twice for
bj-strong), as plain products: past the double range they read inf.
A zero x or y (norm below the smallest normal double) gives G = 0, so
every relation holds, with a face state as witness where one is due.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import PreconditionFailed
from .hmodule import _unit_pair
from .matcore import _finite, _norm, _spectrum, as_complex_matrix
from .normderiv import _rho_extremes
from .stateface import (_compress, _face_state, _numerical_radius, _reduce,
                        _state, _top_face, _zero_in_numrange,
                        _zero_quadratic_vector)

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


def is_ip_orthogonal(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Inner-product orthogonality <x, y> = 0, with margin -||<u, w>||."""
    nx, ny, u, w = _unit_pair(x, y)
    val = _norm(u.conj().T @ w)
    return OrthoReport(Relation.IP, -val >= -tol, -val, tol,
                       data={"inner_product_norm": val * nx * ny})


def is_bj(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Birkhoff-James orthogonality: ||x|| <= ||x + c y|| for all complex c.

    Decided as 0 in W(V* G V).  The margin is the signed distance from 0
    to the boundary of that range, in [-1, 1]; the decision allows tol/2
    of slack on either side, so the report's ``tol`` field is tol/2.
    """
    nx, ny, face, g = _reduce(x, y)
    res = _zero_in_numrange(_compress(face, g), tol)
    data = {"support_min": res.margin * nx * ny}
    if res.contains_zero:
        data["certificate_residual"] = res.residual * nx * ny
        return OrthoReport(Relation.BJ, True, res.margin, tol / 2.0,
                           _face_state(face, res.vector), data)
    data["separating_angle"] = res.angle
    return OrthoReport(Relation.BJ, False, res.margin, tol / 2.0, None, data)


def is_bj_real(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Real-scalar Birkhoff-James orthogonality: rho_minus <= 0 <= rho_plus.

    The margin is min(lambda_max, -lambda_min) of Re V* G V, in [-1, 1].
    The witness mixes the two extreme states so that Re phi(<x, y>)
    vanishes exactly for the combined state.
    """
    nx, ny, face, g = _reduce(x, y)
    hi, w_hi, lo, w_lo = _rho_extremes(face, g)
    margin = min(hi, -lo)
    holds = margin >= -tol
    witness = None
    if holds:
        span = hi - lo
        lam = float(np.clip(hi / span, 0.0, 1.0)) if span > 0.0 else 0.0
        witness = _state(lam * w_lo.density + (1.0 - lam) * w_hi.density)
    return OrthoReport(Relation.BJ_REAL, holds, margin, tol, witness,
                       data={"rho_plus": hi * nx * ny, "rho_minus": lo * nx * ny})


def is_bj_strong(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Strong Birkhoff-James orthogonality: ||x|| <= ||x + y a|| for all a.

    Holds iff some face state annihilates the positive element
    <x, y><y, x>, i.e. iff lambda_min of its face compression vanishes.
    The margin is -lambda_min(V* G G* V), in [-1, 0].
    """
    nx, ny, face, g = _reduce(x, y)
    spec = _spectrum(_compress(face, g @ g.conj().T))
    lam_min = float(spec.eigenvalues[-1])
    margin = -lam_min
    holds = margin >= -tol
    witness = _face_state(face, spec.eigenvectors[:, -1]) if holds else None
    return OrthoReport(Relation.BJ_STRONG, holds, margin, tol, witness,
                       data={"annihilation_value": lam_min * nx * ny * nx * ny})


def is_rho_orthogonal(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """rho-orthogonality: rho_plus(x, y) + rho_minus(x, y) = 0.

    The margin is -|lambda_max + lambda_min| of Re V* G V, in [-2, 0].
    """
    nx, ny, face, g = _reduce(x, y)
    hi, _, lo, _ = _rho_extremes(face, g)
    margin = -abs(hi + lo)
    return OrthoReport(Relation.RHO, margin >= -tol, margin, tol,
                       data={"rho_plus": hi * nx * ny, "rho_minus": lo * nx * ny})


def is_norm_parallel(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Norm parallelism: ||x + xi y|| = ||x|| + ||y|| for some unit xi.

    Decided on the top face: x and y are parallel iff the numerical
    radius of C = V* G V is 1, i.e. iff some unit v in the face has
    |v* C v| = 1 (Zamani and Moslehian, "Exact and approximate operator
    parallelism", Canad. Math. Bull. 58, 2015).  The margin is w(C) - 1,
    in [-1, 0] up to rounding.

    The witness is xi = conj(v* C v) / |v* C v| for the v attaining the
    radius (1 when v* C v = 0); ``data`` holds ``max_norm`` =
    ||x + xi y||, attained at ``angle`` = arg xi, together with
    ``numerical_radius`` and ``face_dim``.  A zero x or y is parallel
    to everything, with xi = 1.
    """
    nx, ny, u, w = _unit_pair(x, y)
    if nx == 0.0 or ny == 0.0:
        return OrthoReport(Relation.PARALLEL, True, 0.0, tol, witness=1.0 + 0.0j,
                           data={"max_norm": nx + ny, "angle": 0.0})
    face = _top_face(u.conj().T @ u)
    comp = _compress(face, u.conj().T @ w)
    radius, v = _numerical_radius(comp)
    val = complex(v.conj() @ comp @ v)
    xi = abs(val) / val if val != 0.0 else 1.0 + 0.0j
    margin = radius - 1.0
    holds = margin >= -tol
    return OrthoReport(Relation.PARALLEL, holds, margin, tol,
                       witness=xi if holds else None,
                       data={"max_norm": _norm(_finite(nx * u + xi * ny * w)),
                             "angle": float(np.angle(xi) % (2.0 * np.pi)),
                             "numerical_radius": radius, "face_dim": face.dim})


def m_lower_bound(y) -> float:
    """inf phi(<y, y>) over all states: lambda_min(<y, y>)."""
    y = as_complex_matrix(y)
    return float(_spectrum(_finite(y.conj().T @ y)).eigenvalues[-1])


def bhatia_semrl_witness(x, y, tol: float = DEFAULT_TOL, real: bool = False) -> np.ndarray:
    """Unit vector v with ||X v|| = ||X|| and [X v, Y v] = 0.

    For the real variant only Re [X v, Y v] = 0 is required and the
    corresponding precondition is the real-scalar relation.  Both are
    decided on the unit pair, as :func:`is_bj` and :func:`is_bj_real`
    decide them.  Raises :class:`PreconditionFailed` when the relation
    does not hold.
    """
    _, _, face, g = _reduce(x, y)
    comp = _compress(face, g)
    if real:
        z, val = _zero_quadratic_vector((comp + comp.conj().T) / 2.0)
        if abs(val) > tol:
            raise PreconditionFailed("real-scalar Birkhoff-James orthogonality does not hold")
    else:
        res = _zero_in_numrange(comp, tol)
        if not res.contains_zero:
            raise PreconditionFailed("Birkhoff-James orthogonality does not hold")
        z = res.vector
    return face.isometry @ z
