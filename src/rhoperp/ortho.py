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
Each BJ witness is a rank-one face state (V z)(V z)*; for bj and bj-real,
:func:`bhatia_semrl_witness` returns V z from the same decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import PreconditionFailed
from .hmodule import _unit, _unit_pair
from .matcore import _finite, _norm, _spectrum, as_complex_matrix
from .normderiv import _rho_extremes
from .stateface import (_carden_step, _compress, _face_state, _numerical_radius,
                        _reduce, _top_face, _zero_in_numrange)

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


def _bj_decision(x, y, tol: float, real: bool):
    """(face, margin, z, data) of bj or bj-real, shared with
    :func:`bhatia_semrl_witness`: z is the unit face vector of the witness,
    None when the relation fails; for bj the certificate of 0 in W(V* G V),
    for bj-real one Carden step between the extreme eigenvectors of Re V* G V."""
    nx, ny, face, g = _reduce(x, y)
    if real:
        hi, z_hi, lo, z_lo, h = _rho_extremes(face, g)
        margin = min(hi, -lo)
        z = _carden_step(h, z_hi, z_lo, 0.0) if margin >= -tol else None
        return face, margin, z, {"rho_plus": hi * nx * ny, "rho_minus": lo * nx * ny}
    res = _zero_in_numrange(_compress(face, g), tol)
    data = {"support_min": res.margin * nx * ny}
    if res.contains_zero:
        data["certificate_residual"] = res.residual * nx * ny
    else:
        data["separating_angle"] = res.angle
    return face, res.margin, res.vector, data


def is_bj(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Birkhoff-James orthogonality: ||x|| <= ||x + c y|| for all complex c.

    Decided as 0 in W(V* G V).  The margin is the signed distance from 0
    to the boundary of that range, in [-1, 1]; the decision allows tol/2
    of slack on either side, so the report's ``tol`` field is tol/2.
    """
    face, margin, z, data = _bj_decision(x, y, tol, real=False)
    witness = None if z is None else _face_state(face, z)
    return OrthoReport(Relation.BJ, z is not None, margin, tol / 2.0, witness, data)


def is_bj_real(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Real-scalar Birkhoff-James orthogonality: rho_minus <= 0 <= rho_plus.

    The margin is min(lambda_max, -lambda_min) of H = Re V* G V, in
    [-1, 1].  The witness is the rank-one face state of one Carden step
    between the extreme eigenvectors of H (the vector of
    :func:`bhatia_semrl_witness`): Re phi(<x, y>) = 0 to rounding when the
    spectrum of H straddles 0, else the end nearer 0.
    """
    face, margin, z, data = _bj_decision(x, y, tol, real=True)
    witness = None if z is None else _face_state(face, z)
    return OrthoReport(Relation.BJ_REAL, z is not None, margin, tol, witness, data)


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
    hi, _, lo, _, _ = _rho_extremes(face, g)
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
    """inf phi(<y, y>) over all states: ||y||^2 lambda_min(<w, w>), w = y/||y||."""
    ny, w = _unit(as_complex_matrix(y))
    low = float(_spectrum(w.conj().T @ w).eigenvalues[-1]) * ny * ny
    if abs(low) == np.inf:
        raise ValueError("lambda_min(<y, y>) beyond the double range")
    return low


def bhatia_semrl_witness(x, y, tol: float = DEFAULT_TOL, real: bool = False) -> np.ndarray:
    """Unit vector v with ||X v|| = ||X|| and [X v, Y v] = 0.

    For the real variant only Re [X v, Y v] = 0 is required and the
    corresponding precondition is the real-scalar relation.  Both share
    the decision and the vector of :func:`is_bj` and :func:`is_bj_real`:
    v = V z for their witness z, and :class:`PreconditionFailed` is raised
    exactly when that predicate reads false.
    """
    face, _, z, _ = _bj_decision(x, y, tol, real)
    if z is None:
        raise PreconditionFailed(("real-scalar " if real else "")
                                 + "Birkhoff-James orthogonality does not hold")
    return face.isometry @ z
