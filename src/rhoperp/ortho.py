"""Decision procedures for six orthogonality / parallelism relations.

Every relation is homogeneous in x and in y, so each predicate decides
on the unit pair u = x/||x||, w = y/||y||: with V the top face of <u, u>
and G = <u, w> (so ||G|| <= 1), it returns an :class:`OrthoReport`
carrying the boolean, a signed margin (a distance on the unit pair,
linear in G), ``tol``, and a witness when the relation holds.  One rule,
:func:`_report`, decides all six: ``holds == (margin >= -tol)``.  Only ip
forms the n-by-n G, and not for a wide u; the others read G* V and
C = V* G V from ``_reduce``.

=========  ===========================================  ==============================
relation   margin                                       witness when it holds
=========  ===========================================  ==============================
ip         -||G||                                       --
bj         min_t lambda_max(Re(e^{it} V* G V)), the     state annihilating <x, y>
           signed distance from 0 to W(V* G V)
bj-real    min(lambda_max, -lambda_min) of Re V* G V    state with Re phi(<x, y>) = 0
bj-strong  -sigma_min(G* V)                             state annihilating <x,y><y,x>
rho        -|lambda_max + lambda_min|/2 of Re V* G V    --
parallel   w(V* G V) - 1                                the maximizing unit xi
=========  ===========================================  ==============================

As |z* V* G V z| <= ||G* V z|| <= ||G|| (z unit), the support minimum is at
most min(lambda_max, -lambda_min) and |lambda_max + lambda_min|/2 <= ||G||,
m_ip <= m_strong <= m_bj <= m_real and m_ip <= m_rho <= m_real: at one tol,
ip => bj-strong => bj => bj-real and ip => rho => bj-real.  No verdict
changes when (x, y) becomes (c x, d y), c, d nonzero.  The raw numbers in
``data`` are unit-pair values times ||x|| ||y|| (twice for bj-strong), as
plain products: past the double range they read inf.
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
from .matcore import (_adjoint_product_norm, _check_tol, _norm, _prescaled, _svd,
                      as_complex_matrix)
from .normderiv import _rho_extremes
from .stateface import _carden_step, _face_state, _numerical_radius, _reduce, _zero_in_numrange

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


def _report(relation: Relation, margin: float, tol: float, data: dict,
            witness=lambda: None) -> OrthoReport:
    """The one rule of the six relations, ``holds == (margin >= -tol)``;
    ``witness()`` is built only when the relation holds, else None."""
    holds = margin >= -tol
    return OrthoReport(relation, holds, margin, tol, witness() if holds else None, data)


def is_ip_orthogonal(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Inner-product orthogonality <x, y> = 0, with margin -||<u, w>|| from
    ``matcore._adjoint_product_norm``, which forms no n-by-n <u, w> for a wide u."""
    _check_tol(tol)
    nx, ny, u, w, *_ = _reduce(x, y)
    val = _adjoint_product_norm(u, w)
    return _report(Relation.IP, -val, tol, {"inner_product_norm": val * nx * ny})


def _bj_decision(x, y, tol: float, real: bool):
    """(face, margin, z, data) of bj or bj-real, shared with
    :func:`bhatia_semrl_witness`: z() is the unit face vector of the
    witness; for bj the certificate of 0 in W(V* G V) at slack tol, for
    bj-real one Carden step between the extreme eigenvectors of Re V* G V."""
    _check_tol(tol)
    nx, ny, _, _, face, _, c = _reduce(x, y)
    if real:
        hi, z_hi, lo, z_lo, h = _rho_extremes(c)
        return (face, min(hi, -lo), lambda: _carden_step(h, z_hi, z_lo, 0.0),
                {"rho_plus": hi * nx * ny, "rho_minus": lo * nx * ny})
    res = _zero_in_numrange(c, tol)
    data = {"support_min": res.margin * nx * ny}
    if res.contains_zero:
        data["certificate_residual"] = res.residual * nx * ny
    else:
        data["separating_angle"] = res.angle
    return face, res.margin, lambda: res.vector, data


def is_bj(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Birkhoff-James orthogonality: ||x|| <= ||x + c y|| for all complex c.

    Decided as 0 in W(V* G V).  The margin is the signed distance from 0
    to the boundary of that range, in [-1, 1]; the witness's certificate
    achieves |z* V* G V z| <= 2 tol.
    """
    face, margin, z, data = _bj_decision(x, y, tol, real=False)
    return _report(Relation.BJ, margin, tol, data, lambda: _face_state(face, z()))


def is_bj_real(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Real-scalar Birkhoff-James orthogonality: rho_minus <= 0 <= rho_plus.

    The margin is min(lambda_max, -lambda_min) of H = Re V* G V, in
    [-1, 1].  The witness is the rank-one face state of one Carden step
    between the extreme eigenvectors of H (the vector of
    :func:`bhatia_semrl_witness`): Re phi(<x, y>) = 0 to rounding when the
    spectrum of H straddles 0, else the end nearer 0.
    """
    face, margin, z, data = _bj_decision(x, y, tol, real=True)
    return _report(Relation.BJ_REAL, margin, tol, data, lambda: _face_state(face, z()))


def is_bj_strong(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Strong Birkhoff-James orthogonality: ||x|| <= ||x + y a|| for all a.

    Holds iff some face state annihilates <x, y><y, x>, i.e. iff G* V z = 0
    for a unit z.  The margin is -sigma_min(G* V), in [-1, 0], from one SVD
    of the n-by-k G* V; the witness is the state of its right singular vector.
    """
    _check_tol(tol)
    nx, ny, _, _, face, gv, _ = _reduce(x, y)
    sv, vt = _svd(gv)
    sigma, z = float(sv[-1]), vt[-1].conj()
    return _report(Relation.BJ_STRONG, -sigma, tol,
                   {"annihilation_value": sigma * sigma * nx * ny * nx * ny},
                   lambda: _face_state(face, z))


def is_rho_orthogonal(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """rho-orthogonality: rho_plus(x, y) + rho_minus(x, y) = 0.

    The margin is -|lambda_max + lambda_min|/2 of Re V* G V, in [-1, 0].
    """
    _check_tol(tol)
    nx, ny, *_, c = _reduce(x, y)
    hi, _, lo, _, _ = _rho_extremes(c)
    return _report(Relation.RHO, -abs(hi + lo) / 2.0, tol,
                   {"rho_plus": hi * nx * ny, "rho_minus": lo * nx * ny})


def is_norm_parallel(x, y, tol: float = DEFAULT_TOL) -> OrthoReport:
    """Norm parallelism: ||x + xi y|| = ||x|| + ||y|| for some unit xi.

    Decided on the top face: x and y are parallel iff the numerical
    radius of C = V* G V is 1, i.e. iff some unit v in the face has
    |v* C v| = 1 (Zamani and Moslehian, "Exact and approximate operator
    parallelism", Canad. Math. Bull. 58, 2015).  The margin is w(C) - 1,
    in [-1, 0] up to rounding.

    The witness is xi = conj(p)/|p| for the support point p = v* C v at the
    radius (1 when |p| <= tol, where its phase is rounding); ``data`` holds
    ``max_norm`` = ||x + xi y|| at ``angle`` = arg xi (the maximum over xi
    only when the relation holds), ``numerical_radius`` and ``face_dim``.
    A zero x or y is parallel to everything, with xi = 1 and radius 0.
    """
    _check_tol(tol)
    nx, ny, u, w, face, _, c = _reduce(x, y)
    if nx == 0.0 or ny == 0.0:
        return _report(Relation.PARALLEL, 0.0, tol,
                       {"max_norm": nx + ny, "angle": 0.0, "numerical_radius": 0.0,
                        "face_dim": face.dim}, lambda: 1.0 + 0.0j)
    radius, p = _numerical_radius(c)
    xi = abs(p) / p if abs(p) > tol else 1.0 + 0.0j
    top = max(nx, ny)
    return _report(Relation.PARALLEL, radius - 1.0, tol,
                   {"max_norm": top * _norm((nx / top) * u + xi * (ny / top) * w),
                    "angle": float(np.angle(xi) % (2.0 * np.pi)),
                    "numerical_radius": radius, "face_dim": face.dim},
                   lambda: xi)


def m_lower_bound(y) -> float:
    """inf phi(<y, y>) over all states: lambda_min(<y, y>).  For an m-by-n y
    with n <= m it is sigma_min(ys)^2 s^2, ys = y/s for the exact power of two
    s of ``matcore._prescaled``, from one zgesdd without vectors; for n > m,
    <y, y> has rank at most m < n, and the bound is exactly 0."""
    y = as_complex_matrix(y)
    if y.shape[1] > y.shape[0]:
        return 0.0
    ys, s = _prescaled(y)
    sigma = float(_svd(ys, vectors=False)[0][-1])
    low = sigma * sigma * s * s
    if low == np.inf:
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
    face, margin, z, data = _bj_decision(x, y, tol, real)
    rep = _report(Relation.BJ_REAL if real else Relation.BJ, margin, tol, data, z)
    if not rep.holds:
        raise PreconditionFailed(("real-scalar " if real else "")
                                 + "Birkhoff-James orthogonality does not hold")
    return face.isometry @ rep.witness
