"""Norm identities for x <x, x> and the operator Daugavet-type equation.

For every module element, rho_plus(x, x<x,x>) = ||x||^4 = rho_minus, the
combination alpha x + beta x<x,x> attains the full triangle bound
alpha ||x|| + beta ||x||^3 for positive coefficients, and for a matrix T
the equation ||T + T T* T|| = ||T|| + ||T||^3 comes with an aligned unit
vector (a top right-singular vector, the top eigenvector of T* T).  In
finite dimension the distance hypothesis of the operator statement
(distance to the compacts below the norm) is automatic, so the witness
always exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidScalars, ZeroOperator
from .matcore import _check_tol, _cube, _norm, as_complex_matrix
from .normderiv import _rho_extremes
from .stateface import StateWitness, _face_state, _unit_face


@dataclass(frozen=True)
class CubeIdentityReport:
    """Both derivatives of (x, x<x,x>) against ||x||^4."""

    rho_plus: float
    rho_minus: float
    norm_fourth: float
    max_deviation: float
    witness_square_residual: float
    max_witness: StateWitness
    min_witness: StateWitness
    within_tol: bool
    tol: float


def rho_cube_identity(x, tol: float = 1e-8) -> CubeIdentityReport:
    """Check rho_plus(x, x<x,x>) = ||x||^4 = rho_minus(x, x<x,x>).

    Also evaluates phi(<x,x>^2) = ||x||^4 for the returned witnesses,
    the intermediate equality that forces the identity.  Computed on the
    unit element u = x/||x||, for which x<x,x> has unit direction
    u<u,u> and <u, u<u,u>> = <u,u>^2, and scaled by ||x||^4 at output.
    With B = <u,u> V for the face V, the compression is V* <u,u>^2 V = B* B
    and a witness (Vz)(Vz)* gives phi(<u,u>^2) = ||B z||^2, so no n-by-n
    product is formed.
    ``within_tol``: both deviations are at most tol ||x||^4.
    """
    _check_tol(tol)
    nx, u, face = _unit_face(as_complex_matrix(x))
    b = u.conj().T @ (u @ face.isometry)
    hi, z_hi, lo, z_lo, _ = _rho_extremes(b.conj().T @ b)
    w_hi, w_lo = _face_state(face, z_hi), _face_state(face, z_lo)
    n4 = nx * nx * nx * nx
    if n4 == np.inf:
        raise ValueError("||x||^4 beyond the double range")
    r_plus, r_minus = hi * n4, lo * n4
    dev = max(abs(r_plus - n4), abs(r_minus - n4))
    wsr = max(abs(np.vdot(bz, bz).real * n4 - n4) for bz in (b @ z_hi, b @ z_lo))
    return CubeIdentityReport(
        rho_plus=r_plus, rho_minus=r_minus, norm_fourth=n4,
        max_deviation=dev, witness_square_residual=wsr,
        max_witness=w_hi, min_witness=w_lo,
        within_tol=bool(dev <= tol * n4 and wsr <= tol * n4),
        tol=tol,
    )


@dataclass(frozen=True)
class DaugavetReport:
    """||alpha x + beta x<x,x>|| against alpha ||x|| + beta ||x||^3."""

    alpha: float
    beta: float
    lhs: float
    rhs: float
    residual: float
    cube_norm_residual: float
    within_tol: bool
    tol: float


def module_daugavet_check(x, alpha: float, beta: float, tol: float = 1e-9) -> DaugavetReport:
    """Check ||alpha x + beta x<x,x>|| = alpha ||x|| + beta ||x||^3.

    Requires alpha, beta > 0; also verifies ||x<x,x>|| = ||x||^3.
    Computed on u = x/||x|| (:func:`_unit_face`), for which x<x,x> =
    ||x||^3 u<u,u>.  ``within_tol``: the residuals are at most tol times
    the right-hand side and tol ||x||^3.
    """
    _check_tol(tol)
    if not (alpha > 0.0 and beta > 0.0):
        raise InvalidScalars(f"coefficients must be positive, got ({alpha!r}, {beta!r})")
    nx, u, _ = _unit_face(as_complex_matrix(x))
    n3 = nx * nx * nx
    b = beta * nx * nx
    rhs = nx * (alpha + b)
    if n3 == np.inf or rhs == np.inf:
        raise ValueError("||x||^3 or alpha ||x|| + beta ||x||^3 beyond the double range")
    cube = _cube(u)
    lhs = nx * _norm(alpha * u + b * cube)
    residual = abs(lhs - rhs)
    cube_res = abs(_norm(cube) - 1.0) * n3
    within = residual <= tol * rhs and cube_res <= tol * n3
    return DaugavetReport(alpha=alpha, beta=beta, lhs=lhs, rhs=rhs,
                          residual=residual, cube_norm_residual=cube_res,
                          within_tol=bool(within), tol=tol)


@dataclass(frozen=True)
class OperatorWitnessReport:
    """Unit vector aligning T and T T* T, with the three attainment checks.

    ``finite_dimension_note`` records why the witness always exists here:
    every matrix is compact, so the distance hypothesis of the general
    operator statement holds automatically.
    """

    vector: np.ndarray
    norm_t: float
    norm_cube: float
    sum_norm: float
    attainment_residual: float
    cube_attainment_residual: float
    alignment_residual: float
    equation_residual: float
    within_tol: bool
    tol: float
    finite_dimension_note: str = (
        "finite-dimensional operators are compact, so the distance condition "
        "dist(T, compacts) < ||T|| is automatic and a witness always exists"
    )


def operator_daugavet_witness(t, tol: float = 1e-8) -> OperatorWitnessReport:
    """Witness vector for ||T + T T* T|| = ||T|| + ||T||^3, T nonzero.

    Returns a top right-singular vector x_o and checks ||T x_o|| = ||T||,
    ||T T* T x_o|| = ||T T* T|| = ||T||^3, and that T/||T|| and
    TT*T/||TT*T|| agree on x_o.  ||T||, S = T/||T|| and x_o, the top
    right singular vector of S, come from one decomposition
    (:func:`_unit_face`); T T* T = ||T||^3 S S* S.
    ``within_tol``: each residual is at most tol times its own scale,
    ||T||, ||T||^3, 1 (the alignment), ||T|| + ||T||^3 (the equation) and
    ||T||^3 (||T T* T||).
    """
    _check_tol(tol)
    nt, s, face = _unit_face(as_complex_matrix(t))
    if nt == 0.0:
        raise ZeroOperator("witness undefined for the zero operator")
    n3 = nt * nt * nt
    if n3 == np.inf:
        raise ValueError("||T||^3 beyond the double range")
    x_o = face.isometry[:, 0]
    cube = _cube(s)
    nc = _norm(cube)
    sum_norm = nt * _norm(s + (nt * nt) * cube)
    t_att = abs(float(np.linalg.norm(s @ x_o)) - 1.0) * nt
    c_att = abs(float(np.linalg.norm(cube @ x_o)) - nc) * n3
    align = float(np.linalg.norm(s @ x_o - cube @ x_o / nc))
    eq_res = abs(sum_norm - (nt + n3))
    checks = ((t_att, nt), (c_att, n3), (align, 1.0), (eq_res, nt + n3),
              (abs(nc - 1.0) * n3, n3))
    return OperatorWitnessReport(
        vector=x_o, norm_t=nt, norm_cube=nc * n3, sum_norm=sum_norm,
        attainment_residual=t_att, cube_attainment_residual=c_att,
        alignment_residual=align, equation_residual=eq_res,
        within_tol=all(r <= tol * s for r, s in checks), tol=tol,
    )
