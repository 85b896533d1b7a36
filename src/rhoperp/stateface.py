"""States supported on the top eigenspace of <x, x>.

A state on M_n(C) is ``a -> tr(p a)`` for a density matrix p (positive,
trace one).  The states attaining ``phi(<x, x>) = ||x||^2`` are exactly
those whose density is supported on the top eigenspace of ``<x, x>``;
this module models that eigenspace as an isometry (:class:`TopFace`),
evaluates and builds such states, compresses algebra elements to the
face, and decides whether 0 lies in the numerical range of a compression
with an explicit certificate either way:

* membership: a unit vector ``z`` with ``|z* M z| <= tol (1 + ||M||)``;
* separation: an angle ``t`` with ``lambda_max(Re(e^{it} M)) < -tol (1 + ||M||)/2``.

The decision minimizes the support function
``g(t) = lambda_max((e^{it} M + e^{-it} M*)/2)`` over the circle; for a
convex set this minimum is the signed distance from 0 to the boundary of
the range.

The membership vector comes from one construction on an inner polygon of
W(M) (see :func:`zero_in_numrange`): R. Carden, "A simple algorithm for
the inverse field of values problem", Inverse Problems 25 (2009) 115019.
A generic x gives a 1-by-1 compression [c], decided from W([c]) = {c}.

Inputs are validated once, at public entry; the ``_``-kernels trust
their arrays (complex128, finite, shapes matching).  The pair operations
share :func:`_reduce`: the top face of u = x/||x|| and G = <u, w>,
w = y/||y||.  A zero x gives u = 0, whose face is every state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotUnitVector, ShapeMismatch, ZeroElement
from .hmodule import _unit_pair, inner_product
from .matcore import (_TINY, _finite, _norm, _spectrum, as_complex_matrix,
                      operator_norm)

# Angles in the coarse scan of the support function.
_SUPPORT_GRID = 720

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# Boundary points added to the certificate's inner polygon before it stops.
_CERTIFICATE_ROUNDS = 32


@dataclass(frozen=True)
class TopFace:
    """Isometry onto the top eigenspace of <x, x> plus eigenvalue data.

    ``isometry`` is n-by-k with orthonormal columns spanning the
    eigenvectors whose eigenvalue is >= (1 - gap_tol) * lambda_max;
    ``gap`` is the distance from lambda_max to the first eigenvalue below
    the cut (+inf when the face is everything).  ``near_degenerate``
    flags spectra whose gap sits within 10 * gap_tol of the cut, where
    the face dimension is numerically unstable.
    """

    isometry: np.ndarray
    lambda_max: float
    gap: float
    gap_tol: float
    near_degenerate: bool

    @property
    def dim(self) -> int:
        return self.isometry.shape[1]


@dataclass(frozen=True)
class StateWitness:
    """Density matrix p representing the state a -> tr(p a)."""

    density: np.ndarray

    def __post_init__(self):
        d = as_complex_matrix(self.density)
        if d.shape[0] != d.shape[1]:
            raise ShapeMismatch(f"density of shape {d.shape} is not square")
        if operator_norm(d - d.conj().T) > 1e-10 * (1.0 + operator_norm(d)):
            raise ValueError("density must be Hermitian")
        eigs = np.linalg.eigvalsh((d + d.conj().T) / 2.0)
        if eigs[0] < -1e-10:
            raise ValueError(f"density has negative eigenvalue {eigs[0]:.3e}")
        _check_trace(d)
        object.__setattr__(self, "density", d)


def _check_trace(d: np.ndarray) -> None:
    tr = np.trace(d).real
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density trace {tr!r} is not 1")


def _state(d: np.ndarray) -> StateWitness:
    """StateWitness for a density Hermitian and positive by construction
    (mixtures of (Vz)(Vz)*); only the trace is checked."""
    _check_trace(d)
    p = object.__new__(StateWitness)
    object.__setattr__(p, "density", d)
    return p


def _face_state(face: TopFace, z: np.ndarray) -> StateWitness:
    """Rank-one state (Vz)(Vz)* for a unit z in face coordinates."""
    w = face.isometry @ z
    return _state(np.outer(w, w.conj()))


def maximally_mixed(n: int) -> StateWitness:
    """The tracial state I/n."""
    return _state(np.eye(n, dtype=np.complex128) / n)


def top_face(x, gap_tol: float = 1e-10) -> TopFace:
    """Top eigenspace of <x, x> as an isometry, for a nonzero element.

    Eigenvalues within ``gap_tol`` (relative) of the largest join the
    face.  Raises :class:`ZeroElement` only for the zero element, an x
    whose norm is 0 or subnormal (below ``np.finfo(float).tiny``).
    """
    x = as_complex_matrix(x)
    if _norm(x) < _TINY:
        raise ZeroElement("top face undefined for the zero element")
    return _top_face(_finite(x.conj().T @ x), gap_tol)


def _top_face(gram: np.ndarray, gap_tol: float = 1e-10) -> TopFace:
    """Top face of a Gram matrix <x, x>; the zero Gram matrix gives the
    whole space."""
    spec = _spectrum(gram)
    vals = spec.eigenvalues
    lam_max = float(vals[0])
    cut = (1.0 - gap_tol) * lam_max
    k = int(np.sum(vals >= cut))
    n = vals.shape[0]
    if k < n:
        gap = lam_max - float(vals[k])
        near = bool(vals[k] >= (1.0 - 10.0 * gap_tol) * lam_max)
    else:
        gap = np.inf
        near = False
    return TopFace(
        isometry=spec.eigenvectors[:, :k].copy(),
        lambda_max=lam_max,
        gap=gap,
        gap_tol=gap_tol,
        near_degenerate=near,
    )


def state_value(p: StateWitness, a) -> complex:
    """Evaluate the state ``tr(p a)``."""
    a = as_complex_matrix(a)
    if a.shape != p.density.shape:
        raise ShapeMismatch(f"algebra element {a.shape} vs density {p.density.shape}")
    return complex(np.trace(p.density @ a))


def face_compression(face: TopFace, a) -> np.ndarray:
    """Compression V* a V of an algebra element to the face (k-by-k)."""
    a = as_complex_matrix(a)
    v = face.isometry
    if a.shape[0] != a.shape[1] or a.shape[0] != v.shape[0]:
        raise ShapeMismatch(f"algebra element {a.shape} vs face on dimension {v.shape[0]}")
    return v.conj().T @ a @ v


def _compress(face: TopFace, a: np.ndarray) -> np.ndarray:
    """V* a V for a trusted a."""
    v = face.isometry
    return v.conj().T @ a @ v


def _reduce(x, y) -> tuple[float, float, TopFace, np.ndarray]:
    """(||x||, ||y||, top face of u, G = <u, w>) for the unit pair of
    :func:`_unit_pair`; every relation is read off the face and G."""
    nx, ny, u, w = _unit_pair(x, y)
    return nx, ny, _top_face(u.conj().T @ u), u.conj().T @ w


def state_from_face_vector(face: TopFace, zeta) -> StateWitness:
    """Rank-one state (Vz)(Vz)* from a unit vector z in face coordinates."""
    z = np.asarray(zeta, dtype=np.complex128).reshape(-1)
    if z.shape[0] != face.dim:
        raise ShapeMismatch(f"vector of length {z.shape[0]} vs face dimension {face.dim}")
    nrm = float(np.linalg.norm(z))
    if abs(nrm - 1.0) > 1e-10:
        raise NotUnitVector(f"vector has norm {nrm!r}")
    w = face.isometry @ z
    return StateWitness(np.outer(w, w.conj()))


def cauchy_schwarz_gap(p: StateWitness, x, y) -> float:
    """phi(<x,x>) phi(<y,y>) - |phi(<x,y>)|^2 for the state phi = tr(p .)."""
    xx = state_value(p, inner_product(x, x)).real
    yy = state_value(p, inner_product(y, y)).real
    xy = state_value(p, inner_product(x, y))
    return float(xx * yy - abs(xy) ** 2)


# ---------------------------------------------------------------------------
# Numerical range membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NumRangeCertificate:
    """Outcome of the zero-membership test for a numerical range.

    ``margin`` is ``min_t lambda_max(Re(e^{it} M))``: the distance from 0
    to the boundary of W(M), negative when 0 lies outside.  On membership
    ``vector`` holds the certifying unit vector and ``residual`` the
    achieved ``|z* M z|``; otherwise ``angle`` holds a separating angle.
    """

    contains_zero: bool
    margin: float
    vector: np.ndarray | None
    angle: float | None
    residual: float | None


def _support_values(m: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max(Re(e^{it} M)) for a batch of angles."""
    ph = np.exp(1j * thetas).reshape(-1, 1, 1)
    stack = (ph * m + ph.conj() * m.conj().T) / 2.0
    return np.linalg.eigvalsh(stack)[:, -1]


def _support_value(m: np.ndarray, theta: float) -> float:
    k = np.exp(1j * theta) * m
    return float(np.linalg.eigvalsh((k + k.conj().T) / 2.0)[-1])


def _golden_min(f, lo: float, hi: float, width: float = 1e-12) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    t = (a + b) / 2.0
    return t, f(t)


def _scan_min(values, value) -> tuple[float, float]:
    """Global minimum over the circle of a Lipschitz function of the angle,
    given batched (``values``) and pointwise (``value``).

    Coarse scan plus golden-section refinement around the lowest local
    grid minima; a Lipschitz constant L bounds the scan error by
    L * pi / grid.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, _SUPPORT_GRID, endpoint=False)
    vals = values(thetas)
    step = 2.0 * np.pi / _SUPPORT_GRID
    local = np.flatnonzero((vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))
    # flat curves make every grid point a local minimum; refining the few
    # lowest candidates is enough within the Lipschitz grid error
    local = local[np.argsort(vals[local], kind="stable")][:16]
    best_t, best_v = float(thetas[np.argmin(vals)]), float(np.min(vals))
    for i in local:
        t0 = thetas[i]
        t, v = _golden_min(value, t0 - step, t0 + step)
        if v < best_v:
            best_t, best_v = t, v
    return best_t % (2.0 * np.pi), best_v


def _minimize_support(m: np.ndarray) -> tuple[float, float]:
    """Global minimum of the support function over the circle (Lipschitz
    with constant ||M||); for M = c I, whose range is the point c (every
    1-by-1 M, and the zero compression of a zero x), it is -|c| (+0.0 at
    c = 0), at pi - arg c."""
    c = complex(m[0, 0])
    if m.shape[0] == 1 or not (m - c * np.eye(m.shape[0])).any():
        return float((np.pi - np.angle(c)) % (2.0 * np.pi)), 0.0 - abs(c)
    return _scan_min(lambda ts: _support_values(m, ts), lambda t: _support_value(m, t))


def _numerical_radius(m: np.ndarray) -> tuple[float, np.ndarray]:
    """w(M) = max_t lambda_max(Re(e^{it} M)) and a unit v attaining it.

    v is the top eigenvector of Re(e^{it} M) at the maximizing angle, so
    |v* M v| = w(M) up to the scan's refinement; a 1-by-1 [c] gives |c|.
    """
    if m.shape[0] == 1:
        return abs(complex(m[0, 0])), np.ones(1, dtype=np.complex128)
    t, v = _scan_min(lambda ts: -_support_values(m, ts), lambda t: -_support_value(m, t))
    k = np.exp(1j * t) * m
    return -v, np.linalg.eigh((k + k.conj().T) / 2.0)[1][:, -1]


def _quad_form(m: np.ndarray, z: np.ndarray) -> complex:
    return complex(z.conj() @ m @ z)


def _zero_quadratic_vector(c: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit z minimizing |z* C z| for Hermitian C; exact zero when the
    spectrum straddles 0 (mix the extreme eigenvectors)."""
    vals, vecs = np.linalg.eigh(c)
    lo, hi = float(vals[0]), float(vals[-1])
    if lo > 0.0:
        return vecs[:, 0], lo
    if hi < 0.0:
        return vecs[:, -1], hi
    if hi - lo == 0.0:
        return vecs[:, -1], hi
    # cos^2 s * hi + sin^2 s * lo = 0
    s = np.arctan2(np.sqrt(hi), np.sqrt(-lo))
    z = np.cos(s) * vecs[:, -1] + np.sin(s) * vecs[:, 0]
    return z / np.linalg.norm(z), 0.0


def _cross(u: complex, w: complex) -> float:
    """z-component of the planar cross product of u and w."""
    return (u.conjugate() * w).imag


def _support_points(m: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points of W(M) with the given outward normal angles.

    The point with outward normal e^{i nu} is v* M v for the top
    eigenvector v of Re(e^{-i nu} M); all angles share one eigh call.
    """
    ph = np.exp(-1j * normals).reshape(-1, 1, 1)
    _, vecs = np.linalg.eigh((ph * m + ph.conj() * m.conj().T) / 2.0)
    v = vecs[..., -1]
    return np.einsum("ti,ij,tj->t", v.conj(), m, v), v


def _carden_step(m: np.ndarray, z1: np.ndarray, z2: np.ndarray, mu: complex) -> np.ndarray:
    """Unit z in span{z1, z2} with z* M z = mu, for unit z1, z2 whose values
    bracket mu on a segment (Carden 2009, closed form).

    Rotating A = e^{-i arg(a1 - a2)} (M - mu) makes the two values real
    with opposite signs; the phase phi makes the cross term of
    z = z1 + t e^{i phi} z2 real, which leaves a real quadratic in t with
    roots of both signs.  A target at or beyond an end returns that end.
    """
    a1, a2 = _quad_form(m, z1), _quad_form(m, z2)
    if a1 == a2:
        return z1
    a = np.conj(a1 - a2) / abs(a1 - a2) * (m - mu * np.eye(m.shape[0]))
    h1, h2 = _quad_form(a, z1).real, _quad_form(a, z2).real
    if h1 <= 0.0:
        return z1
    if h2 >= 0.0:
        return z2
    c12, c21 = complex(z1.conj() @ a @ z2), complex(z2.conj() @ a @ z1)
    phase = np.exp(-1j * np.angle(c12 - np.conj(c21)))
    b = (phase * c12 + np.conj(phase) * c21).real
    # stable root of h2 t^2 + b t + h1 = 0
    t = -2.0 * h1 / (b + np.copysign(np.sqrt(b * b - 4.0 * h1 * h2), b))
    z = z1 + t * phase * z2
    return z / np.linalg.norm(z)


def _fan_certificate(m: np.ndarray, pts: np.ndarray, vecs: np.ndarray) -> np.ndarray | None:
    """Unit z with z* M z = 0 when 0 lies in a fan triangle (p0, pi, pi+1)
    of the polygon, else None: one step reaches the point q where the ray
    from p0 through 0 meets [pi, pi+1], a second goes from p0 to 0."""
    a = pts[0]
    for i in range(1, len(pts) - 1):
        b, c = pts[i], pts[i + 1]
        det = _cross(b - a, c - a)
        if det <= 1e-12 * abs(b - a) * abs(c - a):
            continue
        wb, wc = _cross(-a, c - a) / det, _cross(b - a, -a) / det
        # the slack keeps a 0 on a diagonal from falling between two triangles
        if min(wb, wc, 1.0 - wb - wc) < -1e-12:
            continue
        if wb + wc <= 1e-12:  # 0 is p0 itself
            return vecs[0]
        zq = _carden_step(m, vecs[i], vecs[i + 1], (wb * b + wc * c) / (wb + wc))
        return _carden_step(m, vecs[0], zq, 0.0)
    return None


def _nearest_on_polygon(pts: np.ndarray) -> tuple[int, complex]:
    """Index i and point q of the edge [p_i, p_{i+1}] (cyclic) nearest to 0."""
    d = np.roll(pts, -1) - pts
    den = np.abs(d) ** 2
    s = np.divide((d.conj() * -pts).real, den, out=np.zeros(len(pts)), where=den > 0.0)
    q = pts + np.clip(s, 0.0, 1.0) * d
    i = int(np.argmin(np.abs(q)))
    return i, complex(q[i])


def _zero_certificate(m: np.ndarray, theta_star: float,
                      tol_abs: float) -> tuple[np.ndarray, float]:
    """Unit z and |z* M z| from the inner polygon described in
    :func:`zero_in_numrange`; for a 1-by-1 [c], z = [1] with residual |c|."""
    if m.shape[0] == 1:
        return np.ones(1, dtype=np.complex128), abs(complex(m[0, 0]))
    normals = np.sort(-(theta_star + 0.5 * np.pi * np.arange(4)) % (2.0 * np.pi))
    pts, vecs = _support_points(m, normals)
    for _ in range(_CERTIFICATE_ROUNDS):
        z = _fan_certificate(m, pts, vecs)
        if z is not None:
            break
        i, q = _nearest_on_polygon(pts)
        z = _carden_step(m, vecs[i], vecs[(i + 1) % len(pts)], q)
        if abs(q) <= tol_abs:
            break
        nu = np.angle(-q) % (2.0 * np.pi)
        p, v = _support_points(m, np.array([nu]))
        j = int(np.searchsorted(normals, nu))
        normals, pts, vecs = (np.insert(normals, j, nu), np.insert(pts, j, p[0]),
                              np.insert(vecs, j, v[0], axis=0))
    return z, abs(_quad_form(m, z))


def zero_in_numrange(m, tol: float = 1e-9) -> NumRangeCertificate:
    """Decide 0 in W(M) with a certificate either way.

    Membership holds iff ``min_t lambda_max(Re(e^{it} M)) >= 0``; the
    decision allows slack ``tol (1 + ||M||) / 2``, so a member lies within
    that distance of W(M).  Its vector comes from an inner polygon of W(M)
    (Carden 2009) whose vertices are boundary points ``v* M v``, v a top
    eigenvector of ``Re(e^{it} M)``, first at the support minimizer and
    three quarter turns from it.  If 0 lies in a fan triangle of the
    polygon, two closed-form steps give ``z* M z = 0``; else the polygon's
    point q nearest to 0 is taken once ``|q| <= tol (1 + ||M||)``, and
    until then the boundary point with outward normal ``-q/|q|`` is added,
    at most ``_CERTIFICATE_ROUNDS`` times.  ``residual`` is the achieved
    ``|z* M z|``.  A 1-by-1 [c] gives -|c|, pi - arg c, or [1] and |c|.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"matrix of shape {m.shape} is not square")
    return _zero_in_numrange(m, tol * (1.0 + _norm(m)))


def _zero_in_numrange(m: np.ndarray, tol_abs: float) -> NumRangeCertificate:
    """:func:`zero_in_numrange` at absolute slack ``tol_abs``."""
    theta_star, g_star = _minimize_support(m)
    if g_star < -0.5 * tol_abs:
        return NumRangeCertificate(False, margin=g_star, vector=None,
                                   angle=theta_star, residual=None)
    z, r = _zero_certificate(m, theta_star, tol_abs)
    return NumRangeCertificate(True, margin=g_star, vector=z, angle=None, residual=r)
