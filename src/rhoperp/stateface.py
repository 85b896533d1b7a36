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
the range; its maximum is the numerical radius w(M).  Both come from one
level-set search, with no angle grid (:func:`_support_extremum`), each
level one QZ solve of a pencil (``matcore._pencil``).  Where 0
lies on or beyond an edge of W(M) the minimum is a kink of g; the search
also tries, on each arc between level-set angles, the normal of the chord
between the arc's two boundary points, which lands on such a kink at once.

The membership vector comes from one construction on an inner polygon of
W(M) (see :func:`zero_in_numrange`): R. Carden, "A simple algorithm for
the inverse field of values problem", Inverse Problems 25 (2009) 115019.
A generic x gives a 1-by-1 compression [c], decided from W([c]) = {c}.

Inputs are validated once, at public entry; the ``_``-kernels trust
their arrays (complex128, finite, shapes matching).  The pair operations
share :func:`_reduce`, which gives G* V and C = V* G V for G = <u, w>
without forming G.  A zero x gives u = 0, whose face is every state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NotUnitVector, ShapeMismatch, ZeroElement
from .hmodule import _as_pair, _unit, inner_product
from .matcore import (_TINY, _check_tol, _face_spectrum, _finite, _hermitian_part, _norm,
                      _pencil, _prescaled, _rotated_top, _top_eigh, as_complex_matrix)

# |z| within this of 1 marks a level-set point.  Rounding splits the double
# root of a tangent level off the circle by ~(eps ||M|| / |h''|)^(1/2); a loose
# threshold only adds arcs, a tight one can merge arcs and stop early.
_UNIMODULAR_TOL = 1e-3

# Boundary points added to the certificate's inner polygon before it stops.
_CERTIFICATE_ROUNDS = 32

# Relative cut below lambda_max(<x, x>) that still joins the top face.
_FACE_GAP_TOL = 1e-10


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
    """Density matrix p of the state a -> tr(p a), Hermitian as in ``hermitian_spectrum``."""

    density: np.ndarray

    def __post_init__(self):
        d = as_complex_matrix(self.density)
        if d.shape[0] != d.shape[1]:
            raise ShapeMismatch(f"density of shape {d.shape} is not square")
        h, s = _hermitian_part(d)  # NonHermitianInput is a ValueError
        low = _top_eigh(h, len(h), vectors=False)[0][-1] * s
        if low < -1e-10:
            raise ValueError(f"density has negative eigenvalue {low:.3e}")
        _check_trace(d)
        object.__setattr__(self, "density", d)


def _check_trace(d: np.ndarray) -> None:
    tr = np.trace(d).real
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density trace {tr!r} is not 1")


def _face_state(face: TopFace, z: np.ndarray) -> StateWitness:
    """Rank-one state (Vz)(Vz)* for a unit z in face coordinates; its density
    is Hermitian and positive by construction, so only the trace is checked."""
    w = face.isometry @ z
    d = np.outer(w, w.conj())
    _check_trace(d)
    p = object.__new__(StateWitness)
    object.__setattr__(p, "density", d)
    return p


def maximally_mixed(n: int) -> StateWitness:
    """The tracial state I/n."""
    return StateWitness(np.eye(n) / n)


def top_face(x) -> TopFace:
    """Top eigenspace of <x, x> as an isometry, for a nonzero element.

    Eigenvalues within ``_FACE_GAP_TOL`` (relative) of the largest join
    the face.  Raises :class:`ZeroElement` only for the zero element, an
    x whose norm is 0 or subnormal (below ``np.finfo(float).tiny``).  It
    is the face of u = x/||x|| from :func:`_unit_face`, with eigenvalues
    scaled back by ||x||^2.
    """
    nx, _, face = _unit_face(as_complex_matrix(x))
    if nx == 0.0:
        raise ZeroElement("top face undefined for the zero element")
    n2 = nx * nx
    if n2 == np.inf:
        raise ValueError("||x||^2 beyond the double range")
    return replace(face, lambda_max=n2, gap=face.gap * n2)


def _unit_face(x: np.ndarray) -> tuple[float, np.ndarray, TopFace]:
    """(||x||, u = x/||x||, top face of <u, u>) for a trusted x, from one
    decomposition of xs = x/s, s the exact power of two of :func:`_prescaled`
    (so 2^j x gives the same u): with r = ||xs|| and the top of the spectrum
    of <xs, xs> down to the face cut from :func:`_face_spectrum`, ||x|| = s r
    and u = xs/r.  The face, its gap and its near-degeneracy flag are read
    relative to r^2; a norm below the smallest normal double gives (0.0, 0,
    the whole space).
    """
    xs, s = _prescaled(x)
    n = xs.shape[1]
    root, vals, vecs = _face_spectrum(xs, _FACE_GAP_TOL)
    nx = s * root
    if nx == np.inf:
        raise ValueError("module norm beyond the double range")
    if nx < _TINY:
        return 0.0, np.zeros_like(xs), TopFace(np.eye(n, dtype=np.complex128), 0.0,
                                               np.inf, _FACE_GAP_TOL, False)
    lam = float(vals[0])
    k = np.count_nonzero(vals >= (1.0 - _FACE_GAP_TOL) * lam)
    # the largest eigenvalue below the face; none (gap inf) if k = n
    below = float(vals[k]) if k < len(vals) else 0.0 if k < n else -np.inf
    gap, near = (lam - below) / lam, below >= (1.0 - 10.0 * _FACE_GAP_TOL) * lam
    return nx, xs / root, TopFace(vecs[:, :k], 1.0, gap, _FACE_GAP_TOL, near)


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
    if a.shape != (len(v), len(v)):
        raise ShapeMismatch(f"algebra element {a.shape} vs face on dimension {len(v)}")
    return v.conj().T @ a @ v


def _reduce(x, y) -> tuple[float, float, np.ndarray, np.ndarray, TopFace, np.ndarray, np.ndarray]:
    """(||x||, ||y||, u, w, top face V of u, G* V, C = V* G V) for the validated pair:
    ||x||, u = x/||x|| and V from :func:`_unit_face`, ||y||, w = y/||y|| from one SVD;
    G = <u, w> is not formed, G* V = w* (u V) is n-by-k and C = (G* V)* V k-by-k."""
    x, y = _as_pair(x, y)
    nx, u, face = _unit_face(x)
    ny, w = _unit(y)
    gv = w.conj().T @ (u @ face.isometry)
    return nx, ny, u, w, face, gv, gv.conj().T @ face.isometry


def state_from_face_vector(face: TopFace, zeta) -> StateWitness:
    """Rank-one state (Vz)(Vz)* from a unit vector z in face coordinates."""
    z = np.asarray(zeta, dtype=np.complex128).reshape(-1)
    if z.shape[0] != face.dim:
        raise ShapeMismatch(f"vector of length {z.shape[0]} vs face dimension {face.dim}")
    nrm = float(np.linalg.norm(_finite(z)))
    if abs(nrm - 1.0) > 1e-10:
        raise NotUnitVector(f"vector has norm {nrm!r}")
    return _face_state(face, z)


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


def _unimodular_eigvals(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Eigenvalues z = alpha/beta of the pencil z B - A (``matcore._pencil``)
    with ||z| - 1| within _UNIMODULAR_TOL.  Only beta != 0 is divided: the
    infinite and the undetermined (alpha = beta = 0) are never unimodular."""
    alpha, beta = _pencil(pa, pb)
    finite = beta != 0.0
    z = alpha[finite] / beta[finite]
    return z[np.abs(np.abs(z) - 1.0) <= _UNIMODULAR_TOL]


def _support_extremum(m: np.ndarray, sign: float) -> tuple[float, float]:
    """(t, h(t)) at the maximum (sign = 1) or minimum (sign = -1) of
    h(t) = lambda_max(Re(e^{it} M)) over the circle, h(t) always evaluated.

    Level sets (Mengi and Overton 2005): the angles where gamma is an
    eigenvalue of Re(e^{it} M) are the unimodular eigenvalues z = e^{it} of
    z^2 M - 2 gamma z I + M*, by QZ on a linearisation (scaled by ||M||_F so
    that its blocks balance) that allows a singular M: one QZ solve per
    level (:func:`_unimodular_eigvals`).  On each arc between them and t,
    h - gamma keeps one sign, so at gamma = h(t) the best arc midpoint
    improves on t unless t is extreme.  A minimum may sit on a kink
    of h, at the normal e^{-it} of an edge of W(M), where h is the larger of
    the sinusoids Re(e^{it} p) of the edge's ends p.  So each arc also offers
    the angle where the sinusoids of the boundary points p1, p2 at its ends
    cross, e^{it}(p1 - p2) imaginary: once the ends lie on either side of a
    kink, p1 and p2 are the edge's ends and that angle is the kink.  A
    maximum is never a kink.  Starts from the best of 8 equal angles; stops
    when no candidate gains a few ulps of ||M||_F.
    """
    k = len(m)
    a = float(np.abs(m).max()) or 1.0  # ||M||_F via M/a: no over- or underflow
    scale = a * float(np.linalg.norm(m / a)) or 1.0
    # the pencil z B - A, with A = [[0, I], [-M*, 2 gamma I]] and
    # B = [[I, 0], [0, M]] over ||M||_F; each level writes only gamma
    pa, pb = np.zeros((2, 2 * k, 2 * k), dtype=np.complex128)
    pa[:k, k:] = pb[:k, :k] = np.eye(k)
    pa[k:, :k], pb[k:, k:] = -m.conj().T / scale, m / scale
    t, best, slack = 0.0, -np.inf, 4.0 * np.finfo(float).eps * scale
    ts = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    while True:
        vals = sign * _rotated_top(m, ts)
        i = int(np.argmax(vals))
        if vals[i] <= best + slack:
            break
        t, best = float(ts[i]), float(vals[i])
        np.fill_diagonal(pa[k:, k:], 2.0 * sign * best / scale)
        z = np.append(_unimodular_eigvals(pa, pb), np.exp(1j * t))
        cuts = np.sort(np.angle(z))
        arcs = np.diff(cuts, append=cuts[:1] + 2.0 * np.pi)
        ts = cuts + arcs / 2.0
        if sign < 0.0:
            p = _support_points(m, -cuts)[0]
            off = (0.5 * np.pi - np.angle(np.diff(p, append=p[:1])) - cuts) % np.pi
            ts = np.append(ts, (cuts + off)[off < arcs])
    return t % (2.0 * np.pi), sign * best


def _minimize_support(m: np.ndarray) -> tuple[float, float]:
    """Global minimum of the support function over the circle; for M = c I,
    whose range is the point c (every 1-by-1 M, and the zero compression
    of a zero x), it is -|c| (+0.0 at c = 0), at pi - arg c."""
    c = complex(m[0, 0])
    if m.shape[0] == 1 or not (m - c * np.eye(m.shape[0])).any():
        return float((np.pi - np.angle(c)) % (2.0 * np.pi)), 0.0 - abs(c)
    return _support_extremum(m, -1.0)


def _numerical_radius(m: np.ndarray) -> tuple[float, complex]:
    """w(M) = max_t lambda_max(Re(e^{it} M)) and p = v* M v, the support point
    of W(M) at the maximizing angle (v the top eigenvector of Re(e^{it} M)):
    |p| = w(M) to the accuracy of the level-set search; [c] gives |c| and c."""
    if m.shape[0] == 1:
        return abs(complex(m[0, 0])), complex(m[0, 0])
    t, w = _support_extremum(m, 1.0)
    return w, complex(_support_points(m, np.array([-t]))[0][0])


def _quad_form(m: np.ndarray, z: np.ndarray) -> complex:
    return complex(z.conj() @ m @ z)


def _cross(u: complex, w: complex) -> float:
    """z-component of the planar cross product of u and w."""
    return (u.conjugate() * w).imag


def _support_points(m: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary points v* M v of W(M) with outward normals e^{i nu}, v the top
    eigenvector of Re(e^{-i nu} M), and those v, from one ``_rotated_top``."""
    v = _rotated_top(m, -normals, vectors=True)
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
    It decides on M/s, s the power of two of :func:`matcore._prescaled`
    (the largest real or imaginary part of M/s in [1, 2); exact, and no
    step can overflow), and scales the margin and residual back.
    """
    _check_tol(tol)
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"matrix of shape {m.shape} is not square")
    ms, s = _prescaled(m)
    res = _zero_in_numrange(ms, 0.5 * tol * (1.0 / s + _norm(ms)))
    residual = None if res.residual is None else res.residual * s
    return replace(res, margin=res.margin * s, residual=residual)


def _zero_in_numrange(m: np.ndarray, slack: float) -> NumRangeCertificate:
    """0 in W(M) iff min_t g(t) >= -slack; a member gets |z* M z| <= 2 slack."""
    theta_star, g_star = _minimize_support(m)
    if g_star < -slack:
        return NumRangeCertificate(False, margin=g_star, vector=None,
                                   angle=theta_star, residual=None)
    z, r = _zero_certificate(m, theta_star, 2.0 * slack)
    return NumRangeCertificate(True, margin=g_star, vector=z, angle=None, residual=r)
