"""Dense complex-matrix kernel: adjoint, Hermitian spectra, operator norm.

Every LAPACK call of the decision code, and every choice of route by shape
(one predicate each, under the table below), is made here:

* :func:`_norm`, the largest singular value, from :func:`_svd` without
  vectors or from the Gram matrix of the smaller side (:func:`_gram_norm`);
* :func:`_svd`, the singular values (and right vectors), from one ``zgesdd``;
* :func:`_face_spectrum`, the top of the spectrum of x* x down to the first
  eigenvalue below a face cut (:func:`_gram_face`);
* :func:`_adjoint_product_norm`, ||u* w|| (:func:`_row_ip`);
* :func:`_cube`, u u* u (:func:`_row_cube`);
* :func:`_gram`, the lower triangle of a Gram matrix a* a, from one ``zherk``;
* :func:`_top_eigh`, the top j eigenpairs (or eigenvalues) of a Hermitian
  matrix, from one subset ``zheevr`` for j < n, else one ``zheevd`` (also
  when ``zheevr`` fails or returns fewer than j);
* :func:`_rotated_top`, the top eigenvalues (or eigenvectors) of the
  rotations (e^{it} M + e^{-it} M*)/2, from one batched ``eigvalsh`` (``eigh``);
* :func:`_pencil`, the eigenvalues of a pencil, from one ``zggev`` (QZ);
* :func:`_prescaled`, the exact power-of-two division that keeps a Gram
  matrix x* x from over- or underflowing at any scale.

Inputs are validated once, at public entry; the ``_``-kernels trust
their arrays (complex128, 2-d; Hermitian by construction for ``_top_eigh``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh, eigvalsh
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import zgesdd, zggev, zheevd, zheevr

from .errors import NonHermitianInput

# Relative drift allowed before a matrix stops counting as Hermitian.
HERMITIAN_DRIFT_TOL = 1e-10

# The one zero rule: a norm below the smallest normal double counts as zero.
_TINY = np.finfo(float).tiny

# Shape routes: each kernel takes the route that its predicate below reads off
# the shape.  One BLAS thread on a 2-core Xeon, minimum of 7 runs, timed as
# "route when true/when false":
#   _gram_face    Gram + top-2 zheevr/thin zgesdd, us: 18/7.2, 36/17, 33/7.8 at
#                 2x2, 8x8, 3x8; 32/55 at 16x16.  Wide, ms: at n = 128 and
#                 m = 32, 64, 96, 120 1.6/0.60, 1.6/1.9, 1.8/3.6, 1.6/5.0; 73/0.67
#                 at 16x512, 5700/0.16 at 2x2000.
#   _gram_norm    zherk Gram + top-1 zheevr/value-only zgesdd, us: 157/198,
#                 2381/3027, 126/403, 108/564 at 40x40, 128x128, 512x16, 16x512.
#                 Known loss: 1.45, 1.15, 1.01 times as long at 9x9, 12x12,
#                 16x16 (0.84 at 24x24); no workload has a smaller side of 9-39.
#   _row_ip       no n-by-n u* w for a wide u (64 MB at 2x2000).
#   _row_cube     (u u*) u/u (u* u): 2.3/26 ms, 0.37/61 MB at 2x2000; up to 8
#                 columns u (u* u) fixes the rounding of every small output.
# _top_eigh takes zheevr for every subset, though top-2 zheevr/zheevd reads 1.4,
# 0.95, 0.55, 0.46 at n = 4, 8, 16, 40: no caller asks a subset at n <= 8.
_GRAM_ABOVE = 8


def _gram_norm(rows: int, cols: int) -> bool: return min(rows, cols) > _GRAM_ABOVE
def _gram_face(rows: int, cols: int) -> bool: return _GRAM_ABOVE < cols <= 2 * rows
def _row_ip(rows: int, cols: int) -> bool: return cols > 2 * rows and cols > _GRAM_ABOVE
def _row_cube(rows: int, cols: int) -> bool: return rows < cols and cols > _GRAM_ABOVE


def _finite(m: np.ndarray) -> np.ndarray:
    """``m`` once every entry is finite (products of valid inputs can overflow)."""
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_complex_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a 2-d complex128 array with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    return _finite(m)


def _check_tol(tol) -> None:
    """Raise ValueError unless ``tol`` is a finite number >= 0, not a bool."""
    if isinstance(tol, (bool, np.bool_)) or not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_complex_matrix(a).conj().T


def operator_norm(a) -> float:
    """Largest singular value of ``a``; equals sqrt(lambda_max(A*A))."""
    return _norm(as_complex_matrix(a))


def _norm(m: np.ndarray) -> float:
    """Largest singular value of a trusted m: the top of :func:`_svd` (no vectors),
    or on the route of :func:`_gram_norm` s sqrt(lambda_max), lambda_max >= 0 of
    the Gram matrix of the smaller side of ms = m/s (s from :func:`_prescaled`;
    for a wide ms that of ms.T, the conjugate of ms ms*, same spectrum)."""
    rows, cols = m.shape
    if not _gram_norm(rows, cols):
        return float(_svd(m, vectors=False)[0][0])
    ms, s = _prescaled(m)
    lam = _top_eigh(_gram(ms if rows >= cols else ms.T), 1, vectors=False)[0][0]
    return s * math.sqrt(max(float(lam), 0.0))


def _svd(m: np.ndarray, vectors: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(sv, vt) for a trusted m: its min(m.shape) singular values, descending,
    and row i of vt the conjugate of a unit right singular vector for sv[i],
    from one thin zgesdd; with ``vectors`` false none is computed (vt a placeholder)."""
    _, sv, vt, info = zgesdd(m, compute_uv=vectors, full_matrices=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgesdd failed (info={info})")
    return sv, vt


def _face_spectrum(xs: np.ndarray, rel: float) -> tuple[float, np.ndarray, np.ndarray]:
    """(r, vals, vecs) for a trusted m-by-n xs: r = ||xs|| and the top eigenvalues
    of xs* xs, descending, with unit eigenvectors as columns, at least down to
    the first below the cut (1 - rel) vals[0], or every nonzero one.  On the
    route of :func:`_gram_face`, the top two of the Gram matrix (:func:`_gram`,
    :func:`_top_eigh`), grown to all n when both reach a positive cut; else one thin
    :func:`_svd`: the squared singular values and right singular vectors."""
    if _gram_face(*xs.shape):
        gram = _gram(xs)
        vals, vecs = _top_eigh(gram, 2)
        if vals[-1] >= (1.0 - rel) * vals[0] > 0.0:
            vals, vecs = _top_eigh(gram, len(gram))
        return math.sqrt(vals[0]), vals, vecs
    sv, vt = _svd(xs)
    return float(sv[0]), sv * sv, vt.conj().T


def _adjoint_product_norm(u: np.ndarray, w: np.ndarray) -> float:
    """||u* w|| for trusted m-by-n u, w; on the route of :func:`_row_ip`, with Q
    the eigenvectors of the m-by-m u u*, ||diag(b) Q* w|| for b the row norms
    of Q* u (the rows are orthogonal), not the roots of the eigenvalues,
    whose rounding eps would give an error sqrt(eps) on an orthogonal pair."""
    if _row_ip(*u.shape):
        qh = _top_eigh(_gram(u.conj().T), u.shape[0])[1].conj().T
        return _norm(np.linalg.norm(qh @ u, axis=1)[:, None] * (qh @ w))
    return _norm(u.conj().T @ w)


def _cube(u: np.ndarray) -> np.ndarray:
    """u u* u for a trusted u: (u u*) u on the route of :func:`_row_cube`."""
    if _row_cube(*u.shape):
        return (u @ u.conj().T) @ u
    return u @ (u.conj().T @ u)


def _gram(a: np.ndarray) -> np.ndarray:
    """a* a for a trusted a, from one zherk: only its lower triangle is set,
    which is all that :func:`_top_eigh` reads."""
    return zherk(1.0, a, trans=2, lower=1)


def _top_eigh(h: np.ndarray, j: int, vectors: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors): at least the j largest eigenpairs of a trusted
    Hermitian h (its lower triangle is read), values descending, column i
    of vectors a unit eigenvector for value i.  Both are reversed views of
    LAPACK's ascending output, so exactly equal eigenvalues come in the
    reverse of LAPACK's order; any basis of their eigenspace is valid.
    With ``vectors`` false no eigenvector is computed: only values count.

    One LAPACK call: exactly j pairs from zheevr (range "I") for j < n, else
    the full spectrum from zheevd.  zheevr can drop the index range without
    an error (info 0 and no eigenvalue, on a split tridiagonal form), so its
    count m is checked: on m != j or info != 0 the full spectrum is taken
    instead.
    """
    n = h.shape[0]
    if j < n:
        vals, vecs, m, _, info = zheevr(h, compute_v=vectors, range="I", il=n - j + 1, iu=n,
                                        lower=1)
        if info == 0 and m == j:
            return vals[j - 1::-1], vecs[:, ::-1]
    vals, vecs, info = zheevd(h, compute_v=vectors, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd failed (info={info})")
    return vals[::-1], vecs[:, ::-1]


def _rotated_top(m: np.ndarray, thetas: np.ndarray, vectors: bool = False) -> np.ndarray:
    """lambda_max of (e^{it} M + e^{-it} M*)/2 for each angle t of thetas, a
    trusted square m, from one eigvalsh on the stack of rotations; with
    ``vectors``, row i a unit top eigenvector for angle i, from one eigh."""
    ph = np.exp(1j * thetas).reshape(-1, 1, 1)
    stack = (ph * m + ph.conj() * m.conj().T) / 2.0
    return eigh(stack)[1][..., -1] if vectors else eigvalsh(stack)[:, -1]


def _pencil(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta), the eigenvalues alpha/beta of the pencil z B - A, from
    one zggev without vectors at its minimal workspace (A and B are kept);
    beta = 0 marks an infinite, alpha = beta = 0 an undetermined eigenvalue."""
    alpha, beta, _, _, _, info = zggev(a, b, compute_vl=0, compute_vr=0)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zggev")
    if info > 0:
        raise np.linalg.LinAlgError(f"zggev did not converge (info={info})")
    return alpha, beta


def _prescaled(m: np.ndarray) -> tuple[np.ndarray, float]:
    """(m/s, s) for the power of two s that puts the largest real or
    imaginary part of m in [1, 2) (s = 1 for m = 0).  Each part is scaled
    by ldexp, exactly and with no intermediate 1/s, so no s from the
    subnormal range to 2**1023 can overflow; the Gram matrix of m/s has
    entries below 8 times the row count of m."""
    parts = np.ascontiguousarray(m).view(np.float64)
    big = float(np.abs(parts).max())
    e = math.frexp(big)[1] - 1 if big else 0
    return np.ldexp(parts, -e).view(np.complex128), math.ldexp(1.0, e)


@dataclass(frozen=True)
class HermitianSpectrum:
    """Spectral decomposition of a Hermitian matrix: ``eigenvalues`` real and
    descending, column ``i`` of ``eigenvectors`` a unit eigenvector for
    ``eigenvalues[i]``, the columns an orthonormal basis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_spectrum(h) -> HermitianSpectrum:
    """Spectral decomposition of a (numerically) Hermitian matrix.

    Drift up to ``HERMITIAN_DRIFT_TOL`` relative is symmetrized away, and
    anything beyond raises :class:`NonHermitianInput` (:func:`_hermitian_part`);
    the solve runs on the prescaled matrix, and the eigenvalues are scaled back.
    """
    m = as_complex_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"matrix of shape {m.shape} is not square")
    h, s = _hermitian_part(m)
    vals, vecs = _top_eigh(h, len(h))
    return HermitianSpectrum(vals * s, vecs)


def _hermitian_part(m: np.ndarray) -> tuple[np.ndarray, float]:
    """(Hermitian part of m/s, s) for a trusted square m, s from :func:`_prescaled`; the
    one Hermitian rule: NonHermitianInput when ||m - m*|| > HERMITIAN_DRIFT_TOL ||m|| on m/s."""
    m, s = _prescaled(m)
    drift = _norm(m - m.conj().T)
    if drift > HERMITIAN_DRIFT_TOL * _norm(m):
        raise NonHermitianInput(f"matrix deviates from Hermitian by {drift * s:.3e} "
                                f"(relative tol {HERMITIAN_DRIFT_TOL:.1e})")
    return (m + m.conj().T) / 2.0, s
