"""Dense complex-matrix kernel: adjoint, Hermitian spectra, operator norm.

Every LAPACK call of the decision code goes through one choke point here:

* :func:`_norm`, the largest singular value: one ``zgesdd`` without vectors
  while the smaller side is at most ``_SUBSET_ABOVE``, else the top
  eigenvalue of the Gram matrix of that side, from :func:`_gram` and one
  values-only :func:`_top_eigh`;
* :func:`_singular_values`, all of them, from one ``zgesdd`` without vectors;
* :func:`_svd`, the singular values and right vectors, from one ``zgesdd``;
* :func:`_gram`, the lower triangle of a Gram matrix a* a, from one ``zherk``;
* :func:`_top_eigh`, the top j eigenpairs (or eigenvalues) of a Hermitian
  matrix, from one ``zheevd`` up to order ``_SUBSET_ABOVE`` and one subset
  ``zheevr`` above it (``zheevd`` again when ``zheevr`` fails or returns
  fewer than j);
* :func:`_min_eigval`, the smallest eigenvalue: one ``zheevd`` without vectors;
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

# Order above which the top eigenpairs come from a subset zheevr instead of
# the full spectrum of zheevd.  With one BLAS thread on a 2-core Xeon, a
# top-2 zheevr took 1.4 times as long as zheevd at n = 4, 0.95 times at
# n = 8, 0.55 times at n = 16 and 0.46 times at n = 40.  It also splits
# stateface._unit_face: a zgesdd with vectors took 7.2/6.9/16.7/7.8 us at
# 2x2/4x4/8x8/3x8, the Gram matrix and its top two eigenpairs 18.2/17.9/
# 35.9/33.2 us; at 16x16 the SVD took 55 us and the Gram route 32 us.  A wide
# m-by-n x (n > 2m) keeps the SVD: at n = 128 and m = 32/64/96/120 it took
# 0.60/1.9/3.6/5.0 ms, the Gram route 1.6/1.6/1.8/1.6 ms; 0.67 ms against
# 73 ms at 16x512 and 0.16 ms against 5.7 s at 2x2000.  It splits _norm by
# the smaller side: a value-only zgesdd took 198/615/3027/403/534/564 us at
# 40x40/64x64/128x128/512x16/256x32/16x512, one zherk Gram matrix and its top
# eigenvalue 157/427/2381/126/186/108 us (minimum of 7 interleaved runs),
# within 6e-16 relative; the Gram route was 0.83 and 0.94 times as fast at
# 12x12 and 16x16 (5 and 3 us lost), and 0.43 times at 8x3.
_SUBSET_ABOVE = 8


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
    """Raise ValueError unless ``tol`` is a finite number >= 0."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_complex_matrix(a).conj().T


def operator_norm(a) -> float:
    """Largest singular value of ``a``; equals sqrt(lambda_max(A*A))."""
    return _norm(as_complex_matrix(a))


def _norm(m: np.ndarray) -> float:
    """Largest singular value of a trusted m.  While min(m.shape) is at most
    ``_SUBSET_ABOVE`` it is the top value of one zgesdd without vectors, the
    same call as :func:`_singular_values` made in place, as small elements
    take it many times per operation; above, it is
    s sqrt(lambda_max) for the Gram matrix of the smaller side of ms = m/s
    (s from :func:`_prescaled`), lambda_max clamped at 0.  For a wide ms that
    Gram matrix is the one of ms.T, the conjugate of ms ms*, same spectrum."""
    rows, cols = m.shape
    if rows <= _SUBSET_ABOVE or cols <= _SUBSET_ABOVE:
        _, sv, _, info = zgesdd(m, compute_uv=0)
        if info != 0:
            raise np.linalg.LinAlgError(f"zgesdd failed (info={info})")
        return float(sv[0])
    ms, s = _prescaled(m)
    lam = _top_eigh(_gram(ms if rows >= cols else ms.T), 1, vectors=False)[0][0]
    return s * math.sqrt(max(float(lam), 0.0))


def _singular_values(m: np.ndarray) -> np.ndarray:
    """The min(m.shape) singular values of a trusted m, descending, from one
    zgesdd without vectors."""
    _, sv, _, info = zgesdd(m, compute_uv=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgesdd failed (info={info})")
    return sv


def _svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sv, vt) for a trusted m: its min(m.shape) singular values, descending,
    and row i of vt the conjugate of a unit right singular vector for sv[i],
    from one thin zgesdd with vectors."""
    _, sv, vt, info = zgesdd(m, compute_uv=1, full_matrices=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgesdd failed (info={info})")
    return sv, vt


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

    One LAPACK call: the full spectrum from zheevd at order up to
    ``_SUBSET_ABOVE`` or for j >= n, else exactly j pairs from zheevr
    (range "I").  zheevr can drop the index range without an error (info 0
    and no eigenvalue, on a split tridiagonal form), so its count m is
    checked: on m != j or info != 0 the full spectrum is taken instead.
    """
    n = h.shape[0]
    if _SUBSET_ABOVE < n and j < n:
        vals, vecs, m, _, info = zheevr(h, compute_v=vectors, range="I", il=n - j + 1, iu=n,
                                        lower=1)
        if info == 0 and m == j:
            return vals[j - 1::-1], vecs[:, ::-1]
    vals, vecs, info = zheevd(h, compute_v=vectors, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd failed (info={info})")
    return vals[::-1], vecs[:, ::-1]


def _min_eigval(h: np.ndarray) -> float:
    """lambda_min of a trusted Hermitian h (its lower triangle is read)."""
    vals, _, info = zheevd(h, compute_v=0, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd failed (info={info})")
    return float(vals[0])


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
