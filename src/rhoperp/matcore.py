"""Dense complex-matrix kernel: adjoint, Hermitian spectra, operator norm.

Every LAPACK call of the decision code goes through one choke point here:

* :func:`_norm`, the largest singular value, from one ``zgesdd`` without
  vectors (an SVD, so the oracles' norms stay apart from the eigensolves);
* :func:`_svd`, the singular values and right vectors, from one ``zgesdd``;
* :func:`_top_eigh`, the top j eigenpairs of a Hermitian matrix, from one
  ``zheevd`` up to order ``_SUBSET_ABOVE`` and one subset ``zheevr`` above
  it (``zheevd`` again when ``zheevr`` fails or returns fewer than j);
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
# 35.9/33.2 us; at 16x16 the SVD took 55 us and the Gram route 32 us.
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
    """Largest singular value of a trusted m: one zgesdd without vectors."""
    _, sv, _, info = zgesdd(m, compute_uv=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgesdd failed (info={info})")
    return float(sv[0])


def _svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sv, vt) for a trusted m: its min(m.shape) singular values, descending,
    and row i of vt the conjugate of a unit right singular vector for sv[i],
    from one thin zgesdd with vectors."""
    _, sv, vt, info = zgesdd(m, compute_uv=1, full_matrices=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"zgesdd failed (info={info})")
    return sv, vt


def _top_eigh(h: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors): at least the j largest eigenpairs of a trusted
    Hermitian h (its lower triangle is read), values descending, column i
    of vectors a unit eigenvector for value i.  Both are reversed views of
    LAPACK's ascending output, so exactly equal eigenvalues come in the
    reverse of LAPACK's order; any basis of their eigenspace is valid.

    One LAPACK call: the full spectrum from zheevd at order up to
    ``_SUBSET_ABOVE`` or for j >= n, else exactly j pairs from zheevr
    (range "I").  zheevr can drop the index range without an error (info 0
    and no eigenvalue, on a split tridiagonal form), so its count m is
    checked: on m != j or info != 0 the full spectrum is taken instead.
    """
    n = h.shape[0]
    if _SUBSET_ABOVE < n and j < n:
        vals, vecs, m, _, info = zheevr(h, range="I", il=n - j + 1, iu=n, lower=1)
        if info == 0 and m == j:
            return vals[j - 1::-1], vecs[:, ::-1]
    vals, vecs, info = zheevd(h, lower=1)
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

    Drift up to ``HERMITIAN_DRIFT_TOL`` relative is silently symmetrized
    away; anything beyond raises :class:`NonHermitianInput`.  Both the
    drift check and the solve run on the :func:`_prescaled` matrix, so no
    finite entry overflows; the eigenvalues are scaled back.
    """
    m = as_complex_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"matrix of shape {m.shape} is not square")
    m, s = _prescaled(m)
    drift = _norm(m - m.conj().T)
    if drift > HERMITIAN_DRIFT_TOL * _norm(m):
        raise NonHermitianInput(f"matrix deviates from Hermitian by {drift * s:.3e} "
                                f"(relative tol {HERMITIAN_DRIFT_TOL:.1e})")
    vals, vecs = _top_eigh((m + m.conj().T) / 2.0, len(m))
    return HermitianSpectrum(vals * s, vecs)
