"""Dense complex-matrix kernel: adjoint, Hermitian spectra, operator norm.

Every LAPACK call on a whole matrix goes through one choke point here:

* :func:`_norm`, the largest singular value, from one ``zgesdd`` without
  vectors (an SVD, so that the brute-force oracles' norms stay
  independent of the eigensolves they check);
* :func:`_top_eigh`, the top j eigenpairs of a Hermitian matrix, from one
  ``zheevd`` (the full spectrum) up to order ``_SUBSET_ABOVE`` and one
  subset ``zheevr`` (exactly j pairs) above it, with ``zheevd`` taken
  instead whenever ``zheevr`` reports failure or returns fewer than j;
* :func:`_prescaled`, the division by an exact power of two that keeps
  a Gram matrix x* x from over- or underflowing at any scale.

Inputs are validated once, at public entry; the ``_``-kernels trust
their arrays (complex128, 2-d, and Hermitian by construction for
``_spectrum`` and ``_top_eigh``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgesdd, zheevd, zheevr

from .errors import NonHermitianInput

# Relative drift allowed before a matrix stops counting as Hermitian.
HERMITIAN_DRIFT_TOL = 1e-10

# The one zero rule: a norm below the smallest normal double counts as zero.
_TINY = np.finfo(float).tiny

# Order above which the top eigenpairs come from a subset zheevr instead of
# the full spectrum of zheevd.  With one BLAS thread on a 2-core Xeon, a
# top-2 zheevr took 1.4 times as long as zheevd at n = 4, 0.95 times at
# n = 8, 0.55 times at n = 16 and 0.46 times at n = 40.
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


def _top_eigh(h: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors): at least the j largest eigenpairs of a trusted
    Hermitian h (its lower triangle is read), values descending, ties kept
    in LAPACK's order, column i of vectors a unit eigenvector for value i.

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
            return _descending(vals[:j], vecs)
    vals, vecs, info = zheevd(h, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd failed (info={info})")
    return _descending(vals, vecs)


def _descending(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # stable, so that a degenerate block keeps the factorization's basis order
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


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
    """Full spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; column ``i`` of
    ``eigenvectors`` is a unit eigenvector for ``eigenvalues[i]`` and the
    columns form an orthonormal basis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_spectrum(h) -> HermitianSpectrum:
    """Spectral decomposition of a (numerically) Hermitian matrix.

    Drift up to ``HERMITIAN_DRIFT_TOL`` relative is silently symmetrized
    away; anything beyond raises :class:`NonHermitianInput`.
    """
    m = as_complex_matrix(h)
    if m.shape[0] != m.shape[1]:
        raise NonHermitianInput(f"matrix of shape {m.shape} is not square")
    drift = operator_norm(m - m.conj().T)
    if drift > HERMITIAN_DRIFT_TOL * (1.0 + operator_norm(m)):
        raise NonHermitianInput(f"matrix deviates from Hermitian by {drift:.3e} "
                                f"(relative tol {HERMITIAN_DRIFT_TOL:.1e})")
    return _spectrum(m)


def _spectrum(m: np.ndarray) -> HermitianSpectrum:
    """Spectrum of the Hermitian part (m + m*)/2, without the drift check
    of :func:`hermitian_spectrum`: for matrices Hermitian by construction
    (x* x) up to rounding, and for Re V* G V."""
    vals, vecs = _top_eigh((m + m.conj().T) / 2.0, m.shape[0])
    return HermitianSpectrum(vals, vecs)
