"""Dense complex-matrix kernel: adjoint, Hermitian spectra, operator norm.

Everything else in the package reduces to these three facts about a
matrix: its conjugate transpose, the spectral decomposition of its
Hermitian part, and its largest singular value.  Inputs are validated
once, at public entry; the ``_``-kernels trust their arrays (complex128,
2-d, and Hermitian by construction for ``_spectrum``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianInput

# Relative drift allowed before a matrix stops counting as Hermitian.
HERMITIAN_DRIFT_TOL = 1e-10

# The one zero rule: a norm below the smallest normal double counts as zero.
_TINY = np.finfo(float).tiny


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
    return float(np.linalg.svd(m, compute_uv=False)[0])


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
    sym = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    # stable so that degenerate blocks keep the factorization's basis order
    order = np.argsort(-vals, kind="stable")
    return HermitianSpectrum(vals[order].copy(), vecs[:, order].copy())
