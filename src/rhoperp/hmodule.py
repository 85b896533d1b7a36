"""The Hilbert C*-module of m-by-n complex matrices over M_n(C).

Conventions used throughout the package:

* module elements are m-by-n arrays, algebra elements are n-by-n arrays;
* the algebra-valued inner product is ``<x, y> = x* y`` (linear in the
  second argument), so the module acts on the right, ``x . a = x @ a``;
* the module norm ``||x|| = ||<x, x>||^(1/2)`` coincides with the largest
  singular value of ``x``.

Only full matrix algebras are supported as coefficients.  Under the
x*y convention only ``Re phi(<x, y>)`` enters any formula downstream,
and that value is symmetric in the two arguments, so results stated for
the first-variable-linear convention hold verbatim.

Every relation is homogeneous in x and in y, so every pair operation
reads its result off the unit pair u = x/||x||, w = y/||y||: x, with the
top face of <x, x>, from ``stateface._unit_face``; y, and both elements of
the oracle ``normderiv.rho_fd``, from the value-only :func:`_unit`, whose
norm is one value-only SVD up to a smaller side of 8 and the top eigenvalue
of the Gram matrix of the smaller side above (``matcore._norm``).  The
zero element (norm below the smallest normal double) scales to 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .matcore import _TINY, _norm, as_complex_matrix, operator_norm


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = as_complex_matrix(x)
    y = as_complex_matrix(y)
    if x.shape != y.shape:
        raise ShapeMismatch(f"module elements of shapes {x.shape} and {y.shape}")
    return x, y


def _unit(m: np.ndarray) -> tuple[float, np.ndarray]:
    """(||m||, m/||m||) for a trusted m; (0.0, 0) when m counts as zero."""
    n = _norm(m)
    if n == np.inf:
        raise ValueError("module norm beyond the double range")
    if n < _TINY:
        return 0.0, np.zeros_like(m)
    return n, m / n


def inner_product(x, y) -> np.ndarray:
    """Algebra-valued inner product ``<x, y> = x* y`` (an n-by-n matrix)."""
    x, y = _as_pair(x, y)
    return x.conj().T @ y


def module_norm(x) -> float:
    """Module norm ``||<x, x>||^(1/2)``, i.e. the largest singular value."""
    return operator_norm(x)


def module_action(x, a) -> np.ndarray:
    """Right action of the algebra element ``a`` on ``x``, the product x @ a."""
    x = as_complex_matrix(x)
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"algebra element of shape {a.shape} is not square")
    if x.shape[1] != a.shape[0]:
        raise ShapeMismatch(
            f"module element with {x.shape[1]} columns cannot carry a {a.shape[0]}-dim algebra"
        )
    return x @ a
