"""Exception types raised by the public operations."""


class RhoperpError(Exception):
    """Base class for all library-specific errors."""


class ShapeMismatch(RhoperpError):
    """Operands have incompatible matrix shapes."""


class NonHermitianInput(RhoperpError, ValueError):
    """Matrix deviates from Hermitian beyond the allowed drift."""


class ZeroElement(RhoperpError):
    """Operation undefined for the zero module element."""


class NotUnitVector(RhoperpError):
    """Vector is not normalized to unit Euclidean length."""


class NoConvergence(RhoperpError):
    """Iterative difference quotients failed to settle."""


class PreconditionFailed(RhoperpError):
    """Required orthogonality relation does not hold for the inputs."""


class InvalidScalars(RhoperpError):
    """Scalar coefficients outside the admissible range."""


class ZeroOperator(RhoperpError):
    """Operation undefined for the zero operator."""
