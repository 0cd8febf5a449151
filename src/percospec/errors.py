"""Exception types shared across the package."""


class BudgetError(RuntimeError):
    """A resource cap was hit: the vertex budget, the dense eigensolver cap or
    the int64 range of a ball's key words (a column spanning 2^63 values).
    The CLI maps it, and a failed allocation's ``MemoryError``, to exit 2."""


class LapackError(RuntimeError):
    """A LAPACK routine bound from ``scipy.linalg.cython_lapack`` cannot be
    used: scipy exports it with another signature, or it returned a nonzero
    ``info``."""


class OracleViolationError(RuntimeError):
    """A structural self-check failed, e.g. the tetrahedron facts do not hold."""


class DegenerateSpectrumError(ValueError):
    """The requested spectral quantity does not exist (everything in the kernel)."""


class UnsupportedModelError(ValueError):
    """The operation is defined for a different percolation model kind."""


class ValidationError(ValueError):
    """A configuration file or CLI argument failed validation."""
