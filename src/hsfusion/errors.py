"""Exception types shared across the package."""


class FusionError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(FusionError, ValueError):
    """Shapes or sizes inconsistent with the requested operation."""


class FactorizationError(FusionError):
    """A per-slice matrix factorization failed; message names the slice."""


class DivergenceError(FusionError):
    """Solver iterates became non-finite; message names the iteration."""


class MetricUndefinedError(FusionError):
    """A quality metric is undefined for the given inputs."""


class TensorFileError(FusionError, ValueError):
    """Malformed tensor file; message carries the failing byte offset."""
