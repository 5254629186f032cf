"""Exception types shared across the package."""


class SpectralError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatchError(SpectralError):
    """Operands built for different truncations were combined."""


class NullSpaceError(SpectralError):
    """An operation requiring data orthogonal to the collision invariants
    received a state with a nonzero null-space component."""


class WeightOverflowError(SpectralError):
    """A Gaussian-weight factor left the representable float range."""

    def __init__(self, shell, exponent):
        self.shell = shell
        self.exponent = exponent
        super().__init__(
            f"weight exponent {exponent:.3g} at shell {shell} exceeds float range"
        )


class BlowupError(SpectralError):
    """Non-finite amplitude encountered during time stepping."""


class CapacityError(SpectralError):
    """Requested truncation exceeds the configured maximum shell."""


class QuadratureOrderError(SpectralError):
    """Requested quadrature order cannot reach the requested accuracy."""


class TensorCacheError(SpectralError):
    """Coupling-tensor cache file is malformed."""


class StateFileError(SpectralError):
    """Coefficient CSV file is malformed or violates mode invariants."""


class ConfigError(SpectralError):
    """Run configuration is missing fields or violates invariants."""
