"""Exception types shared across the package."""


class FppError(Exception):
    """Base class for all package errors."""


class DomainError(FppError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedModel(FppError):
    """The weight model cannot support the requested evaluation."""


class BudgetExceeded(FppError):
    """A search or sampler hit its configured work cap before finishing."""


class SamplerMismatch(FppError):
    """The requested sampler is incompatible with the weight model."""


class InvariantViolation(FppError):
    """A runtime bookkeeping invariant failed; indicates a bug."""


class QuadratureFailure(FppError):
    """Numerical integration did not reach the requested tolerance."""


class ConfigError(FppError):
    """A run configuration failed validation."""
