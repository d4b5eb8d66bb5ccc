"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class BudgetError(DomainError):
    """An evaluation budget below what the work needs before it can start."""


class NumericalFailure(RuntimeError):
    """A solve or invariant check failed beyond recoverable tolerance."""


class UnitarityError(NumericalFailure):
    """Scattering data violates unitarity beyond rounding; upstream fault."""
