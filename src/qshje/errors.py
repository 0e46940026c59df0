"""Exception types shared across the package."""


class QshjeError(Exception):
    """Base class for all errors raised by this package."""


class GridDomainError(QshjeError):
    """Grid or evaluation point violates a coordinate domain restriction."""


class DegenerateMobiusError(QshjeError):
    """Degenerate mixing: mu*nu = 1."""


class SchwarzianNodeError(QshjeError):
    """dS/dq changes sign inside the evaluation window (node of the action)."""


class SolverFailure(QshjeError):
    """Numerical integration failed (overflow or Wronskian drift)."""


class ConfigError(QshjeError):
    """Run configuration is missing, malformed or inconsistent."""
