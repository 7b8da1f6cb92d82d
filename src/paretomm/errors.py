"""Exception types shared across the package.

Iteration budgets are not errors: the outer loop and the navigation baseline
return a ``budget-exceeded`` status, and the Newton inner solve stops at its
target or at the rounding floor.
"""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class ConfigurationError(ValueError):
    """Required constants or solver settings are missing or inconsistent."""


class NumericalFailureError(RuntimeError):
    """Non-finite values or a Hessian that is not positive definite."""


class InfeasibleError(RuntimeError):
    """A constraint system has an empty feasible set."""


class SizeLimitError(ValueError):
    """A combinatorial guard tripped (too many objectives or lattice points)."""
