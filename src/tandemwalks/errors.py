"""Exception types shared across the package.

Validation failures are value errors so that callers using plain ``except
ValueError`` keep working; a budget abort is a runtime error because
retrying with the same inputs cannot succeed.
"""


class ValidationError(ValueError):
    """An argument violates a documented precondition."""


class BudgetExceededError(RuntimeError):
    """A computation would sweep more cells or nodes than its budget allows."""
