"""Exception types shared across the package, and the one integer check.

Validation failures are value errors so that callers using plain ``except
ValueError`` keep working; a budget abort is a runtime error because
retrying with the same inputs cannot succeed.
"""


class ValidationError(ValueError):
    """An argument violates a documented precondition."""


class BudgetExceededError(RuntimeError):
    """A computation would sweep more cells or nodes than its budget allows."""


def is_integer(value, least: int | None = 0) -> bool:
    """Whether ``value`` is an int, not a bool, and at least ``least``; any
    such int when ``least`` is None."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and (least is None or value >= least)


def check_integer(name: str, value, least: int = 0) -> None:
    """Raise `ValidationError`, naming ``name``, unless `is_integer` holds;
    ``least`` is 0 (a nonnegative integer) or 1 (a positive one)."""
    if not is_integer(value, least):
        kind = "positive" if least else "nonnegative"
        raise ValidationError(f"{name} must be a {kind} integer, got {value!r}")
