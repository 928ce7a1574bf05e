"""Shared exception types."""


class InputError(ValueError):
    """Malformed or inconsistent input data."""


class CharacteristicError(ValueError):
    """A facet-vector assignment fails the independence condition."""


class BudgetExceeded(RuntimeError):
    """A ring is too large for the exact search budget."""
