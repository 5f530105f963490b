"""Shared exception types and size checks for the numerical solvers."""

import numpy as np


def _check_size(value, name: str, minimum: int) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


class ContractionError(ValueError):
    """Raised when a solver's contraction precondition fails.

    Carries the offending contraction factor so callers can report how far
    the instance is from the solvable regime.
    """

    def __init__(self, factor, message=None):
        self.factor = float(factor)
        if message is None:
            message = f"contraction condition violated: factor {self.factor:.6g} >= 1"
        super().__init__(message)


class IterationLimitError(RuntimeError):
    """Raised when an iterative method exhausts its iteration budget.

    Attributes
    ----------
    last_iterate : ndarray
        The final iterate, so partial progress is not lost.
    residual_history : list of float
        Residuals recorded along the way, most recent last.
    """

    def __init__(self, message, last_iterate=None, residual_history=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual_history = residual_history if residual_history is not None else []
