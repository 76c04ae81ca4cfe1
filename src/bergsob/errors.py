"""Shared exception types, and the one way a refusal names the offending
element of an array argument."""

import numpy as np


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of an operation."""


class NonIntegrableTermError(ValueError):
    """A projection input term is not square-integrable against the domain volume."""

    def __init__(self, label: str, reason: str):
        self.label = label
        super().__init__(f"term {label!r} is not integrable: {reason}")


def _first(ok):
    """The flat index of the first element where ok is False, or None."""
    bad = ~np.ravel(ok)
    return int(bad.argmax()) if bad.any() else None


def _offender(ok, *args):
    """(*args, "") for scalar arguments.  For arrays, broadcast together with
    ok, the elements of args at the first index where ok is False and
    " at index i" naming it, so that a refusal shows the bad element rather
    than numpy's elided repr of the array."""
    arrays = np.broadcast_arrays(ok, *(np.asarray(a) for a in args))
    if arrays[0].ndim == 0:
        return (*args, "")
    at = tuple(map(int, np.unravel_index(_first(arrays[0]), arrays[0].shape)))
    return (*(a[at] for a in arrays[1:]), f" at index {at[0] if len(at) == 1 else at}")
