"""Exception types and argument checks shared across the package.

ValueError is used for contract violations (bad parameters, malformed
inputs).  NumericalError marks failures that arise during computation on
inputs that passed validation, so callers can map the two onto different
exit codes.

Each scalar argument rule is spelled once, in a check_* function below
that every module calls.  A checker returns the normalized value and
raises a ValueError naming the argument, never an OverflowError or a
TypeError: NaN, infinities, bools and non-numbers break every rule.  The
sorted-L1 weight rule is sorted_l1._check_order.
"""

import math
import numbers


class NumericalError(RuntimeError):
    """A numerical procedure failed on structurally valid input."""


def _float(v):
    try:
        return float(v)
    except OverflowError:  # an int past the float range
        return math.inf if v > 0 else -math.inf


def _real(v):
    """v is a real number, not a bool: one isinstance test on a (NumPy) float."""
    return isinstance(v, float) or (isinstance(v, numbers.Real) and not isinstance(v, bool))


def check_count(name, v):
    """v as an int, once it is a positive integer."""
    if not _real(v) or not 1 <= v < math.inf or int(v) != v:
        raise ValueError(f"{name} must be a positive integer, got {v!r}")
    return int(v)


def check_index(name, v):
    """v as an int, once it is a non-negative integer."""
    if not _real(v) or not 0 <= v < math.inf or int(v) != v:
        raise ValueError(f"{name} must be a non-negative integer, got {v!r}")
    return int(v)


def check_level(name, v):
    """v as a float, once it lies strictly inside (0,1)."""
    # cast first: a NumPy float32 level would run the arithmetic in float32
    if not _real(v) or not 0.0 < (v := _float(v)) < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0,1), got {v!r}")
    return v


def check_scale(name, v):
    """v as a float, once it is positive and finite."""
    if not _real(v) or not (v := _float(v)) > 0.0:
        raise ValueError(f"{name} must be positive, got {v!r}")
    if v == math.inf:
        raise ValueError(f"{name} must be positive and finite, got {v!r}")
    return v
