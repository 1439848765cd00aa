"""Exception types shared across the package, and the one rule every entry point reads
a caller's numbers by: a *number* is a real other than a bool no larger in size than the
largest float (not NaN, an infinity, a string or an int beyond the float range); a *whole
number* is a number with no fractional part, read as an int (``1e4`` and ``2.0`` are,
``True`` is not); an *array of numbers* is an ndarray of integer or float dtype with every
entry finite, or any other nested sequence whose every entry is a number (not ``[True, 2]``
or a ragged nesting).
"""

import numbers
import sys

import numpy as np

_LARGEST = sys.float_info.max


class RcregError(Exception):
    """Base class for all rcreg errors."""


class DimensionError(RcregError, ValueError):
    """Input has an inconsistent or unsupported shape."""


class DomainError(RcregError, ValueError):
    """Input value lies outside the admissible domain."""


class InfeasibleError(RcregError):
    """No positive semidefinite completion is consistent with the inputs."""


class SingularDesignError(RcregError):
    """A design matrix is rank deficient where full rank is required."""


class SingularGramError(RcregError):
    """An empirical Gram matrix is numerically singular."""


class WitnessContradictionError(RcregError):
    """The closed-form certificate and the solver disagree.

    Raised when both certificate conditions hold but the solver's
    solution does not match the closed-form one; indicates a solver
    defect, not bad user input.
    """


class ConvergenceError(RcregError):
    """The solver stopped short of its penalty level or KKT tolerance."""


def is_real(x) -> bool:
    """Whether ``x`` is a real other than a bool, of any size."""
    return type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)


def is_number(x) -> bool:
    """Whether ``x`` is a number: a real no larger in size than the largest float."""
    return is_real(x) and abs(x) <= _LARGEST


def whole_number(x, what: str) -> int:
    """``x`` as an int if a whole number, else :class:`DomainError` "``what``, got ``x``"."""
    if is_number(x) and x == int(x):
        return int(x)
    raise DomainError(f"{what}, got {x!r}")


def number_array(x, what: str) -> np.ndarray:
    """``x`` as a float ndarray if an array of numbers, else :class:`DomainError` "``what``,
    got" its first entry that is not a number; a float ndarray costs one ``isfinite`` pass."""
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf"):
        try:
            x = np.asarray(x, dtype=object)
        except ValueError:  # arrays of unequal shapes
            raise DomainError(f"{what}, got a ragged nesting") from None
        bad = [v for v in x.flat if not is_number(v)]
        if bad:
            raise DomainError(f"{what}, got {bad[0]!r}")
    x = np.asarray(x, dtype=float)
    finite = np.isfinite(x)
    if not finite.all():
        raise DomainError(f"{what}, got {x[~finite][0].item()!r}")
    return x
