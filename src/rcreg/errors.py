"""Exception types shared across the package."""


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
