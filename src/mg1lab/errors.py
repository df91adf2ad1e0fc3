"""Exception hierarchy shared across the package."""


class QueueingError(Exception):
    """Base class for all mg1lab errors."""


class UnstableSystemError(QueueingError):
    """Total load rho >= 1: no stationary regime exists."""


class DimensionMismatchError(QueueingError):
    """Vector length does not match the number of customer classes."""


class WrongClassCountError(QueueingError):
    """Operation requires a specific number of classes (usually two)."""


class InvalidParameterError(QueueingError):
    """A scheme or configuration parameter is outside its admissible range."""


class SingularSystemError(QueueingError):
    """The linear system of a recursion could not be solved reliably."""


class IntegralOutOfRangeError(QueueingError):
    """A busy-period integral value lies outside its admissible branch range."""


class OracleRequiredError(QueueingError):
    """A simulation oracle is required for this scheme but none was supplied."""


class InfeasibleError(QueueingError):
    """An optimization problem has an empty feasible set."""
