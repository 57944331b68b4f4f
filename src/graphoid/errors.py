"""Exception types shared across the package."""


class GraphoidError(Exception):
    """Base class of the package's named faults; malformed arguments and
    artifacts raise ValueError instead, and the CLI exits 2 on either."""


class InvalidSets(GraphoidError):
    """Query sets overlap or mention unknown variables."""


class UnknownVariable(InvalidSets):
    """A variable name is not part of the universe."""


class UniverseTooLarge(GraphoidError):
    """The universe exceeds the enumeration bound of the operation."""


class InvalidOrder(GraphoidError):
    """A construction order is not a permutation of the universe."""


class SingularConditioning(GraphoidError):
    """The conditioning block of a covariance matrix is numerically singular."""


class ZeroProbabilityEvidence(GraphoidError):
    """The conditioning event has zero probability."""


class InvalidPartition(GraphoidError):
    """A partition argument violates its structural requirements."""
