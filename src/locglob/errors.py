"""Exception types shared across the package. Each class carries the
`category` the command line prints as `error[category]: message` on
stderr and the process `exit_code` it returns."""


class LocglobError(Exception):
    """Base class for every error raised by this package; one without a
    more specific class is a fault in the package."""

    category = "invariant"
    exit_code = 4


class UsageError(LocglobError):
    """The command line or the instance asks for what no command does."""

    category = "usage"
    exit_code = 1


class ParseError(LocglobError):
    """An input document is structurally malformed."""

    category = "parse"
    exit_code = 1


class ValidationError(LocglobError):
    """A value violates a domain invariant or an operation precondition."""

    category = "validation"
    exit_code = 2


class MissingIdentityError(ValidationError):
    """An object has no identity arrow, or the mapped arrow is not a loop
    at that object."""

    category = "missing-identity"


class EndpointMismatchError(ValidationError):
    """A composition table entry disagrees with the arrow endpoints."""

    category = "endpoint-mismatch"


class InverseLawError(ValidationError):
    """The inverse assignment fails a.inv(a) = id or inv(a).a = id."""

    category = "inverse-law"


class AssociativityError(ValidationError):
    """A composable triple violates associativity. The offending triple
    is kept on the exception."""

    category = "associativity"

    def __init__(self, message, triple=None):
        super().__init__(message)
        self.triple = triple


class AtlasCoverError(ValidationError):
    """Atlas charts do not cover the space."""

    category = "atlas-cover"


class AtlasConsistencyError(ValidationError):
    """Two charts induce different germs at a shared point."""

    category = "atlas-consistency"

    def __init__(self, message, point=None, charts=None):
        super().__init__(message)
        self.point = point
        self.charts = charts


class ResourceLimitError(LocglobError):
    """An exponential step passed its bound (see README, "Bounds");
    nothing is ever skipped silently."""

    category = "resource-limit"
    exit_code = 3


class InvariantViolationError(LocglobError):
    """Two independent computations of the same value disagreed."""
