"""Exception types shared across the package.

Every structured failure raised by the library derives from DimonoidError, so
callers (notably the CLI) can map them to input-validation exits uniformly.
"""


class DimonoidError(Exception):
    """Base class for all structured errors raised by this package."""


class SizeMismatch(DimonoidError, ValueError):
    """Entry count, row shape, or carrier sizes do not line up."""


class IndexOutOfRange(DimonoidError, ValueError):
    """An element index falls outside the carrier 0..n-1."""


class EmptyCarrier(DimonoidError, ValueError):
    """Carrier size 0 is rejected everywhere; size 1 is fine."""


class ZeroInA(DimonoidError, ValueError):
    """The fixed-point set of a fixed-point-null table may not contain its zero."""


class EqualDistinguished(DimonoidError, ValueError):
    """The two distinguished elements of a left-zero band must differ."""


class CarrierTooSmall(DimonoidError, ValueError):
    """The family needs a larger carrier than was requested."""


class ANotContainingA(DimonoidError, ValueError):
    """The anchor element a must be a member of the subset A."""


class EmptyA(DimonoidError, ValueError):
    """The subset A must be nonempty for this family."""


class BadFamilyParams(DimonoidError, ValueError):
    """Unknown family name, or parameters missing/superfluous for the family."""


class NotAssociative(DimonoidError, ValueError):
    """An operation required to be associative is not."""


class NotRightCommutative(DimonoidError, ValueError):
    """Strict pairing was requested on a table that is not right commutative."""


class NotADimonoid(DimonoidError, ValueError):
    """A predicate that is only meaningful on verified dimonoids was applied to
    a table pair whose axiom report has failures."""


class EmptySubset(DimonoidError, ValueError):
    """Subdimonoid candidates must be nonempty."""


class BadPartition(DimonoidError, ValueError):
    """Fixed points and blocks must partition the carrier 0..n-1."""


class BoundExceeded(DimonoidError, ValueError):
    """The requested size is beyond the supported enumeration/canonicalization
    bound."""


class FormatError(DimonoidError, ValueError):
    """A JSON document or a persisted catalog file could not be parsed, or
    holds a key its reader does not know; or a catalog entry holds a value
    that no catalog line can carry."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
