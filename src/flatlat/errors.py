"""Exception types shared across the library.

Every error raised by flatlat derives from FlatlatError so callers can catch
library failures without also swallowing programming errors.
"""


class FlatlatError(Exception):
    """Base class for all flatlat errors."""


class NotAPartialOrder(FlatlatError):
    """The input relation violates reflexivity, antisymmetry or transitivity."""


class NotALattice(FlatlatError):
    """Some pair of elements has no unique meet or join."""

    def __init__(self, pair, kind):
        self.pair = tuple(pair)
        self.kind = kind
        super().__init__(
            f"elements {self.pair[0]!r} and {self.pair[1]!r} have no unique {kind}"
        )


class LimitExceeded(FlatlatError):
    """A documented soft limit was hit.

    The limits guard exponential scans.  Library calls accept override=True and
    the CLI honours FLATLAT_LIMIT_OVERRIDE=1 to lift them.
    """


class UnknownVertex(FlatlatError):
    """A vertex label does not belong to the ground set."""


class EmptyRestriction(FlatlatError):
    """Restriction to the empty vertex set is undefined."""


class LoopsPresent(FlatlatError):
    """Operation requires every singleton to be a face."""


class NotAtomistic(FlatlatError):
    """Lattice has an element that is not a join of atoms."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"lattice is not atomistic: {witness!r} is not a join of atoms")


class ConstructionMismatch(FlatlatError):
    """A constructed complex does not have the flats its construction claims:
    the predicted flat map is not an isomorphism, or the minimal non-faces
    it lists fail their check against its facets."""


class ParseError(FlatlatError):
    """Text input could not be parsed; carries a 1-based position."""

    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")
