"""Exception types shared across the package."""


class EngelGraphError(Exception):
    """Base class for all errors raised by this package."""


class ClosureTooLarge(EngelGraphError):
    """A group would exceed the order limit (``groups.MAX_ORDER``)."""


class InvalidParameter(EngelGraphError, ValueError):
    """A family constructor, survey or theorem check was given an
    out-of-range parameter."""


class NotASubgroup(EngelGraphError):
    """An element set expected to be a subgroup is not one."""


class BaerViolation(EngelGraphError):
    """The left Engel elements of a finite group failed a Fitting-subgroup
    assertion (subgroup / normal / nilpotent).

    For finite groups these assertions are theorems, so this error signals
    an implementation bug rather than a property of the input.
    """


class SameVertex(EngelGraphError):
    """Adjacency was queried for a vertex against itself."""


class EngelGroupError(EngelGraphError):
    """The Engel graph was requested for an Engel group (it is undefined:
    such a group has no vertices to put in the graph)."""


class EmptyGraphError(EngelGraphError):
    """A metric that needs at least one vertex was asked of an empty graph."""


class UnknownVertex(EngelGraphError):
    """A vertex outside the graph was referenced."""


class LabelMismatch(EngelGraphError):
    """The number of labels does not match the number of vertices."""


class PreconditionFailed(EngelGraphError):
    """A checked hypothesis of an implication-style operation does not hold."""


class ParseError(EngelGraphError):
    """Malformed group spec, cycle notation, or generator file.

    ``position`` is a 0-based character offset into the parsed text when it
    applies, else None.
    """

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
