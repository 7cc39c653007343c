"""Exception types shared across the package."""


class PowerPaintError(Exception):
    """Base class for all errors raised by this package."""


class GraphConstructionError(PowerPaintError):
    """Input violates the simple/symmetric/connected graph invariants."""


class PreconditionError(PowerPaintError):
    """An operation was called outside its documented domain."""


class ParseError(PowerPaintError):
    """Malformed graph6 or DIMACS input."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NoFrameError(PowerPaintError):
    """No special frame exists; signals a bug or a violated precondition."""


class GiveUpError(PowerPaintError):
    """A randomized generator exhausted its retry budget."""


class CapExceededError(PowerPaintError):
    """An input exceeds a fixed size cap: the exact oracles' vertex and
    list-size caps, or the cycle-count cap of ``enumerate_cycles``."""


class IllegalListerMove(PowerPaintError):
    """Lister revealed an empty set or a colored/unknown vertex."""


class IllegalPainterMove(PowerPaintError):
    """Painter colored outside the revealed set or a dependent set."""
