"""Exception types, one per command-line exit code.

``InputError`` (exit 2): malformed or degenerate caller input or run
parameters; its subclass ``ParseError`` also carries the location of the
fault in a document, on the command line, or in an ``Instance`` or
``Allocation`` built in code.  ``DeskCapError`` (exit 3): an
exponential-time path was asked to run beyond its cap.
``FairdivError`` itself (exit 4): an invariant of the solver failed.
"""


class FairdivError(Exception):
    """Base class for all package errors; raised as itself when a solver
    invariant fails."""


class InputError(FairdivError, ValueError):
    """Malformed or degenerate caller input: unknown item ids, bad sizes,
    negative values, an inexact or out-of-range run parameter."""


class ParseError(InputError):
    """A document, a flag, or an ``Instance`` or ``Allocation`` breaks a rule of
    the wire format; carries the location of the field, as a document spells it."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class DeskCapError(FairdivError, RuntimeError):
    """Problem size exceeds a configured cap for an exponential-time path."""
