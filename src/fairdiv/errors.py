"""Exception types shared across the package."""


class FairdivError(Exception):
    """Base class for all package errors."""


class InputError(FairdivError, ValueError):
    """Malformed caller input: unknown item ids, bad sizes, negative values."""


class ConfigError(FairdivError, ValueError):
    """Invalid run parameters (alpha, delta)."""


class DegenerateInputError(FairdivError, ValueError):
    """Structurally valid input that is degenerate for the operation."""


class DeskCapError(FairdivError, RuntimeError):
    """Problem size exceeds a configured cap for an exponential-time path."""


class NoEligibleAgentError(FairdivError, RuntimeError):
    """No remaining agent values the remaining items at or above its threshold."""


class ParseError(FairdivError, ValueError):
    """A document could not be parsed; carries a location when known."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)
