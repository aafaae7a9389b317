"""Exception types shared across the package."""


class CritnetError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(CritnetError):
    """An argument violates a documented precondition."""


class MalformedFsmError(InvalidInputError):
    """A machine definition breaks a structural rule."""


class DesyncError(CritnetError):
    """A monitoring session received an event no run of the plant allows."""


class BudgetExceededError(CritnetError):
    """An exploration grew past the configured state budget."""


class FormatError(CritnetError):
    """A network or observer document cannot be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
