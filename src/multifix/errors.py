"""Exception hierarchy shared by all multifix modules."""


class MultifixError(Exception):
    """Base class for errors raised by this package."""


class CarrierError(MultifixError):
    """A point does not belong to the carrier of a space."""


class UnsupportedInstanceError(MultifixError):
    """Operation requires a finite carrier but got a continuous one."""


class CapacityError(MultifixError):
    """Materializing a product carrier would exceed the configured cap."""

    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(
            f"product carrier of size {size} exceeds materialization cap {cap}"
        )


class EvaluationError(MultifixError):
    """An operator has no entry for the requested argument tuple, or its
    value lies outside the carrier."""


class ParseError(MultifixError):
    """A problem file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
