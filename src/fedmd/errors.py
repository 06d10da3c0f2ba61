"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array dimensions do not compose."""


class ConfigError(ValueError):
    """Invalid configuration value or violated data precondition."""


class DivergenceError(RuntimeError):
    """Training or inference produced a non-finite value.

    ``member`` is that network's index in the member list of its training call.
    """

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member


class IdxParseError(ValueError):
    """Malformed IDX byte stream; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class CodecError(ValueError):
    """Malformed or inconsistent wire frame; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ChannelError(ConnectionError):
    """Channel closed, timed out, or lost mid-message."""


class ProtocolError(RuntimeError):
    """A collaboration round could not complete."""


class DataError(ValueError):
    """A metrics log is missing rows required for the requested computation."""
