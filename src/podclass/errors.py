"""Exception hierarchy shared across the package, plus the exact-read
helper every binary container reader uses.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError (and subclasses) -> 3, NumericError -> 4.
"""

from typing import BinaryIO


class PodClassError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PodClassError):
    """Invalid configuration: bad flag values, malformed spec files."""


class DataError(PodClassError):
    """Problem with input data: missing paths, undecodable files."""


class DataFormatError(DataError):
    """Structurally invalid data: dimension mismatches, bad magic bytes."""


class CapacityError(DataError):
    """Not enough samples or frames to satisfy a request."""


class RosterError(DataError):
    """A label falls outside the known class roster."""


class NumericError(PodClassError):
    """Non-finite values or a failed matrix decomposition."""


def read_exact(stream: BinaryIO, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes; a short read is a truncated file."""
    data = stream.read(count)
    if len(data) != count:
        raise DataFormatError(f"truncated file while reading {what}")
    return data
