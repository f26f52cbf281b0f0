"""Exception hierarchy shared across the package, plus the exact-read
helpers every binary container reader uses.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError (and subclasses) -> 3, NumericError -> 4.
"""

from io import SEEK_END
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


class NumericError(PodClassError):
    """Non-finite values or a failed matrix decomposition."""


def read_exact(stream: BinaryIO, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes. A count past the end of the file is
    refused before anything is read, so a corrupt size field cannot ask
    for more memory than the file holds."""
    here = stream.tell()
    left = stream.seek(0, SEEK_END) - here
    stream.seek(here)
    if count > left:
        raise DataFormatError(f"{stream.name}: truncated file while reading {what}")
    return stream.read(count)


def read_utf8(stream: BinaryIO, count: int, what: str) -> str:
    """Read exactly ``count`` bytes of UTF-8 text."""
    data = read_exact(stream, count, what)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{stream.name}: {what} is not UTF-8 (byte {exc.start})"
        ) from exc
