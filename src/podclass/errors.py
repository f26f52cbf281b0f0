"""Exception hierarchy shared across the package, plus the one layout of
every binary container (basis libraries, SVD factors, checkpoints).

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError (and subclasses) -> 3, NumericError -> 4.

A container is little-endian throughout: a 4-byte magic, a u32 version,
fixed-width integer fields, finite float64 arrays in the order each format
names, and nothing after the last array. ``read_container`` and
``read_array`` own these checks for every format.
"""

import math
import struct
from contextlib import contextmanager
from io import SEEK_END
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

FORMAT_VERSION = 1


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


@contextmanager
def write_container(path: str | Path, magic: bytes) -> Iterator[BinaryIO]:
    """Open ``path`` for writing a container and write its header."""
    with open(path, "wb") as stream:
        stream.write(magic + struct.pack("<I", FORMAT_VERSION))
        yield stream


@contextmanager
def read_container(path: Path, magic: bytes, what: str) -> Iterator[BinaryIO]:
    """Open ``path``, check its magic and version, and once the body has
    read ``what``, refuse any byte left over. A ConfigError raised while
    the body builds its objects is an impossible header: DataFormatError."""
    with open(path, "rb") as stream:
        got = read_exact(stream, 4, "magic")
        if got != magic:
            raise DataFormatError(
                f"{path}: bad magic {got!r}, expected {magic.decode('ascii')!r}"
            )
        (version,) = read_fields(stream, "I", "version")
        if version != FORMAT_VERSION:
            raise DataFormatError(f"{path}: unsupported format version {version}")
        try:
            yield stream
        except ConfigError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
        if stream.read(1):
            raise DataFormatError(f"{path}: trailing bytes after {what}")


def write_fields(stream: BinaryIO, fmt: str, *values: int) -> None:
    """Little-endian integer fields in ``struct`` notation, e.g. ``"IQQ"``."""
    stream.write(struct.pack("<" + fmt, *values))


def read_fields(stream: BinaryIO, fmt: str, what: str) -> tuple[int, ...]:
    fmt = "<" + fmt
    return struct.unpack(fmt, read_exact(stream, struct.calcsize(fmt), what))


def write_array(stream: BinaryIO, array: np.ndarray, order: str) -> None:
    stream.write(np.asarray(array, dtype="<f8").tobytes(order=order))


def read_array(
    stream: BinaryIO, shape: tuple[int, ...], what: str, order: str
) -> np.ndarray:
    """A finite float64 array stored in ``order``, returned as a C-ordered
    copy."""
    data = read_exact(stream, 8 * math.prod(shape), what)
    array = np.frombuffer(data, dtype="<f8").reshape(shape, order=order)
    if not np.isfinite(array).all():
        raise NumericError(f"{stream.name}: non-finite values in {what}")
    return np.array(array, dtype=np.float64, order="C")
