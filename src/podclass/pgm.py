"""Binary PGM (P5) reading and writing.

8-bit single channel only. PGM keeps frame storage bit-exact and parseable
without any imaging dependency.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import DataError, DataFormatError


# whitespace and '#' comments (each to the end of its line), then one token;
# the lookahead keeps a comment from giving back its tail as a token
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]\S*)")


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if match is None:
        raise DataFormatError("unexpected end of PGM header")
    return match[1], match.end()


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary (P5) PGM file into a uint8 array of shape (height, width).

    The maxval must be 255, and nothing may follow the raster."""
    try:
        with open(path, "rb") as stream:
            data = stream.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        magic, pos = _read_token(data, 0)
        if magic != b"P5":
            raise DataFormatError(f"{path}: not a binary PGM (magic {magic!r})")
        numbers = []
        for field in ("width", "height", "maxval"):
            token, pos = _read_token(data, pos)
            if not token.isdigit():  # bytes.isdigit is ASCII digits only
                raise DataFormatError(f"{field} {token!r} is not ASCII digits")
            numbers.append(int(token))
        width, height, maxval = numbers
    except (ValueError, DataFormatError) as exc:  # ValueError: too many digits
        raise DataFormatError(f"{path}: malformed PGM header ({exc})") from exc
    if maxval != 255:  # frames are stored as v / 255 (see to_unit)
        raise DataFormatError(f"{path}: unsupported maxval {maxval}, need 255")
    if width <= 0 or height <= 0:
        raise DataFormatError(f"{path}: bad dimensions {width}x{height}")
    pos += 1  # single whitespace byte separates header from raster
    raster = data[pos:]  # nothing may follow the raster
    if len(raster) != width * height:
        raise DataFormatError(
            f"{path}: raster has {len(raster)} bytes, need {width * height}"
        )
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def write_pgm(path: str | Path, gray: np.ndarray) -> None:
    """Write a uint8 array of shape (height, width) as a binary PGM file."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise DataFormatError("write_pgm expects a 2-D uint8 array")
    height, width = gray.shape
    with open(path, "wb") as stream:
        stream.write(f"P5\n{width} {height}\n255\n".encode("ascii") + gray.tobytes())


def to_unit(gray: np.ndarray) -> np.ndarray:
    """Rescale stored 8-bit intensities to float64 in [0, 1] (divide by 255)."""
    return np.divide(gray, 255.0, dtype=np.float64)


def from_unit(image: np.ndarray) -> np.ndarray:
    """Quantize a float image to uint8, clamping to [0, 1] first.

    Clamping happens only here, at export time; in-memory images may hold
    values outside [0, 1] (e.g. after projection).
    """
    clipped = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    return np.rint(clipped * 255.0).astype(np.uint8)
