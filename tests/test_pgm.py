import numpy as np
import pytest

from podclass.errors import DataError, DataFormatError
from podclass.pgm import from_unit, read_pgm, to_unit, write_pgm


def test_round_trip_bytes(tmp_path, rng):
    gray = rng.integers(0, 256, size=(11, 7), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, gray)
    again = read_pgm(path)
    assert again.dtype == np.uint8
    assert np.array_equal(gray, again)


def test_round_trip_through_unit_scale(tmp_path, rng):
    gray = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, gray)
    unit = to_unit(read_pgm(path))
    assert unit.dtype == np.float64
    assert unit.min() >= 0.0 and unit.max() <= 1.0
    assert np.array_equal(from_unit(unit), gray)


def test_unit_quantization_error_bounded(rng):
    values = rng.uniform(0.0, 1.0, size=(6, 6))
    stored = to_unit(from_unit(values))
    assert np.abs(stored - values).max() <= 0.5 / 255 + 1e-12


def test_from_unit_clamps_out_of_range():
    image = np.array([[-0.5, 0.0], [1.0, 1.7]])
    gray = from_unit(image)
    assert gray[0, 0] == 0 and gray[1, 1] == 255


def test_header_with_comments(tmp_path):
    raw = b"P5 # magic\n# a comment line\n 3 2\n255\n" + bytes(6)
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    assert read_pgm(path).shape == (2, 3)


def test_rejects_a_comment_that_runs_to_the_end_of_the_header(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n3 2\n# 255")
    with pytest.raises(DataFormatError, match="unexpected end of PGM header"):
        read_pgm(path)


def test_hash_inside_a_token_does_not_start_a_comment(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n3#x 2\n255\n" + bytes(6))
    with pytest.raises(DataFormatError, match=r"width b'3#x' is not ASCII digits"):
        read_pgm(path)


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(DataError):
        read_pgm(path)


def test_rejects_truncated_raster(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(DataFormatError):
        read_pgm(path)


def test_rejects_wide_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(DataFormatError):
        read_pgm(path)


@pytest.mark.parametrize(
    "header",
    [b"P5\n1_6 +2\n2_55\n", b"P5\n16 2\n+255\n", b"P5\n\xd9\xa16 2\n255\n"],
    ids=["underscores-and-plus", "plus-maxval", "arabic-indic-digit"],
)
def test_rejects_header_numbers_that_are_not_ascii_digits(tmp_path, header):
    # int() reads "1_6" as 16 and "+2" as 2; a header field is digits only
    path = tmp_path / "loose.pgm"
    path.write_bytes(header + bytes(32))
    with pytest.raises(DataFormatError) as caught:
        read_pgm(path)
    assert str(caught.value).startswith(f"{path}: malformed PGM header")
    assert "is not ASCII digits" in str(caught.value)


def test_rejects_maxval_other_than_255(tmp_path):
    # it used to load bytes 100, 200 under maxval 100 as 0.392, 0.784
    path = tmp_path / "shallow.pgm"
    path.write_bytes(b"P5 2 1 100\n" + bytes([100, 200]))
    with pytest.raises(DataFormatError) as caught:
        read_pgm(path)
    assert str(caught.value) == f"{path}: unsupported maxval 100, need 255"


def test_rejects_bytes_after_the_raster(tmp_path):
    # they used to be ignored
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(5))
    with pytest.raises(DataFormatError) as caught:
        read_pgm(path)
    assert str(caught.value) == f"{path}: raster has 5 bytes, need 4"
