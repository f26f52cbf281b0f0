"""Corrupt containers are refused with a PodClassError, never a crash.

The binary readers trust no size field: a count larger than what is left
in the file, undecodable text and structurally impossible headers all end
in DataFormatError naming the file. PGM frames and split manifests are
fuzzed alongside.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podclass.basis import (
    FACTORS_MAGIC,
    LIBRARY_MAGIC,
    BasisLibrary,
    ClassBasis,
    load_factors,
    load_library,
    save_factors,
    save_library,
)
from podclass.convnet import (
    CHECKPOINT_MAGIC,
    Architecture,
    initialize,
    load_checkpoint,
    save_checkpoint,
)
from podclass.dataset import (
    ClassLabel,
    Sample,
    SplitPolicy,
    split_dataset,
    split_from_manifest,
    write_manifest,
)
from podclass.errors import (
    FORMAT_VERSION,
    DataFormatError,
    NumericError,
    PodClassError,
)
from podclass.pgm import read_pgm, write_pgm
from podclass.svd import thin_svd


def _library_bytes(code=b"C0", provenance=b"{}", shape=(2, 2)):
    """A one-class rank-1 library; the payload fits a 2x2 frame only."""
    h, w = shape
    sizes = struct.pack("<IIQQQ", FORMAT_VERSION, 1, h, w, len(provenance))
    head = LIBRARY_MAGIC + sizes
    block = struct.pack("<II", 0, len(code)) + code + struct.pack("<Q", 1)
    return head + provenance + block + bytes(8 * 2 * 4)


def _write(tmp_path, data, name="corrupt.bin"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def test_hand_built_library_loads(tmp_path):
    library = load_library(_write(tmp_path, _library_bytes()))
    assert library.frame_shape == (2, 2)
    assert library.bases[0].label == ClassLabel(0, "C0")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"code": b"\xff\xfe"}, "class code is not UTF-8"),
        ({"provenance": b'{"source": "\xff"}'}, "provenance is not UTF-8"),
        ({"provenance": b"[]"}, "provenance is not a JSON object"),
        ({"provenance": b"[" * 100_000}, "provenance is not valid JSON"),
        ({"shape": (2**32, 2**32)}, "truncated file"),
        ({"shape": (2**20, 2**20)}, "truncated file"),
    ],
    ids=[
        "code-not-utf8",
        "provenance-not-utf8",
        "provenance-list",
        "provenance-too-deep",
        "4g-side",
        "1m-side",
    ],
)
def test_corrupt_library_is_a_format_error(tmp_path, fields, message):
    path = _write(tmp_path, _library_bytes(**fields))
    with pytest.raises(DataFormatError) as caught:
        load_library(path)
    assert str(caught.value).startswith(f"{path}: ")
    assert message in str(caught.value)


def test_library_with_zero_classes_is_refused(tmp_path):
    # it used to load as an empty library with a 2^64-1 x 2^64-1 frame
    head = struct.pack("<IIQQQ", FORMAT_VERSION, 0, 2**64 - 1, 2**64 - 1, 2)
    path = _write(tmp_path, LIBRARY_MAGIC + head + b"{}")
    with pytest.raises(DataFormatError, match="library holds no classes"):
        load_library(path)


def test_factors_with_rank_zero_and_huge_sides_are_refused(tmp_path):
    data = FACTORS_MAGIC + struct.pack("<IQQQ", FORMAT_VERSION, 2**64 - 1, 2**64 - 1, 0)
    with pytest.raises(DataFormatError):
        load_factors(_write(tmp_path, data))


@pytest.mark.parametrize(
    "fields",
    [(8, 8, 2**63, 1, 1, 1, 2, 0), (0, 8, 1, 1, 1, 1, 2, 0)],
    ids=["huge-channels", "zero-height"],
)
def test_corrupt_checkpoint_header_is_a_format_error(tmp_path, fields):
    data = CHECKPOINT_MAGIC + struct.pack("<I8Q", FORMAT_VERSION, *fields)
    with pytest.raises(DataFormatError):
        load_checkpoint(_write(tmp_path, data))


@pytest.mark.parametrize("name", ["library", "factors", "checkpoint"])
def test_containers_share_header_and_end_checks(valid_files, tmp_path, name):
    valid = valid_files[name]
    magic = valid[:4].decode("ascii")
    cases = {
        b"XXXX" + valid[4:]: f"bad magic b'XXXX', expected {magic!r}",
        valid[:4] + struct.pack("<I", 2) + valid[8:]: "unsupported format version 2",
        valid + b"\0": "trailing bytes after ",
    }
    for data, message in cases.items():
        path = _write(tmp_path, data, name)
        with pytest.raises(DataFormatError) as caught:
            LOADERS[name](path)
        assert str(caught.value).startswith(f"{path}: {message}")


# Offsets of each array's first float in ``valid_files``: factors hold
# sigma (2), W (3 x 2), T (2 x 2); the library holds one 2x2 rank-1 class; a
# checkpoint's first tensor follows its 72-byte header and its last ends
# the file.
FLOAT_ARRAYS = [
    ("factors", "singular values", -8 * (2 + 6 + 4)),
    ("factors", "modes", -8 * (6 + 4)),
    ("factors", "coefficients", -8 * 4),
    ("library", "class A mean", -8 * (4 + 4)),
    ("library", "class A modes", -8 * 4),
    ("checkpoint", "kernel1", 72),
    ("checkpoint", "output_bias", -8),
]


@pytest.mark.parametrize(
    "name, what, offset", FLOAT_ARRAYS, ids=[f"{n}-{w}" for n, w, _ in FLOAT_ARRAYS]
)
def test_non_finite_array_is_a_numeric_error(valid_files, tmp_path, name, what, offset):
    # a factor file with a NaN coefficient used to load without error
    data = bytearray(valid_files[name])
    start = offset % len(data)
    data[start : start + 8] = struct.pack("<d", float("nan"))
    path = _write(tmp_path, bytes(data), name)
    with pytest.raises(NumericError) as caught:
        LOADERS[name](path)
    assert str(caught.value) == f"{path}: non-finite values in {what}"


# -- arbitrary bytes ----------------------------------------------------------


# the fixed data every fuzzed manifest is applied to: two classes of three
# 2-frame samples
MANIFEST_SAMPLES = [
    Sample(ClassLabel(c, f"C{c}"), f"s{s:02d}", [np.zeros((2, 2))] * 2)
    for c in range(2)
    for s in range(3)
]

LOADERS = {
    "library": load_library,
    "factors": load_factors,
    "checkpoint": load_checkpoint,
    "pgm": read_pgm,
    "manifest": lambda path: split_from_manifest(MANIFEST_SAMPLES, path),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Small valid file of each container, as bytes."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    basis = ClassBasis(ClassLabel(0, "A"), rng.normal(size=4), np.eye(4)[:, :1])
    arch = Architecture(8, 8, (1, 1, 1), hidden=1, classes=2, seed=0)
    save_library(BasisLibrary((2, 2), (basis,), {"k": 1}), root / "library")
    save_factors(thin_svd(rng.normal(size=(3, 2))), root / "factors")
    save_checkpoint(arch, initialize(arch), root / "checkpoint")
    write_pgm(root / "pgm", rng.integers(0, 256, size=(3, 5), dtype=np.uint8))
    policy = SplitPolicy.for_samples(MANIFEST_SAMPLES)
    write_manifest(split_dataset(MANIFEST_SAMPLES, policy, seed=0), root / "manifest")
    return {name: (root / name).read_bytes() for name in LOADERS}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@st.composite
def _corruptions(draw, valid: bytes) -> bytes:
    """Random bytes, a valid header with a random tail, or a valid file
    with some bytes overwritten and its tail cut or extended."""
    kind = draw(st.sampled_from(["random", "header", "mutate"]))
    if kind == "random":
        return draw(st.binary(max_size=400))
    if kind == "header":
        return valid[:8] + draw(st.binary(max_size=400))
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 8))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(data)))
    return bytes(data[:cut]) + draw(st.binary(max_size=16))


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_arbitrary_bytes_load_or_raise_podclass_error(
    valid_files, fuzz_dir, name, data
):
    corrupt = data.draw(_corruptions(valid_files[name]))
    path = _write(fuzz_dir, corrupt, name)
    try:
        LOADERS[name](path)
    except PodClassError:
        pass
