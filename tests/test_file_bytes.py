"""The bytes every writer puts on disk, pinned by sha256.

Round-trip tests only compare the writers with the readers of the same
code; these hashes catch a change of field width, endianness or array
order (column-major for libraries and factors, row-major for checkpoints)
that both sides would share. The inputs come from seeded generators and
``initialize`` alone, with no BLAS call, so they are the same bytes on
every machine.
"""

import hashlib

import numpy as np
import pytest

from podclass.basis import BasisLibrary, ClassBasis, save_factors, save_library
from podclass.convnet import Architecture, initialize, save_checkpoint
from podclass.dataset import (
    ClassLabel,
    Sample,
    SplitPolicy,
    split_dataset,
    write_manifest,
)
from podclass.svd import ThinSVD


def _library(rng):
    bases = (
        ClassBasis(ClassLabel(0, "A"), rng.normal(size=6), rng.normal(size=(6, 2))),
        ClassBasis(ClassLabel(3, "Bé"), rng.normal(size=6), rng.normal(size=(6, 1))),
    )
    return BasisLibrary((2, 3), bases, {"rank_rule": "fixed", "source": "pinned"})


def _factors(rng):
    values = np.sort(rng.uniform(0.5, 2.0, size=2))[::-1]
    return ThinSVD(rng.normal(size=(5, 2)), values, rng.normal(size=(3, 2)))


def write_library(path):
    save_library(_library(np.random.default_rng(11)), path)


def write_factors(path):
    save_factors(_factors(np.random.default_rng(12)), path)


def write_checkpoint(path):
    arch = Architecture(8, 16, (2, 3, 2), hidden=3, classes=2, seed=13)
    save_checkpoint(arch, initialize(arch), path)


def write_split_manifest(path):
    samples = [
        Sample(ClassLabel(c, f"C{c}"), f"s{s:02d}", [np.zeros((2, 2))] * 6)
        for c in range(2)
        for s in range(5)
    ]
    policy = SplitPolicy.for_samples(samples)
    write_manifest(split_dataset(samples, policy, seed=14), path)


WRITERS = {
    "library": write_library,
    "factors": write_factors,
    "checkpoint": write_checkpoint,
    "manifest": write_split_manifest,
}

SHA256 = {
    "library": "832d5a91a5fc86326c9e7d7fe8f2e49bb77c2c6316b0df243752c11c512d77ee",
    "factors": "87862cfeed34d015154282213dedce66aa5bdb199cecdb56adac3e0e37632097",
    "checkpoint": "452d8a344a0745d0062e895c90431fb953cdb9cbc059ffd5cfcbda917527ea47",
    "manifest": "baff047a1f256b798110fe352648550ab1f30e30ca086338dfb1f158300a8ec3",
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_written_bytes_are_pinned(tmp_path, name):
    path = tmp_path / name
    WRITERS[name](path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SHA256[name]
