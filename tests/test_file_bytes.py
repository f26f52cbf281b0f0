"""The bytes every writer puts on disk, pinned by sha256.

Round-trip tests only compare the writers with the readers of the same
code; these hashes catch a change of field width, endianness or array
order (column-major for libraries and factors, row-major for checkpoints)
that both sides would share. The inputs come from seeded generators and
``initialize`` alone, with no BLAS call, so they are the same bytes on
every machine. The ``synth`` trees pin the synthetic generator too; its
frames pass through BLAS, but their 8-bit quantization absorbs last-bit
differences between machines.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from podclass.basis import BasisLibrary, ClassBasis, save_factors, save_library
from podclass.cli import main
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


SPECS = {
    "headline": Path(__file__).resolve().parent.parent / "configs" / "headline.cfg",
    # no noise, and 37 frames that 12 recordings cannot share evenly
    "noise0-37": "classes=3\nframes=37\nside=16\nrank=3\nnoise=0\nseed=5\n",
}

TREE_SHA256 = {
    "headline": "9a5e55eb2cc73b81a161e28b3d58b0cf24d3bbce0cd223f9cabf8aaf75658c6e",
    "noise0-37": "11a42cbce14639cd42137c9224d8627eb80c0bf7ff76cdbe96a1d624c1c6752c",
}


def tree_sha256(root):
    """One digest of every file under ``root``: its path, then its bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_synth_trees_are_pinned(tmp_path, name):
    spec = SPECS[name]
    if isinstance(spec, str):
        (tmp_path / "spec").write_text(spec, encoding="utf-8")
        spec = tmp_path / "spec"
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "tree")]) == 0
    assert tree_sha256(tmp_path / "tree") == TREE_SHA256[name]
