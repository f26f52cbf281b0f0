"""Snapshot what the podclass CLI prints and writes, to diff two checkouts.

    python3 tools/cli_snapshot.py CHECKOUT OUTDIR

Runs ``python -m podclass`` from ``CHECKOUT/src`` over a fixed list of
commands, one BLAS thread, working directory ``OUTDIR`` (which must not
exist yet). Every file a command writes lands under ``OUTDIR``, and
``OUTDIR/logs/NN-name.{stdout,stderr,exit}`` hold its output and exit code.
Paths are relative, so two snapshots compare with ``diff -r``:

    python3 tools/cli_snapshot.py old-checkout snap-old
    python3 tools/cli_snapshot.py .            snap-new
    diff -r snap-old snap-new

The commands near the end are refusals; a change to what a refusal prints
or whether it writes shows up there. Three of them read small hand-made
trees: ``tabbed`` has a tab in a class name, ``from-one`` numbers its
frames from 1, and ``three``'s manifest ``no-c2.tsv`` names no frame of
class C2. Commands added later go at the end, so that earlier logs keep
their numbers. This script imports nothing from the checkout itself.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

SMALL_SPEC = "classes=3\nframes=36\nside=16\nrank=3\nnoise=0.1\nseed=9\n"
# 64x64 frames reach the large-matrix GEMM kernels that 16x16 ones do not
WIDE_SPEC = "classes=3\nframes=150\nside=64\nrank=4\nnoise=0.1\nseed=9\n"
BAD_SPEC = "classes=1_0\n"
# one sample in both a training partition and unseen
OVERLAP_MANIFEST = "train\tC0\ts00\t0000\nunseen\tC0\ts00\t0001\n"
# hand-made trees: classes x 3 samples x 4 frames of 8x8, by frame file names
FRAMES = ("0000.pgm", "0001.pgm", "0002.pgm", "0003.pgm")
BAD_TREES = {
    "tabbed": (("A\tB", "C0"), FRAMES),
    "from-one": (("C0", "C1"), ("0001.pgm", "0002.pgm", "0003.pgm", "0004.pgm")),
    "three": (("C0", "C1", "C2"), FRAMES),
}
# a split of ``three`` that gives class C2 no frame at all
NO_C2_MANIFEST = "".join(
    f"{part}\t{code}\t{sample}\t{frame:04d}\n"
    for code in ("C0", "C1")
    for part, sample in (("train", "s00"), ("validation", "s01"), ("unseen", "s02"))
    for frame in range(4)
)
NET = ["--epochs", "2", "--arch", "4,4,4,8"]
DATA = ["--data", "data"]
WIDE = ["--data", "wide"]

# (name, podclass arguments); they run in order, later ones read earlier output
COMMANDS = [
    ("synth-small", ["synth", "--spec", "small.spec", "--out", "data"]),
    ("synth-defaults", ["synth", "--seed", "4", "--out", "defaults"]),
    ("ingest-check", ["ingest-check", *DATA]),
    ("spectrum", ["spectrum", *DATA, "--out", "spectrum"]),
    ("build-basis-hard", ["build-basis", *DATA, "--out", "lib-hard.bin"]),
    (
        "build-basis-rank2",
        ["build-basis", *DATA, "--rank", "2", "--out", "lib-rank2.bin"],
    ),
    ("project", ["project", *DATA, "--rank", "2", "--out", "projected"]),
    ("evaluate", ["evaluate", *DATA, "--out", "evaluate.json"]),
    (
        "evaluate-library",
        ["evaluate", *DATA, "--library", "lib-hard.bin", "--out", "evaluate-lib.json"],
    ),
    ("train", ["train", *DATA, *NET, "--out", "model"]),
    (
        "experiment",
        ["experiment", *DATA, "--rank", "2", "--tolerance", "0.2", "--gavish",
         "--runs", "2", "--out", "experiment.json"],
    ),
    ("synth-wide", ["synth", "--spec", "wide.spec", "--out", "wide"]),
    (
        "build-basis-wide",
        ["build-basis", *WIDE, "--rank", "4", "--out", "lib-wide.bin"],
    ),
    (
        "evaluate-library-wide",
        ["evaluate", *WIDE, "--library", "lib-wide.bin", "--out", "evaluate-wide.json"],
    ),
    ("project-wide", ["project", *WIDE, "--rank", "4", "--out", "projected-wide"]),
    # refusals: each must exit nonzero and leave the tree as it was
    ("refuse-missing-manifest", ["ingest-check", *DATA, "--manifest", "typo.tsv"]),
    ("refuse-directory-manifest", ["ingest-check", *DATA, "--manifest", "data"]),
    (
        "refuse-overlapping-manifest",
        ["ingest-check", *DATA, "--manifest", "overlap.tsv"],
    ),
    (
        "refuse-project-inside-data",
        ["project", *DATA, "--rank", "1", "--out", "data/proj"],
    ),
    ("refuse-bad-spec", ["synth", "--spec", "bad.spec", "--out", "bad-spec-data"]),
    ("refuse-synth-over-tree", ["synth", "--spec", "small.spec", "--out", "data"]),
    (
        "refuse-train-seed-out-of-range",
        ["train", *DATA, *NET, "--seed", str(2**64), "--out", "model-big"],
    ),
    (
        "refuse-synth-out-file",
        ["synth", "--spec", "small.spec", "--out", "lib-hard.bin"],
    ),
    (
        "refuse-experiment-out-dir",
        ["experiment", *DATA, *NET, "--runs", "1", "--out", "spectrum"],
    ),
    (
        "refuse-tab-in-class-name",
        ["project", "--data", "tabbed", "--rank", "1", "--out", "tabbed-proj"],
    ),
    ("refuse-frames-from-1", ["ingest-check", "--data", "from-one"]),
    ("refuse-spectrum-inside-data", ["spectrum", *WIDE, "--out", "wide/factors"]),
    (
        "refuse-project-class-without-train-frames",
        ["project", "--data", "three", "--manifest", "no-c2.tsv", "--rank", "1",
         "--out", "three-proj"],
    ),
    ("ingest-check-after", ["ingest-check", *DATA]),
    # more modes than a class has frames: each class's rank is capped, with a warning
    ("project-capped", ["project", *DATA, "--rank", "40", "--out", "projected-capped"]),
]


def write_tree(root: Path, classes: tuple[str, ...], frames: tuple[str, ...]) -> None:
    for c, code in enumerate(classes):
        for s in range(3):
            sample = root / code / f"s{s:02d}"
            sample.mkdir(parents=True)
            for k, name in enumerate(frames):
                seed = 37 * c + 11 * s + 5 * k
                raster = bytes((seed + i * i) % 256 for i in range(64))
                (sample / name).write_bytes(b"P5\n8 8\n255\n" + raster)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="tree whose src/ to run")
    parser.add_argument("outdir", type=Path, help="snapshot directory to create")
    args = parser.parse_args()
    src = (args.checkout / "src").resolve()
    if not (src / "podclass").is_dir():
        parser.error(f"{src} has no podclass package")
    out = args.outdir
    (out / "logs").mkdir(parents=True, exist_ok=False)
    (out / "small.spec").write_text(SMALL_SPEC, encoding="utf-8")
    (out / "wide.spec").write_text(WIDE_SPEC, encoding="utf-8")
    (out / "bad.spec").write_text(BAD_SPEC, encoding="utf-8")
    (out / "overlap.tsv").write_text(OVERLAP_MANIFEST, encoding="utf-8")
    (out / "no-c2.tsv").write_text(NO_C2_MANIFEST, encoding="utf-8")
    for name, (classes, frames) in BAD_TREES.items():
        write_tree(out / name, classes, frames)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    for number, (name, argv) in enumerate(COMMANDS, 1):
        done = subprocess.run(
            [sys.executable, "-m", "podclass", *argv],
            cwd=out,
            env=env,
            capture_output=True,
        )
        log = out / "logs" / f"{number:02d}-{name}"
        log.with_suffix(".stdout").write_bytes(done.stdout)
        log.with_suffix(".stderr").write_bytes(done.stderr)
        log.with_suffix(".exit").write_text(f"{done.returncode}\n", encoding="utf-8")
        print(f"{number:02d} {name}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
