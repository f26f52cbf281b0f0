"""Tests of the benchmark itself: every correctness check rejects a
corrupted output, and a traced run emits exactly the per-layer metric
names that README.md and BENCHMARK.json list.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from podclass import basis, dataset, experiment, subspace  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def split():
    spec = dataset.SyntheticSpec(
        class_count=3, frames_per_class=48, image_side=16,
        intrinsic_rank=3, noise_level=0.05, seed=4,
    )
    samples = dataset.generate_synthetic(spec)
    return dataset.split_dataset(samples, dataset.SplitPolicy.for_samples(samples), seed=4)


@pytest.fixture(scope="module")
def library(split):
    return basis.build_library(split.train, split.metadata.frame_shape)


@pytest.fixture(scope="module")
def class_zero(split):
    frames = [image for image, label in split.train if label.id == 0]
    matrix = checks.snapshot_matrix(frames)
    _, centered = checks.centered(matrix)
    return matrix, checks.reference_spectrum(centered)


@pytest.fixture(scope="module")
def tiny_report(split, library):
    config = experiment.ExperimentConfig(
        rules=(experiment.TruncationRule(),), runs=1, epochs=1, batch_size=16,
        seed=0, channels=(2, 2, 2), hidden=4,
    )
    report = checks.plain(experiment.run_experiment(split, config))
    counts = split.counts()
    confusions = {}
    for arm in report["arms"]:
        confusions[arm] = {}
        for partition in ("validation", "test", "unseen"):
            pairs = split.partition(partition)
            vectors = checks.snapshot_matrix([image for image, _ in pairs])
            predicted = checks.reference_predictions(
                [b.label.id for b in library.bases],
                [b.mean for b in library.bases],
                [b.modes for b in library.bases],
                vectors,
            )
            true = np.array([label.id for _, label in pairs])
            confusions[arm][partition] = checks.confusion(true, predicted, 3)
    ranks = {arm: {b.label.code: b.rank for b in library.bases} for arm in report["arms"]}
    return report, counts, confusions, ranks


def test_singular_value_check_rejects_a_perturbed_value(library, class_zero):
    _, spectrum = class_zero
    values = library.bases[0].values
    assert checks.check_singular_values("c0", values, spectrum) == []
    perturbed = values.copy()
    perturbed[0] *= 1 + 1e-7
    assert checks.check_singular_values("c0", perturbed, spectrum)


def test_rank_check_rejects_a_wrong_rank(library, class_zero):
    matrix, spectrum = class_zero
    expected = checks.reference_hard_rank(spectrum, matrix.shape)
    assert checks.check_rank("c0", library.bases[0].rank, expected) == []
    assert checks.check_rank("c0", library.bases[0].rank + 1, expected)


def test_orthonormality_check_rejects_a_skewed_mode(split):
    fixed = basis.build_library(split.train, split.metadata.frame_shape, rank=3)
    modes = fixed.bases[0].modes
    assert checks.check_orthonormal("c0", modes) == []
    skewed = modes.copy()
    skewed[:, 1] += 1e-6 * skewed[:, 0]
    assert checks.check_orthonormal("c0", skewed)


def test_projection_check_rejects_a_frame_moved_off_the_subspace(split, library):
    b = library.bases[1]
    pairs = [(image, label) for image, label in split.test if label.id == b.label.id]
    projected = basis.project_pairs(library, pairs)
    originals = checks.snapshot_matrix([image for image, _ in pairs])
    outputs = checks.snapshot_matrix([image for image, _ in projected])
    assert checks.check_projection("c1", b.mean, b.modes, originals, outputs) == []
    moved = outputs.copy()
    moved[5, 0] += 1e-6
    assert checks.check_projection("c1", b.mean, b.modes, originals, moved)


def test_prediction_check_rejects_a_flipped_prediction(split, library):
    _, predicted = subspace.classify_pairs(library, split.unseen)
    vectors = checks.snapshot_matrix([image for image, _ in split.unseen])
    expected = checks.reference_predictions(
        [b.label.id for b in library.bases],
        [b.mean for b in library.bases],
        [b.modes for b in library.bases],
        vectors,
    )
    assert checks.check_predictions("unseen", predicted, expected) == []
    flipped = predicted.copy()
    flipped[0] = (flipped[0] + 1) % 3
    assert checks.check_predictions("unseen", flipped, expected)


def test_round_trip_check_rejects_a_changed_bit(library, tmp_path):
    path = tmp_path / "lib.bin"
    basis.save_library(library, path)
    loaded = basis.load_library(path)
    saved_modes = library.bases[0].modes
    assert checks.check_bit_exact("modes", saved_modes, loaded.bases[0].modes) == []
    changed = loaded.bases[0].modes.copy()
    changed.view(np.uint64)[0, 0] ^= 1
    assert checks.check_bit_exact("modes", saved_modes, changed)


def test_ingest_check_rejects_a_frame_off_the_grid(split, tmp_path):
    samples = dataset.generate_synthetic(
        dataset.SyntheticSpec(class_count=2, frames_per_class=12, image_side=8,
                              intrinsic_rank=2, noise_level=0.1, seed=1)
    )
    dataset.write_samples(samples, tmp_path)
    loaded = dataset.load_dataset(tmp_path)
    stored = checks.quantize(np.stack(samples[0].frames))
    ingested = np.stack(loaded[0].frames)
    assert checks.check_quantized("s0", ingested, stored) == []
    shifted = ingested.copy()
    shifted[0, 0, 0] += 1.0 / 255.0
    assert checks.check_quantized("s0", shifted, stored)


def test_report_check_passes_a_real_report(tiny_report):
    assert checks.check_report(*tiny_report) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["protocol"]["split_counts"].update(test=1),
        lambda r: r["arms"]["raw"]["network"]["runs"][0].update(unseen=0.5001),
        lambda r: r["arms"]["raw"]["network"]["runs"][0]["final"].update(train_loss=float("nan")),
        lambda r: r["arms"]["projected-auto"]["baseline"]["unseen"]["confusion"][0].reverse(),
        lambda r: r["arms"]["raw"]["baseline_ranks"].update(C0=2),
        lambda r: r["arms"]["raw"]["baseline"]["test"].update(accuracy=1.5),
    ],
    ids=["split-count", "accuracy-grid", "loss", "confusion", "rank", "accuracy-range"],
)
def test_report_check_rejects_a_corrupted_report(tiny_report, corrupt):
    report, counts, confusions, ranks = tiny_report
    broken = json.loads(json.dumps(report))
    corrupt(broken)
    assert checks.check_report(broken, counts, confusions, ranks)


def test_study_claims_reject_a_small_gap_and_a_weak_baseline(tiny_report):
    report = json.loads(json.dumps(tiny_report[0]))
    arms = report["arms"]
    arms["raw"]["network"]["aggregate"]["unseen"]["mean"] = 0.2
    arms["projected-auto"]["network"]["aggregate"]["unseen"]["mean"] = 0.9
    arms["projected-auto"]["baseline"]["unseen"]["accuracy"] = 1.0
    assert checks.check_study_claims(report) == []
    arms["projected-auto"]["network"]["aggregate"]["unseen"]["mean"] = 0.29
    assert checks.check_study_claims(report)
    arms["projected-auto"]["network"]["aggregate"]["unseen"]["mean"] = 0.9
    arms["projected-auto"]["baseline"]["unseen"]["accuracy"] = 0.85
    assert checks.check_study_claims(report)


def _readme_metric_names() -> list[str]:
    text = (BENCH / "README.md").read_text(encoding="utf-8")
    section = text.split("## Per-layer metrics", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)


def test_traced_run_emits_exactly_the_listed_per_layer_metrics(split, tmp_path):
    """A traced pass over every module's public functions yields the names
    that README.md lists, which are also BENCHMARK.json's per-layer list."""

    class Tiny:
        channels = (2, 3, 4)
        side = 16

    spec = dataset.SyntheticSpec(class_count=3, frames_per_class=24, image_side=16,
                                 intrinsic_rank=2, noise_level=0.05, seed=2)
    trace = tracer.Tracer()
    trace.install()
    try:
        samples = dataset.generate_synthetic(spec)
        dataset.write_samples(samples, tmp_path / "data")
        setup_layers = tracer.setup_metrics(trace.take(), 1)

        loaded = dataset.load_dataset(tmp_path / "data")
        tiny = dataset.split_dataset(loaded, dataset.SplitPolicy.for_samples(loaded), seed=0)
        library = basis.build_library(tiny.train, tiny.metadata.frame_shape, rank=2)
        basis.save_library(library, tmp_path / "lib.bin")
        basis.load_library(tmp_path / "lib.bin")
        basis.project_pairs(library, tiny.train)
        config = experiment.ExperimentConfig(
            rules=(experiment.TruncationRule(),), runs=1, epochs=1, batch_size=8,
            seed=0, channels=Tiny.channels, hidden=4,
        )
        experiment.save_report(experiment.run_experiment(tiny, config), tmp_path / "r.json")
        spans = trace.take()
    finally:
        trace.uninstall()
    assert not hasattr(experiment.run_experiment, "__wrapped__")

    layers = worker.trace_metrics(Tiny(), [spans], [1.0], [1.0])
    emitted = sorted({**layers, **setup_layers})
    listed = _readme_metric_names()
    spec_names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert emitted == sorted(listed)
    assert sorted(spec_names) == sorted(listed)
    assert len(listed) == len(set(listed))

    assert layers["svd.thin_svd_calls"] == 2 * 3 + 3  # raw + auto arm, rank-2 library
    assert layers["svd.unique_inputs_ratio"] == 3 / 9  # one train matrix per class
    assert layers["pgm.frames_read"] == 3 * 24
    assert layers["basis.library_bytes"] == (tmp_path / "lib.bin").stat().st_size
    for name in ("convnet.conv1.forward_s", "convnet.conv3.backward_s",
                 "convnet.pool2.forward_s", "convnet.pool3.backward_s",
                 "convnet.train_s", "experiment.run_experiment_s",
                 "subspace.classify_s", "dataset.generate_synthetic_s"):
        assert {**layers, **setup_layers}[name] > 0, name


def test_unique_inputs_ratio_is_taken_within_each_round():
    def svd_span(digest):
        return tracer.Span("svd.thin_svd", None, {"j": 64, "k": 8, "digest": digest}, 0.0, 1.0)

    rounds = [[svd_span("a"), svd_span("a")], [svd_span("a"), svd_span("a")]]
    assert tracer.layer_metrics(rounds, None, 16)["svd.unique_inputs_ratio"] == 0.5
    rounds = [[svd_span("a"), svd_span("b")], [svd_span("a"), svd_span("b")]]
    assert tracer.layer_metrics(rounds, None, 16)["svd.unique_inputs_ratio"] == 1.0


def test_a_check_that_raises_counts_as_a_failed_check():
    class Broken:
        def operation(self, state):
            return 1

        def check(self, state, output):
            raise KeyError("values")

    tally = {"attempted": 0, "failed": 0, "check_failures": 0, "spans": []}
    walls = worker.run_rounds(Broken(), {}, 0.0, tally)
    assert len(walls) == 1
    assert (tally["attempted"], tally["failed"], tally["check_failures"]) == (1, 0, 1)


def test_timed_set_ups_leave_the_tree_that_one_fresh_set_up_writes(tmp_path):
    """The timed set-ups write into files emptied beforehand; the tree they
    leave for the timed rounds is byte for byte the one that a single
    set-up writes into an empty directory."""

    class Small(workloads._DiskWorkload):
        side = 16

        def spec(self, seed):
            return dataset.SyntheticSpec(class_count=3, frames_per_class=24, image_side=16,
                                         intrinsic_rank=2, noise_level=0.05, seed=seed)

        def policy(self, samples):
            return dataset.SplitPolicy.for_samples(samples)

    args = argparse.Namespace(seed=3, workdir=tmp_path / "work", trace=0)
    args.workdir.mkdir()
    result = worker.run_setup(Small(), args)
    assert len(result["setup_runs_s"]) == worker.SETUP_REPEATS
    Small().setup(3, tmp_path / "fresh")

    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    written = tree(args.workdir / "data")
    assert written == tree(tmp_path / "fresh")
    assert len(written) == 3 * 24 + 1  # every frame and the manifest
