import json
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from podclass import basis, experiment, svd
from podclass.basis import build_library
from podclass.dataset import (
    SplitPolicy,
    SyntheticSpec,
    generate_synthetic,
    split_dataset,
)
from podclass.errors import ConfigError, NumericError
from podclass.experiment import (
    LEAK_NOTE,
    ExperimentConfig,
    TruncationRule,
    baseline_report,
    render_report,
    run_experiment,
    save_report,
)


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(
        rules=(TruncationRule(rank=3),),
        runs=2,
        epochs=2,
        batch_size=16,
        learning_rate=1e-3,
        seed=0,
        channels=(2, 2, 2),
        hidden=4,
    )


@pytest.fixture(scope="module")
def small_report(tiny_split, small_config):
    return run_experiment(tiny_split, small_config)


def test_rule_naming():
    assert TruncationRule(rank=7).arm_name == "projected-r7"
    assert TruncationRule(tolerance=0.05).arm_name == "projected-tol0.05"
    assert TruncationRule().arm_name == "projected-auto"
    with pytest.raises(ConfigError):
        TruncationRule(rank=2, tolerance=0.1)


def test_config_rejects_duplicate_arms():
    with pytest.raises(ConfigError):
        ExperimentConfig(rules=(TruncationRule(rank=3), TruncationRule(rank=3)))


def test_report_has_raw_and_projected_arms(small_report):
    assert small_report["protocol"]["arm_order"] == ["raw", "projected-r3"]
    assert set(small_report["arms"]) == {"raw", "projected-r3"}
    assert small_report["arms"]["raw"]["kind"] == "raw"
    assert small_report["arms"]["projected-r3"]["kind"] == "projected"


def test_report_carries_leak_note(small_report):
    assert LEAK_NOTE in small_report["protocol"]["notes"]


def test_report_run_count_and_seeds(small_report, small_config):
    for arm in small_report["arms"].values():
        runs = arm["network"]["runs"]
        assert len(runs) == small_config.runs
        assert [r["seed"] for r in runs] == [0, 1]
        for row in runs:
            assert row["validation"] == row["final"]["validation_accuracy"]
        for partition in ("validation", "test", "unseen"):
            agg = arm["network"]["aggregate"][partition]
            assert agg["count"] == small_config.runs
            assert 0.0 <= agg["mean"] <= 1.0


def test_baseline_present_per_arm(small_report):
    for arm in small_report["arms"].values():
        for partition in ("validation", "test", "unseen"):
            section = arm["baseline"][partition]
            assert 0.0 <= section["accuracy"] <= 1.0
            matrix = np.array(section["confusion"])
            assert matrix.shape == (3, 3)
            assert matrix.sum() > 0


def test_summary_row_format(small_report):
    rows = small_report["summary"]
    assert len(rows) == 2
    for row in rows:
        cells = row.split("\t")
        assert cells[0] in ("raw", "projected-r3")
        assert cells[1].startswith("validation ")
        assert cells[2].startswith("testing ")
        assert cells[3].startswith("unseen ")
        assert "±" in cells[1]


def test_reports_are_bit_identical(tiny_split, small_config, small_report):
    again = run_experiment(tiny_split, small_config)
    assert render_report(again) == render_report(small_report)


def test_render_report_is_valid_sorted_json(small_report, tmp_path):
    text = render_report(small_report)
    parsed = json.loads(text)
    assert list(parsed.keys()) == sorted(parsed.keys())
    path = tmp_path / "report.json"
    save_report(small_report, path)
    assert path.read_text(encoding="utf-8") == text


def test_baseline_report_standalone(tiny_split):
    library = build_library(tiny_split.train, tiny_split.metadata.frame_shape, rank=3)
    out = baseline_report(library, tiny_split)
    assert set(out) == {"validation", "test", "unseen"}
    assert out["unseen"]["accuracy"] == 1.0


def _hard_and_fixed_config(rank: int) -> ExperimentConfig:
    return ExperimentConfig(
        rules=(TruncationRule(), TruncationRule(rank=rank)),
        runs=1,
        epochs=1,
        batch_size=64,
        channels=(2, 2, 2),
        hidden=4,
    )


def test_each_class_is_fitted_once_per_experiment(tiny_split, monkeypatch):
    shapes = []

    def counting_svd(*args, **kwargs):
        shapes.append(args[0].shape)
        return svd.thin_svd(*args, **kwargs)

    monkeypatch.setattr(basis, "thin_svd", counting_svd)
    run_experiment(tiny_split, _hard_and_fixed_config(rank=2))
    frames = len(tiny_split.train) // len(tiny_split.metadata.classes)
    assert shapes == [(16 * 16, frames)] * len(tiny_split.metadata.classes)


def test_one_library_and_baseline_per_distinct_rule(tiny_split, monkeypatch):
    # the raw arm's baseline and the projected-auto arm's are the same
    # hard-threshold truncation of the same fits, so they are built once
    calls = []

    def counting_baseline(library, split):
        calls.append(library.provenance["rank_rule"])
        return baseline_report(library, split)

    monkeypatch.setattr(experiment, "baseline_report", counting_baseline)
    report = run_experiment(tiny_split, _hard_and_fixed_config(rank=2))
    assert calls == [{"kind": "hard-threshold"}, {"kind": "fixed", "rank": 2}]
    arms = report["arms"]
    assert arms["raw"]["baseline"] == arms["projected-auto"]["baseline"]


def test_rank_one_fallback_is_reported_per_arm():
    config_file = Path(__file__).resolve().parent.parent / "configs" / "headline.cfg"
    spec = replace(SyntheticSpec.from_config_file(config_file), class_count=2)
    samples = generate_synthetic(spec)
    split = split_dataset(samples, SplitPolicy.for_samples(samples), seed=spec.seed)
    report = run_experiment(split, _hard_and_fixed_config(rank=2))
    assert report["arms"]["raw"]["baseline_ranks"] == {"C0": 1, "C1": 1}
    assert report["arms"]["projected-auto"]["ranks"] == {"C0": 1, "C1": 1}
    for arm in ("raw", "projected-auto"):
        warnings = report["arms"][arm]["warnings"]
        assert [w.split(":")[0] for w in warnings] == ["class C0", "class C1"]
        assert all("fell back to rank 1" in w for w in warnings)
    assert report["arms"]["projected-r2"]["warnings"] == []


def test_no_warnings_above_the_noise_edge(small_report):
    for arm in small_report["arms"].values():
        assert arm["warnings"] == []


# -- training processes -------------------------------------------------------


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_reports_are_identical_on_one_and_two_cpus(
    tiny_split, small_config, small_report, monkeypatch
):
    rendered = []
    for count in (1, 2):
        _cpus(monkeypatch, count)
        rendered.append(render_report(run_experiment(tiny_split, small_config)))
    assert rendered[0] == rendered[1] == render_report(small_report)


@pytest.mark.skipif(
    experiment._blas_thread_setter() is None,
    reason="numpy is not linked against OpenBLAS: trainings run in-process",
)
def test_networks_train_in_worker_processes_on_more_than_one_cpu(
    tiny_split, small_config, monkeypatch
):
    train_and_score = experiment._train_and_score

    def with_pid(*args):
        return {**train_and_score(*args), "pid": os.getpid()}

    monkeypatch.setattr(experiment, "_train_and_score", with_pid)
    for count, in_parent in ((1, True), (2, False)):
        _cpus(monkeypatch, count)
        report = run_experiment(tiny_split, small_config)
        pids = [row["pid"] for arm in report["arms"].values()
                for row in arm["network"]["runs"]]
        assert len(pids) == 4
        assert all((pid == os.getpid()) == in_parent for pid in pids)
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("count", [1, 2])
def test_divergence_raises_the_same_error_on_any_cpu_count(
    tiny_split, small_config, monkeypatch, count
):
    _cpus(monkeypatch, count)
    config = replace(small_config, learning_rate=1e300)
    with pytest.raises(NumericError) as caught, np.errstate(all="ignore"):
        run_experiment(tiny_split, config)
    assert str(caught.value) == "training diverged at epoch 0"
    assert multiprocessing.active_children() == []
