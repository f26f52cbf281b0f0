import json
import multiprocessing
import os
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from podclass import basis, convnet, experiment, svd
from podclass.basis import build_library, project_pairs
from podclass.dataset import (
    PARTITIONS,
    Sample,
    SplitPolicy,
    SyntheticSpec,
    generate_synthetic,
    partition_arrays,
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
    def name(rule):
        return ExperimentConfig(rules=(rule,)).arms[1][0]

    assert name(TruncationRule(rank=7)) == "projected-r7"
    assert name(TruncationRule(tolerance=0.05)) == "projected-tol0.05"
    assert name(TruncationRule()) == "projected-auto"
    with pytest.raises(ConfigError):
        TruncationRule(rank=2, tolerance=0.1)


def test_config_rejects_duplicate_arms():
    with pytest.raises(ConfigError):
        ExperimentConfig(rules=(TruncationRule(rank=3), TruncationRule(rank=3)))


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"learning_rate": float("inf")}, "learning_rate must be positive and finite"),
        ({"learning_rate": 0.0}, "learning_rate must be positive and finite"),
        ({"epochs": 0}, "epochs and batch_size must be positive"),
        ({"batch_size": 0}, "epochs and batch_size must be positive"),
        ({"channels": (4, 0, 4)}, "need three positive channel counts"),
        ({"channels": (4, 4)}, "need three positive channel counts"),
        ({"hidden": 0}, "need hidden >= 1"),
    ],
)
def test_config_checks_training_knobs_at_construction(knobs, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**knobs)


@pytest.mark.parametrize(
    "knobs, refused, taken",
    [
        ({"seed": -1}, -1, {"seed": 0}),
        ({"seed": 2**64 - 4, "runs": 5}, 2**64, {"seed": 2**64 - 4, "runs": 4}),
        ({"seed": 2**64, "runs": 1}, 2**64, {"seed": 2**64 - 1, "runs": 1}),
    ],
)
def test_config_refuses_a_first_or_last_seed_outside_u64(knobs, refused, taken):
    # seed + runs - 1 is the last network's seed, stored in its checkpoint
    message = rf"seed {refused} is outside \[0, 2\*\*64\)"
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**knobs)
    assert ExperimentConfig(**taken).seed == taken["seed"]


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


def test_arm_headers_come_from_library_provenance(tiny_split):
    rules = (TruncationRule(), TruncationRule(rank=2), TruncationRule(tolerance=0.2))
    config = replace(_hard_and_fixed_config(rank=2), rules=rules)
    report = run_experiment(tiny_split, config)
    names = ["raw", "projected-auto", "projected-r2", "projected-tol0.2"]
    assert report["protocol"]["arm_order"] == names
    arms = report["arms"]
    raw_keys = {"kind", "baseline_rank_rule", "baseline_ranks", "baseline"}
    assert set(arms["raw"]) == raw_keys | {"warnings", "network"}
    shape = tiny_split.metadata.frame_shape
    fits = basis.fit_classes(tiny_split.train)
    for name, rule in zip(names[1:], rules):
        provenance = basis.library_from_fits(fits, shape, rule).provenance
        assert set(arms[name]) == {
            "kind", "rank_rule", "ranks", "baseline", "warnings", "network"
        }
        assert arms[name]["kind"] == "projected"
        for key in ("rank_rule", "ranks", "warnings"):
            assert arms[name][key] == provenance[key]
    for key in ("rank_rule", "ranks"):
        assert arms["raw"]["baseline_" + key] == arms["projected-auto"][key]


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


@pytest.mark.parametrize(
    "classes, side, message",
    [
        (1, 16, "need classes >= 2"),
        (3, 4, "images must be at least 8x8 to survive three pools"),
    ],
    ids=["one-class", "4x4-frames"],
)
def test_a_split_no_network_can_train_is_refused_before_any_fit(
    tiny_samples, small_config, monkeypatch, classes, side, message
):
    # the network used to be built in each training job, after every fit,
    # baseline and projection
    def never(*args):
        raise AssertionError("fitted a split that no network can train")

    monkeypatch.setattr(experiment, "fit_classes", never)
    samples = [
        Sample(s.label, s.sample_id, [frame[:side, :side] for frame in s.frames])
        for s in tiny_samples
        if s.label.id < classes
    ]
    split = split_dataset(samples, SplitPolicy.for_samples(samples), seed=2)
    with pytest.raises(ConfigError) as caught:
        run_experiment(split, small_config)
    assert str(caught.value) == message


# -- training processes -------------------------------------------------------


needs_workers = pytest.mark.skipif(
    svd._openblas_threads() is None,
    reason="numpy is not linked against OpenBLAS: trainings run in-process",
)


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


def test_reports_are_identical_without_sched_getaffinity(
    tiny_split, small_config, small_report, monkeypatch
):
    # macOS has no os.sched_getaffinity: the worker count falls back to
    # os.cpu_count() instead of raising AttributeError
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count in (1, 2, None):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        report = run_experiment(tiny_split, small_config)
        assert render_report(report) == render_report(small_report)


@needs_workers
def test_networks_train_in_worker_processes_on_more_than_one_cpu(
    tiny_split, small_config, monkeypatch
):
    network_row = experiment._network_row

    def with_pid(*args):
        return {**network_row(*args), "pid": os.getpid()}

    monkeypatch.setattr(experiment, "_network_row", with_pid)
    for count, in_parent in ((1, True), (2, False)):
        _cpus(monkeypatch, count)
        report = run_experiment(tiny_split, small_config)
        pids = [row["pid"] for arm in report["arms"].values()
                for row in arm["network"]["runs"]]
        assert len(pids) == 4
        assert all((pid == os.getpid()) == in_parent for pid in pids)
        assert multiprocessing.active_children() == []


@needs_workers
def test_one_worker_trains_on_one_blas_thread_and_restores_the_count(
    tiny_split, small_config, monkeypatch
):
    # the in-process path used to train on the caller's thread count, whose
    # sums can differ from those of the workers' one thread
    get_threads, set_threads = svd._openblas_threads()
    network_row = experiment._network_row
    seen = []

    def recording(*args):
        seen.append(get_threads())
        return network_row(*args)

    monkeypatch.setattr(experiment, "_network_row", recording)
    _cpus(monkeypatch, 1)
    before = get_threads()
    try:
        set_threads(2)
        run_experiment(tiny_split, small_config)
        assert seen == [1] * 4 and get_threads() == 2
    finally:
        set_threads(before)


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


def test_frame_blocks_leave_the_report_unchanged(
    tiny_split, small_config, small_report, monkeypatch
):
    rendered = []
    for budget in (1 << 62, 1):  # one block per batch; one frame per block
        monkeypatch.setattr(convnet, "BLOCK_BYTES", budget)
        rendered.append(render_report(run_experiment(tiny_split, small_config)))
    assert len(convnet._frame_blocks(small_config.batch_size, 16, 16, 1)) == 16
    assert rendered[0] == rendered[1] == render_report(small_report)


# -- one validation pass per experiment network -------------------------------


def test_each_experiment_network_validates_once(
    tiny_split, small_config, small_report, monkeypatch
):
    _cpus(monkeypatch, 1)  # in-process, where the calls can be counted
    calls = []
    evaluate_network = convnet.evaluate_network

    def counting(*args):
        calls.append(args)
        return evaluate_network(*args)

    monkeypatch.setattr(convnet, "evaluate_network", counting)
    report = run_experiment(tiny_split, small_config)
    assert len(calls) == 2 * small_config.runs  # raw and projected-r3
    assert render_report(report) == render_report(small_report)


def test_final_row_is_the_last_row_of_per_epoch_validation(
    tiny_split, small_config, small_report
):
    library = build_library(tiny_split.train, tiny_split.metadata.frame_shape, rank=3)
    parts = {n: pairs for n in PARTITIONS if (pairs := tiny_split.partition(n))}
    arm_parts = {
        "raw": parts,
        "projected-r3": {n: project_pairs(library, p) for n, p in parts.items()},
    }
    h, w = tiny_split.metadata.frame_shape
    c = small_config
    for arm, arm_pairs in arm_parts.items():
        data = {n: partition_arrays(p) for n, p in arm_pairs.items()}
        for row in small_report["arms"][arm]["network"]["runs"]:
            seed = row["seed"]
            arch = convnet.Architecture(h, w, c.channels, c.hidden, 3, seed)
            _, history = convnet.train(
                arch, *data["train"], c.train_config(),
                validation=data["validation"],
            )
            assert json.dumps(row["final"]) == json.dumps(history[-1])
            assert row["validation"] == history[-1]["validation_accuracy"]


# -- the training workers' allocator ------------------------------------------


def _recording_mallopt(path):
    """A stand-in for ``mallopt`` that appends each call to ``path``, which
    a forked worker's calls reach, unlike a list in the parent. Each line
    names the calling process, since workers start at the same time and
    their lines interleave."""

    def mallopt(param, value):
        with open(path, "a", encoding="utf-8") as log:
            log.write(f"{os.getpid()} {param} {value}\n")
        return 1

    return mallopt


@needs_workers
def test_workers_keep_freed_memory_and_the_caller_is_untouched(
    tiny_split, small_config, small_report, monkeypatch, tmp_path
):
    log = tmp_path / "mallopt.log"
    monkeypatch.setattr(experiment, "_mallopt", lambda: _recording_mallopt(log))
    _cpus(monkeypatch, 1)
    assert render_report(run_experiment(tiny_split, small_config)) == render_report(
        small_report
    )
    assert not log.exists()  # the in-process path keeps the caller's allocator
    _cpus(monkeypatch, 2)
    assert render_report(run_experiment(tiny_split, small_config)) == render_report(
        small_report
    )
    calls: dict[str, list[str]] = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        pid, call = line.split(" ", 1)
        calls.setdefault(pid, []).append(call)
    per_worker = [f"-3 {2**30}", f"-1 {2**31 - 1}"]  # M_MMAP_, M_TRIM_THRESHOLD
    assert calls and all(made == per_worker for made in calls.values())


@needs_workers
def test_workers_train_where_the_c_library_has_no_mallopt(
    tiny_split, small_config, small_report, monkeypatch
):
    monkeypatch.setattr(experiment, "_mallopt", lambda: None)
    _cpus(monkeypatch, 2)
    assert render_report(run_experiment(tiny_split, small_config)) == render_report(
        small_report
    )


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="not glibc")
def test_mallopt_is_found_in_glibc():
    assert experiment._mallopt() is not None
