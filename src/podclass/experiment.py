"""The full comparison protocol: preprocessing arms, baselines, repeats.

One experiment takes a partitioned dataset and runs its arm list, which
lives here: the raw images, then one arm per truncation rule in which
every frame is replaced by its projection onto its own class's subspace
(built from the train partition only; each class is fitted once). Each
arm gets a deterministic nearest-subspace baseline on the unprojected
images, a header read off its library's provenance, and ``runs``
independent network trainings whose seeds are base seed + run index;
accuracies are aggregated as mean and sample deviation per partition.
The trainings of all arms run in forked worker processes, one per
available core.

Reports carry no timestamps and serialize with sorted keys, so the same
inputs produce byte-identical reports.

A caveat rides in every report header: projecting an evaluation frame
uses its true class, so network scores on projected partitions lean on
label information. The subspace baseline never does.
"""

from __future__ import annotations

import ctypes
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import convnet
from .basis import BasisLibrary, fit_classes, library_from_fits, project_pairs
from .dataset import PARTITIONS, DatasetSplit, SplitMetadata, partition_arrays
from .errors import CapacityError, ConfigError
from .metrics import accuracy, aggregate, confusion_matrix
from .subspace import classify_pairs
from .svd import TruncationRule, _openblas_threads, one_blas_thread

EVAL_PARTITIONS = ("validation", "test", "unseen")

LEAK_NOTE = (
    "projected evaluation partitions use each frame's true class for the "
    "projection; network accuracies on those partitions rely on label "
    "information, while the subspace baseline classifies unprojected frames"
)


@dataclass(frozen=True)
class ExperimentConfig:
    rules: tuple[TruncationRule, ...] = (TruncationRule(),)
    runs: int = 5
    epochs: int = 80
    batch_size: int = 128
    learning_rate: float = 1e-3
    seed: int = 0
    channels: tuple[int, int, int] = (32, 64, 64)
    hidden: int = 128

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigError("need at least one run")
        names = [name for name, _, _ in self.arms]
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate truncation arms: {names}")
        self.train_config()  # refuses bad training knobs now
        convnet.check_seed(self.seed)
        convnet.check_seed(self.seed + self.runs - 1)  # the last network's
        convnet.check_widths(self.channels, self.hidden)

    @property
    def arms(self) -> list[tuple[str, TruncationRule, bool]]:
        """(name, rule of the library behind it, projected) per arm: raw,
        whose baseline borrows the hard-threshold library, then one per rule."""
        return [("raw", TruncationRule(), False)] + [
            (_arm_name(rule), rule, True) for rule in self.rules
        ]

    def train_config(self) -> convnet.TrainConfig:
        return convnet.TrainConfig(self.epochs, self.batch_size, self.learning_rate)

    def architecture(self, metadata: SplitMetadata) -> convnet.Architecture:
        """The seeded network for a split, which refuses one none can train."""
        h, w = metadata.frame_shape
        classes, seed = len(metadata.classes), self.seed
        return convnet.Architecture(h, w, self.channels, self.hidden, classes, seed)


def _arm_name(rule: TruncationRule) -> str:
    if rule.rank is not None:
        return f"projected-r{rule.rank}"
    if rule.tolerance is not None:
        return f"projected-tol{rule.tolerance:g}"
    return "projected-auto"


def baseline_report(library: BasisLibrary, split: DatasetSplit) -> dict:
    """Nearest-subspace accuracy and confusion per evaluation partition."""
    out: dict = {}
    for name in EVAL_PARTITIONS:
        pairs = split.partition(name)
        if not pairs:
            continue
        true, predicted = classify_pairs(library, pairs)
        out[name] = {
            "accuracy": accuracy(true, predicted),
            "confusion": confusion_matrix(
                true, predicted, len(split.metadata.classes)
            ).tolist(),
        }
    return out


def train_and_score(
    arch: convnet.Architecture,
    data: dict[str, tuple[np.ndarray, np.ndarray]],
    train_config: convnet.TrainConfig,
    validate_every_epoch: bool,
) -> tuple[convnet.TrainResult, dict[str, float]]:
    """Train ``arch`` (weights and epoch shuffles from ``arch.seed``) on
    ``data["train"]`` and score it on every evaluation partition present.

    ``data["validation"]``, when present, is scored after every epoch if
    ``validate_every_epoch``, else once on the final parameters; either
    way the last history row carries its loss and accuracy, which are a
    function of the final parameters alone.
    """
    if "train" not in data:
        raise CapacityError("training needs a nonempty train partition")
    validation = data.get("validation")
    result = convnet.train(
        arch,
        *data["train"],
        train_config,
        validation=validation if validate_every_epoch else None,
    )
    scores = {}
    if validation is not None:
        last = result.history[-1]
        if not validate_every_epoch:
            loss, acc = convnet.evaluate_network(result.params, *validation)
            last.update(validation_loss=loss, validation_accuracy=acc)
        scores["validation"] = last["validation_accuracy"]
    for name in ("test", "unseen"):
        if name in data:
            images, labels = data[name]
            scores[name] = accuracy(labels, convnet.predict(result.params, images))
    return result, scores


def _network_row(
    arch: convnet.Architecture,
    data: dict[str, tuple[np.ndarray, np.ndarray]],
    train_config: convnet.TrainConfig,
) -> dict:
    """One network of one arm as a report row, which keeps only the last
    epoch's history, so validation runs once."""
    result, scores = train_and_score(
        arch, data, train_config, validate_every_epoch=False
    )
    return {"seed": arch.seed, "final": result.history[-1], **scores}


def _worker_count(jobs: int) -> int:
    """One training process per available core, at most one per job; 1
    (train in this process) where fork or the BLAS thread setter is
    missing. Without ``os.sched_getaffinity`` (macOS) every core counts."""
    if not hasattr(os, "fork") or _openblas_threads() is None:
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return min(jobs, len(affinity(0)) if affinity else os.cpu_count() or 1)


def _mallopt():
    """The C library's ``int mallopt(int, int)``, or None where it has none
    (not glibc)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
    return mallopt


# glibc mallopt parameters, set in training workers only: every block under
# 1 GiB comes from the heap, and freed memory stays there.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

_worker_jobs: list = []  # a forked worker's copy of the parent's job list


def _start_worker(jobs: list) -> None:
    """Set up a training worker: one BLAS thread, and freed memory kept on
    the heap. By default glibc maps each large array (a batch's patch
    matrices, conv1's output, pool1's gradient: 8-75 MB at 64x64, batch
    128) from the kernel and unmaps it when freed, so every batch faults
    in fresh zeroed pages. The calling process keeps its allocator."""
    global _worker_jobs
    _openblas_threads()[1](1)  # the workers, not BLAS threads, fill the cores
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, 1 << 30)
        mallopt(M_TRIM_THRESHOLD, 2**31 - 1)
    _worker_jobs = jobs


def _run_worker_job(index: int) -> dict:
    return _network_row(*_worker_jobs[index])


def _network_runs(
    arch: convnet.Architecture,
    arm_data: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]],
    config: ExperimentConfig,
) -> dict[str, dict]:
    """Per arm, ``config.runs`` networks of ``arch`` (seeds base seed + run
    index) and the aggregate of their accuracies per partition.

    Every (arm, seed) network is a pure function of its inputs, so they
    train in forked worker processes, which inherit the inputs instead of
    receiving pickled copies. Rows are merged in (arm, seed) order, so the
    report does not depend on the worker count; the first job in that
    order to raise decides the exception.
    """
    jobs = [
        (replace(arch, seed=config.seed + i), data, config.train_config())
        for data in arm_data.values()
        for i in range(config.runs)
    ]
    workers = _worker_count(len(jobs))
    if workers == 1:
        with one_blas_thread():  # as in the workers, so rows do not move
            rows = [_network_row(*job) for job in jobs]
    else:
        # Imported only here: in a process that trains nothing (the disk
        # pipeline), importing multiprocessing moved glibc's dynamic mmap
        # threshold enough to add 10% to the peak resident memory.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker,
            initargs=(jobs,),
        )
        try:
            rows = list(pool.map(_run_worker_job, range(len(jobs))))
        finally:
            pool.shutdown(cancel_futures=True)
    out = {}
    for k, arm in enumerate(arm_data):
        runs = rows[k * config.runs : (k + 1) * config.runs]
        out[arm] = {
            "runs": runs,
            "aggregate": {
                name: aggregate([row[name] for row in runs])
                for name in EVAL_PARTITIONS
                if name in runs[0]
            },
        }
    return out


def run_experiment(split: DatasetSplit, config: ExperimentConfig) -> dict:
    """Execute every arm and assemble the deterministic report. The network
    is built first, so a split none can train is refused before any fit.
    Each class is fitted once, each distinct rule gives one library and one
    baseline, and the fits are freed before any arm's data is built."""
    arch = config.architecture(split.metadata)
    fits = fit_classes(split.train)
    libraries = {
        rule: library_from_fits(
            fits, split.metadata.frame_shape, rule, "train partition"
        )
        for rule in dict.fromkeys(rule for _, rule, _ in config.arms)
    }
    del fits
    baselines = {rule: baseline_report(lib, split) for rule, lib in libraries.items()}
    parts = {n: pairs for n in PARTITIONS if (pairs := split.partition(n))}
    arms: dict[str, dict] = {}
    arm_data: dict[str, dict] = {}
    for name, rule, projected in config.arms:
        library = libraries[rule]
        arm_data[name] = {
            n: partition_arrays(project_pairs(library, pairs) if projected else pairs)
            for n, pairs in parts.items()
        }
        prefix = "" if projected else "baseline_"  # raw ranks only its baseline
        arms[name] = {
            "kind": "projected" if projected else "raw",
            f"{prefix}rank_rule": library.provenance["rank_rule"],
            f"{prefix}ranks": library.provenance["ranks"],
            "baseline": baselines[rule],
            "warnings": library.provenance["warnings"],
        }

    for name, network in _network_runs(arch, arm_data, config).items():
        arms[name]["network"] = network

    report = {
        "protocol": {
            "arm_order": list(arms),
            "runs": config.runs,
            "epochs": config.epochs,
            "batch_size": config.batch_size,
            "learning_rate": config.learning_rate,
            "seed": config.seed,
            "arch": {"channels": list(config.channels), "hidden": config.hidden},
            "classes": [label.code for label in split.metadata.classes],
            "split_counts": split.counts(),
            "notes": [LEAK_NOTE],
        },
        "arms": arms,
    }
    report["summary"] = summary_rows(report)
    return report


def summary_rows(report: dict) -> list[str]:
    """One tab-separated row per arm with mean and deviation per partition."""
    rows = []
    for name in report["protocol"]["arm_order"]:
        agg = report["arms"][name]["network"]["aggregate"]
        cells = [name]
        for partition, label in (
            ("validation", "validation"),
            ("test", "testing"),
            ("unseen", "unseen"),
        ):
            if partition in agg:
                mean, std = agg[partition]["mean"], agg[partition]["std"]
                cells.append(f"{label} {mean:.3g}±{std:.3g}")
        rows.append("\t".join(cells))
    return rows


def render_report(report) -> str:
    """Canonical JSON text of a result: sorted keys, two-space indent."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def save_report(report, path: str | Path) -> None:
    """Write ``report`` (any JSON value) as :func:`render_report` renders it."""
    Path(path).write_text(render_report(report), encoding="utf-8", newline="\n")
