"""The three benchmark workloads.

Each workload has a set-up step (timed as ``setup_s``), an untimed
``prepare`` that loads what the timed rounds need, one closed-loop round
(``operation``, timed as ``wall_s``) and a ``check`` of the round's output
against references computed apart from podclass (see ``checks.py``).

Calls into podclass go through module attributes (``basis.build_library``,
not a name imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from podclass import basis, cli, dataset, experiment, subspace

import checks

ROOT = Path(__file__).resolve().parent.parent
HEADLINE_CONFIG = ROOT / "configs" / "headline.cfg"
MANIFEST = cli.MANIFEST_NAME
PARTITIONS = ("train", "validation", "test", "unseen")
EVAL_PARTITIONS = ("validation", "test", "unseen")
FIXED_RANK = 5
REFERENCE_FILE = "reference.npz"


def read_manifest(path: Path) -> dict[str, list[tuple[str, str, int]]]:
    """Manifest lines per partition as (class code, sample id, frame index)."""
    entries: dict[str, list[tuple[str, str, int]]] = {p: [] for p in PARTITIONS}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            part, code, sample_id, frame = line.split("\t")
            entries[part].append((code, sample_id, int(frame)))
    return entries


def save_reference(samples, path: Path) -> None:
    """The synthesized frames on the 8-bit grid, keyed by class/sample."""
    np.savez(
        path,
        **{
            f"{s.label.code}/{s.sample_id}": checks.quantize(np.stack(s.frames))
            for s in samples
        },
    )


@dataclass
class DiskReference:
    """What a disk workload's checks compare against, built once per run
    from the set-up's quantized frames and the manifest."""

    stored: dict[str, np.ndarray]
    codes: list[str]
    entries: dict[str, list[tuple[str, str, int]]]

    @classmethod
    def load(cls, root: Path, reference: Path) -> "DiskReference":
        with np.load(reference) as archive:
            stored = {key: archive[key] for key in archive.files}
        codes = sorted({key.split("/")[0] for key in stored})
        return cls(stored, codes, read_manifest(root / MANIFEST))

    def counts(self) -> dict[str, int]:
        return {p: len(self.entries[p]) for p in PARTITIONS}

    def vectors(self, partition: str, code: str | None = None) -> np.ndarray:
        """Frames of a partition (optionally one class) as J x N columns."""
        columns = [
            self.stored[f"{c}/{s}"][k].reshape(-1).astype(np.float64) / 255.0
            for c, s, k in self.entries[partition]
            if code is None or c == code
        ]
        return np.stack(columns, axis=1)

    def true_ids(self, partition: str) -> np.ndarray:
        return np.array([self.codes.index(c) for c, _, _ in self.entries[partition]])

    def class_spectra(self) -> dict[str, tuple[np.ndarray, tuple[int, int], np.ndarray]]:
        """Per class: (LAPACK spectrum, matrix shape, centered train matrix)."""
        out = {}
        for code in self.codes:
            matrix = self.vectors("train", code)
            _, centered = checks.centered(matrix)
            out[code] = (checks.reference_spectrum(centered), matrix.shape, centered)
        return out


def _baseline_confusions(
    reference: DiskReference, spectra, ranks: dict[str, int]
) -> dict[str, list[list[int]]]:
    """Confusion matrices of the reference nearest-subspace predictions
    with each class truncated to ``ranks[code]`` LAPACK modes."""
    ids = list(range(len(reference.codes)))
    means, modes = [], []
    for code in reference.codes:
        _, _, centered = spectra[code]
        matrix = reference.vectors("train", code)
        means.append(matrix.mean(axis=1))
        modes.append(checks.reference_modes(centered, ranks[code]))
    out = {}
    for partition in EVAL_PARTITIONS:
        predicted = checks.reference_predictions(
            ids, means, modes, reference.vectors(partition)
        )
        out[partition] = checks.confusion(
            reference.true_ids(partition), predicted, len(ids)
        )
    return out


class HeadlineTrain:
    """The shipped study, in memory, on a short training budget."""

    name = "headline-train"
    channels = (8, 16, 32)
    side = 64
    config = experiment.ExperimentConfig(
        rules=(experiment.TruncationRule(),),
        runs=1,
        epochs=5,
        batch_size=128,
        learning_rate=1e-3,
        seed=0,
        channels=channels,
        hidden=64,
    )

    def synthesize(self, seed: int) -> dataset.DatasetSplit:
        spec = replace(dataset.SyntheticSpec.from_config_file(HEADLINE_CONFIG), seed=seed)
        samples = dataset.generate_synthetic(spec)
        policy = dataset.SplitPolicy.for_samples(samples)
        return dataset.split_dataset(samples, policy, seed=seed)

    def setup(self, seed: int, target: Path) -> None:
        self.synthesize(seed)

    def finish_setup(self, samples, workdir: Path) -> None:
        pass

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {"split": self.synthesize(seed)}

    def operation(self, state: dict):
        return experiment.run_experiment(state["split"], self.config)

    def _references(self, state: dict) -> dict:
        split = state["split"]
        codes = [label.code for label in split.metadata.classes]
        train = {code: [] for code in codes}
        for image, label in split.train:
            train[label.code].append(image)
        ranks, means, modes = {}, [], []
        for code in codes:
            matrix = checks.snapshot_matrix(train[code])
            mean, centered = checks.centered(matrix)
            ranks[code] = checks.reference_hard_rank(
                checks.reference_spectrum(centered), matrix.shape
            )
            means.append(mean)
            modes.append(checks.reference_modes(centered, ranks[code]))
        confusions = {}
        for partition in EVAL_PARTITIONS:
            pairs = split.partition(partition)
            vectors = checks.snapshot_matrix([image for image, _ in pairs])
            true = np.array([label.id for _, label in pairs])
            predicted = checks.reference_predictions(
                [label.id for label in split.metadata.classes], means, modes, vectors
            )
            confusions[partition] = checks.confusion(true, predicted, len(codes))
        return {
            "counts": {p: len(split.partition(p)) for p in PARTITIONS},
            "ranks": {"raw": ranks, "projected-auto": ranks},
            "confusions": {"raw": confusions, "projected-auto": confusions},
        }

    def check(self, state: dict, report) -> list[str]:
        if "references" not in state:
            state["references"] = self._references(state)
        ref = state["references"]
        report = checks.plain(report)
        return checks.check_report(
            report, ref["counts"], ref["confusions"], ref["ranks"]
        ) + checks.check_study_claims(report)


class _DiskWorkload:
    """Set-up shared by the workloads that read a PGM tree plus manifest."""

    side: int

    def spec(self, seed: int) -> dataset.SyntheticSpec:
        raise NotImplementedError

    def policy(self, samples) -> dataset.SplitPolicy:
        raise NotImplementedError

    def setup(self, seed: int, target: Path):
        samples = dataset.generate_synthetic(self.spec(seed))
        dataset.write_samples(samples, target)
        split = dataset.split_dataset(samples, self.policy(samples), seed=seed)
        dataset.write_manifest(split, target / MANIFEST)
        return samples

    def finish_setup(self, samples, workdir: Path) -> None:
        save_reference(samples, workdir / REFERENCE_FILE)

    def reference(self, state: dict) -> DiskReference:
        if "reference" not in state:
            state["reference"] = DiskReference.load(
                state["data"], state["workdir"] / REFERENCE_FILE
            )
            state["spectra"] = state["reference"].class_spectra()
        return state["reference"]


@dataclass
class PodDiskOutput:
    samples: list
    split: dataset.DatasetSplit
    hard: basis.BasisLibrary
    fixed: basis.BasisLibrary
    loaded: basis.BasisLibrary
    predicted: dict
    projected: dict


class PodDisk(_DiskWorkload):
    """Ingest, two libraries, a save/load round trip, classification and
    projection; no network."""

    name = "pod-disk"
    channels = None
    side = 64

    def spec(self, seed: int) -> dataset.SyntheticSpec:
        return dataset.SyntheticSpec(
            class_count=5, frames_per_class=600, image_side=self.side,
            intrinsic_rank=5, noise_level=0.1, seed=seed,
        )

    def policy(self, samples) -> dataset.SplitPolicy:
        return dataset.SplitPolicy.for_samples(samples)

    def prepare(self, seed: int, workdir: Path) -> dict:
        return {
            "data": workdir / "data",
            "workdir": workdir,
            "library": workdir / "out" / "rank5.lib",
        }

    def operation(self, state: dict) -> PodDiskOutput:
        root = state["data"]
        samples = dataset.load_dataset(root)
        split = dataset.split_from_manifest(samples, root / MANIFEST, view=self.name)
        shape = split.metadata.frame_shape
        hard = basis.build_library(split.train, shape, source="train partition")
        fixed = basis.build_library(
            split.train, shape, rank=FIXED_RANK, source="train partition"
        )
        basis.save_library(fixed, state["library"])
        loaded = basis.load_library(state["library"])
        predicted = {
            p: subspace.classify_pairs(loaded, split.partition(p)) for p in EVAL_PARTITIONS
        }
        projected = {p: basis.project_pairs(hard, split.partition(p)) for p in PARTITIONS}
        return PodDiskOutput(samples, split, hard, fixed, loaded, predicted, projected)

    def check(self, state: dict, out: PodDiskOutput) -> list[str]:
        ref = self.reference(state)
        spectra = state["spectra"]
        failures = []
        for sample in out.samples:
            key = f"{sample.label.code}/{sample.sample_id}"
            if key not in ref.stored:
                failures.append(f"ingest: unexpected sample {key}")
                continue
            failures += checks.check_quantized(
                f"ingest {key}", np.stack(sample.frames), ref.stored[key]
            )
        if len(out.samples) != len(ref.stored):
            failures.append(f"ingest: {len(out.samples)} samples, wrote {len(ref.stored)}")
        counts = {p: len(out.split.partition(p)) for p in PARTITIONS}
        if counts != ref.counts():
            failures.append(f"split counts {counts} differ from the manifest's {ref.counts()}")

        for kind, library in (("hard-threshold", out.hard), ("rank-5", out.fixed)):
            for b in library.bases:
                spectrum, shape, _ = spectra[b.label.code]
                where = f"{kind} {b.label.code}"
                expected = (
                    FIXED_RANK if library is out.fixed
                    else checks.reference_hard_rank(spectrum, shape)
                )
                failures += checks.check_rank(where, b.rank, expected)
                failures += checks.check_singular_values(where, b.values, spectrum)
                failures += checks.check_orthonormal(where, b.modes)

        if out.loaded.frame_shape != out.fixed.frame_shape:
            failures.append("round trip: frame shape changed")
        if out.loaded.provenance != out.fixed.provenance:
            failures.append("round trip: provenance changed")
        for saved, loaded in zip(out.fixed.bases, out.loaded.bases, strict=True):
            where = f"round trip {saved.label.code}"
            if saved.label != loaded.label:
                failures.append(f"{where}: label changed")
            failures += checks.check_bit_exact(f"{where} mean", saved.mean, loaded.mean)
            failures += checks.check_bit_exact(f"{where} modes", saved.modes, loaded.modes)

        ids = [b.label.id for b in out.loaded.bases]
        means = [b.mean for b in out.loaded.bases]
        modes = [b.modes for b in out.loaded.bases]
        for partition in EVAL_PARTITIONS:
            true, predicted = out.predicted[partition]
            if not np.array_equal(true, ref.true_ids(partition)):
                failures.append(f"classify {partition}: true labels differ from the manifest")
            expected = checks.reference_predictions(ids, means, modes, ref.vectors(partition))
            failures += checks.check_predictions(f"classify {partition}", predicted, expected)

        for partition in PARTITIONS:
            projected = out.projected[partition]
            for b in out.hard.bases:
                rows = [
                    image.reshape(-1)
                    for (image, label) in projected
                    if label.id == b.label.id
                ]
                failures += checks.check_projection(
                    f"project {partition} {b.label.code}",
                    b.mean,
                    b.modes,
                    ref.vectors(partition, b.label.code),
                    np.stack(rows, axis=1),
                )
        return failures


class CliWide(_DiskWorkload):
    """``podclass experiment --rank 5`` through the CLI's default wide net."""

    name = "cli-wide"
    channels = (32, 64, 64)
    side = 16
    frames_per_sample = 40
    split_frames = (120, 80, 40)  # train, validation, test per class

    def spec(self, seed: int) -> dataset.SyntheticSpec:
        return dataset.SyntheticSpec(
            class_count=5, frames_per_class=12 * self.frames_per_sample,
            image_side=self.side, intrinsic_rank=5, noise_level=0.1, seed=seed,
        )

    def policy(self, samples) -> dataset.SplitPolicy:
        return dataset.SplitPolicy(9, 3, self.frames_per_sample, *self.split_frames)

    def prepare(self, seed: int, workdir: Path) -> dict:
        out = workdir / "out"
        return {
            "data": workdir / "data",
            "workdir": workdir,
            "report": out / "report.json",
            "argv": [
                "experiment", "--data", str(workdir / "data"), "--rank", str(FIXED_RANK),
                "--runs", "1", "--epochs", "1", "--seed", str(seed),
                "--out", str(out / "report.json"),
            ],
        }

    def operation(self, state: dict) -> Path:
        state["report"].unlink(missing_ok=True)  # the check must read this round's report
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(state["argv"])
        if code != 0:
            raise RuntimeError(f"podclass experiment exited with code {code}")
        return state["report"]

    def check(self, state: dict, report_path: Path) -> list[str]:
        ref = self.reference(state)
        spectra = state["spectra"]
        if "expected" not in state:
            hard = {
                code: checks.reference_hard_rank(spectrum, shape)
                for code, (spectrum, shape, _) in spectra.items()
            }
            fixed = {code: FIXED_RANK for code in ref.codes}
            arm = f"projected-r{FIXED_RANK}"
            state["expected"] = (
                {"raw": hard, arm: fixed},
                {
                    "raw": _baseline_confusions(ref, spectra, hard),
                    arm: _baseline_confusions(ref, spectra, fixed),
                },
            )
        ranks, confusions = state["expected"]
        report = json.loads(report_path.read_text(encoding="utf-8"))
        return checks.check_report(report, ref.counts(), confusions, ranks)


WORKLOADS = {w.name: w for w in (HeadlineTrain(), PodDisk(), CliWide())}
