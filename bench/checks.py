"""Correctness checks on the outputs of a benchmark round.

Every check is computed apart from podclass: reference spectra come from
LAPACK through ``numpy.linalg``, the hard-threshold rank from the published
omega(beta) cubic, projections and nearest-subspace predictions from a QR
factorization of each class's kept modes, and the rest from properties the
method must have. Each check returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Sequence

import numpy as np

# Kept singular values against the LAPACK reference, relative to sigma_1.
SPECTRUM_RTOL = 1e-9
# Max |M^T M - I| entry for a set of modes.
ORTHONORMAL_TOL = 1e-10
# Projection errors, relative to max(1, largest |pixel| of the frame batch).
PROJECTION_TOL = 1e-9
# Centering leaves one exactly-zero direction in a class's snapshot
# matrix; singular values below this share of sigma_1 are that direction.
NULL_CUTOFF = 1e-8

STUDY_BASELINE_FLOOR = 0.90
STUDY_GAP_FLOOR = 0.10


def snapshot_matrix(frames: Sequence[np.ndarray]) -> np.ndarray:
    """Frames flattened row-major into the columns of a J x K matrix."""
    return np.stack([np.asarray(f, dtype=np.float64).ravel() for f in frames], axis=1)


def centered(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = matrix.mean(axis=1)
    return mean, matrix - mean[:, None]


def reference_spectrum(centered_matrix: np.ndarray) -> np.ndarray:
    return np.linalg.svd(centered_matrix, compute_uv=False)


def gavish_donoho_omega(beta: float) -> float:
    """omega(beta) for unknown noise (Gavish & Donoho 2014, eq. 5 fit)."""
    return 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43


def reference_hard_rank(spectrum: np.ndarray, shape: tuple[int, int]) -> int:
    """Singular values above omega(beta) * median, floored at rank 1 as
    podclass documents; the median runs over the numerically nonzero
    singular values."""
    nonzero = spectrum[spectrum > NULL_CUTOFF * spectrum[0]]
    j, k = shape
    threshold = gavish_donoho_omega(min(j, k) / max(j, k)) * float(np.median(nonzero))
    return max(1, int(np.count_nonzero(nonzero > threshold)))


def reference_modes(centered_matrix: np.ndarray, rank: int) -> np.ndarray:
    modes, _, _ = np.linalg.svd(centered_matrix, full_matrices=False)
    return modes[:, :rank]


def check_singular_values(name: str, values: np.ndarray, spectrum: np.ndarray) -> list[str]:
    values = np.asarray(values, dtype=np.float64)
    if values.size > spectrum.size:
        return [f"{name}: {values.size} singular values, matrix has {spectrum.size}"]
    error = float(np.max(np.abs(values - spectrum[: values.size]), initial=0.0))
    if error > SPECTRUM_RTOL * spectrum[0]:
        return [f"{name}: kept singular values off the LAPACK spectrum by {error:.3g}"]
    return []


def check_rank(name: str, rank: int, expected: int) -> list[str]:
    return [] if rank == expected else [f"{name}: rank {rank}, expected {expected}"]


def check_orthonormal(name: str, modes: np.ndarray) -> list[str]:
    gram = modes.T @ modes
    error = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    if not error <= ORTHONORMAL_TOL:
        return [f"{name}: modes not orthonormal (max |M^T M - I| = {error:.3g})"]
    return []


def orthogonal_projection(mean: np.ndarray, modes: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """mean + Q Q^T (x - mean) with Q from a QR of the modes; columns are frames."""
    q, _ = np.linalg.qr(modes)
    offsets = vectors - mean[:, None]
    return mean[:, None] + q @ (q.T @ offsets)


def check_projection(
    name: str,
    mean: np.ndarray,
    modes: np.ndarray,
    originals: np.ndarray,
    projected: np.ndarray,
) -> list[str]:
    """Projected frames (columns) equal the orthogonal projection of the
    originals, lie on the class's affine subspace, and stay put when
    projected again."""
    scale = max(1.0, float(np.max(np.abs(originals))))
    failures = []
    expected = orthogonal_projection(mean, modes, originals)
    error = float(np.max(np.abs(projected - expected))) / scale
    if not error <= PROJECTION_TOL:
        failures.append(f"{name}: projection off the QR reference by {error:.3g}")
    again = orthogonal_projection(mean, modes, projected)
    drift = float(np.max(np.abs(again - projected))) / scale
    if not drift <= PROJECTION_TOL:
        failures.append(f"{name}: projected frames leave the class subspace ({drift:.3g})")
    return failures


def reference_predictions(
    ids: Sequence[int],
    means: Sequence[np.ndarray],
    modes: Sequence[np.ndarray],
    vectors: np.ndarray,
) -> np.ndarray:
    """Arg-min over classes of the distance to each affine subspace, from a
    QR of each class's modes; ties go to the first (lowest) class id."""
    residuals = np.empty((vectors.shape[1], len(ids)))
    for column, (mean, class_modes) in enumerate(zip(means, modes)):
        q, _ = np.linalg.qr(class_modes)
        offsets = vectors - mean[:, None]
        residuals[:, column] = np.linalg.norm(offsets - q @ (q.T @ offsets), axis=0)
    return np.asarray(ids)[np.argmin(residuals, axis=1)]


def check_predictions(name: str, predicted: np.ndarray, expected: np.ndarray) -> list[str]:
    predicted = np.asarray(predicted)
    if predicted.shape != expected.shape:
        return [f"{name}: {predicted.size} predictions for {expected.size} frames"]
    wrong = int(np.count_nonzero(predicted != expected))
    if wrong:
        return [f"{name}: {wrong} predictions differ from the QR arg-min reference"]
    return []


def confusion(true: np.ndarray, predicted: np.ndarray, classes: int) -> list[list[int]]:
    matrix = np.zeros((classes, classes), dtype=np.int64)
    for t, p in zip(true, predicted):
        matrix[t, p] += 1
    return matrix.tolist()


def check_bit_exact(name: str, original: np.ndarray, loaded: np.ndarray) -> list[str]:
    if original.dtype != loaded.dtype or original.shape != loaded.shape:
        return [f"{name}: round trip changed dtype or shape"]
    if original.tobytes() != loaded.tobytes():
        return [f"{name}: round trip is not bit-exact"]
    return []


def quantize(frames: np.ndarray) -> np.ndarray:
    """8-bit storage values of [0, 1] frames: clamp, scale by 255, round."""
    return np.rint(np.clip(frames, 0.0, 1.0) * 255.0).astype(np.uint8)


def check_quantized(name: str, ingested: np.ndarray, stored: np.ndarray) -> list[str]:
    """Ingested frames equal the synthesized frames on the 1/255 grid."""
    expected = stored.astype(np.float64) / 255.0
    if ingested.shape != expected.shape or not np.array_equal(ingested, expected):
        return [f"{name}: ingested frames differ from the quantized synthesized frames"]
    return []


def _is_multiple(value: float, count: int) -> bool:
    scaled = value * count
    return 0.0 <= value <= 1.0 and abs(scaled - round(scaled)) <= 1e-9


def check_accuracy(name: str, value: float, count: int) -> list[str]:
    if not _is_multiple(float(value), count):
        return [f"{name}: accuracy {value!r} is not a multiple of 1/{count} in [0, 1]"]
    return []


def check_report(
    report: Mapping,
    counts: Mapping[str, int],
    baseline_predictions: Mapping[str, Mapping[str, list[list[int]]]],
    ranks: Mapping[str, Mapping[str, int]],
) -> list[str]:
    """An experiment report against the split it ran on.

    ``counts`` are the partition sizes (the manifest's line counts where
    the workload reads a manifest); ``baseline_predictions`` maps arm ->
    partition -> the confusion matrix of the reference predictions;
    ``ranks`` maps arm -> class code -> expected rank.
    """
    failures = []
    reported = dict(report["protocol"]["split_counts"])
    if reported != dict(counts):
        failures.append(f"split counts {reported} differ from {dict(counts)}")
    for arm, expected_ranks in ranks.items():
        entry = report["arms"][arm]
        got = entry.get("baseline_ranks", entry.get("ranks"))
        if dict(got) != dict(expected_ranks):
            failures.append(f"{arm}: ranks {dict(got)}, expected {dict(expected_ranks)}")
    for arm, entry in report["arms"].items():
        for partition, result in entry["baseline"].items():
            where = f"{arm} baseline {partition}"
            n = counts[partition]
            failures += check_accuracy(where, result["accuracy"], n)
            expected = baseline_predictions[arm][partition]
            if [list(row) for row in result["confusion"]] != expected:
                failures.append(f"{where}: confusion differs from the QR arg-min reference")
            elif not math.isclose(
                result["accuracy"], np.trace(np.array(expected)) / n, abs_tol=1e-12
            ):
                failures.append(f"{where}: accuracy disagrees with its confusion matrix")
        network = entry["network"]
        for run in network["runs"]:
            where = f"{arm} run seed {run['seed']}"
            final = run["final"]
            failures += check_accuracy(f"{where} train", final["train_accuracy"], counts["train"])
            if "validation_accuracy" in final:
                failures += check_accuracy(
                    f"{where} validation", final["validation_accuracy"], counts["validation"]
                )
            for key in ("train_loss", "validation_loss"):
                if key in final and not (math.isfinite(final[key]) and final[key] >= 0):
                    failures.append(f"{where}: {key} {final[key]!r} is not a finite loss")
            for partition in ("validation", "test", "unseen"):
                if partition in run:
                    failures += check_accuracy(
                        f"{where} {partition}", run[partition], counts[partition]
                    )
        for partition, agg in network["aggregate"].items():
            values = sorted(run[partition] for run in network["runs"])
            if list(agg["values"]) != values or not 0.0 <= agg["mean"] <= 1.0:
                failures.append(f"{arm} aggregate {partition}: does not match its runs")
    return failures


def check_study_claims(report: Mapping) -> list[str]:
    """The shipped study's documented claims, at the acceptance gate's floors."""
    arms = report["arms"]
    baseline = arms["projected-auto"]["baseline"]["unseen"]["accuracy"]
    gap = (
        arms["projected-auto"]["network"]["aggregate"]["unseen"]["mean"]
        - arms["raw"]["network"]["aggregate"]["unseen"]["mean"]
    )
    failures = []
    if not baseline >= STUDY_BASELINE_FLOOR:
        failures.append(f"subspace baseline unseen accuracy {baseline:.3f} < 0.90")
    if not gap >= STUDY_GAP_FLOOR:
        failures.append(f"projected-over-raw unseen gap {gap:+.3f} < 0.10")
    return failures


def plain(value):
    """A report as plain JSON values (aggregates become dicts)."""
    if dataclasses.is_dataclass(value):
        return plain(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value
