"""Per-class truncated eigenbases and their binary container formats.

Each class keeps the mean of its training frames plus the leading left
singular vectors of the mean-centered snapshot matrix. Projecting an image
onto a class replaces it with the closest point of that class's affine
subspace (mean restored), which filters whatever the retained modes do not
span. Values of a projected image may leave [0, 1]; they are clamped only
when exported to 8-bit storage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import ClassLabel, Pair, assemble_snapshot_matrix
from .errors import (
    CapacityError,
    ConfigError,
    DataFormatError,
    read_array,
    read_container,
    read_fields,
    read_utf8,
    write_array,
    write_container,
    write_fields,
)
from .svd import ThinSVD, TruncationRule, thin_svd

FACTORS_MAGIC = b"EIGH"
LIBRARY_MAGIC = b"EIGB"

# Below this relative spread the ensemble is treated as a single repeated
# image and gets the canonical one-mode basis instead of an SVD of noise.
DEGENERATE_SPREAD = 1e-12


@dataclass(frozen=True)
class ClassBasis:
    """Affine subspace of one class: mean image plus orthonormal modes.

    ``values`` holds the singular values behind the kept modes when the
    basis was built in-process; it is diagnostic only and not serialized.
    """

    label: ClassLabel
    mean: np.ndarray
    modes: np.ndarray
    values: np.ndarray | None = None

    @property
    def rank(self) -> int:
        return int(self.modes.shape[1])

    def project(self, frame: np.ndarray) -> np.ndarray:
        """Mean-restored projection of one flat frame."""
        if frame.shape != self.mean.shape:
            raise ConfigError(
                f"need one flat frame of shape {self.mean.shape}, got {frame.shape}"
            )
        fitted = self.modes @ (self.modes.T @ (frame - self.mean))
        return fitted + self.mean


@dataclass
class BasisLibrary:
    """All class bases of one view plus build provenance.

    ``provenance`` records how the library was built (rank rule, warnings,
    source description); it rides along in the serialized file so a loaded
    library still explains itself.
    """

    frame_shape: tuple[int, int]
    bases: tuple[ClassBasis, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.bases:
            raise ConfigError("library holds no classes")
        ids = [b.label.id for b in self.bases]
        if ids != sorted(set(ids)):
            raise ConfigError("library bases must be unique and sorted by class id")
        j = self.frame_shape[0] * self.frame_shape[1]
        for b in self.bases:
            if b.mean.shape != (j,) or b.modes.shape[0] != j:
                raise ConfigError(
                    f"class {b.label.code}: basis dimension does not match "
                    f"frame shape {self.frame_shape}"
                )

    def check_frame_shape(self, shape: tuple[int, ...]) -> None:
        """Refuse frames of any shape but the library's (H, W)."""
        if shape != self.frame_shape:
            raise DataFormatError(
                f"frame shape {shape} does not match library frame "
                f"shape {self.frame_shape}"
            )

    def basis_for(self, class_id: int) -> ClassBasis:
        for b in self.bases:
            if b.label.id == class_id:
                return b
        raise ConfigError(f"no basis for class id {class_id}")


@dataclass(frozen=True)
class ClassFit:
    """Mean and centered thin SVD of one class's J x K snapshot matrix.

    Fitting is the expensive step; :meth:`basis` truncates a fit under any
    truncation rule without touching the frames again. ``svd`` is None for an
    ensemble of identical frames, whose centered matrix is zero.
    """

    label: ClassLabel
    mean: np.ndarray
    svd: ThinSVD | None
    shape: tuple[int, int]

    def basis(
        self, rule: TruncationRule = TruncationRule()
    ) -> tuple[ClassBasis, list[str]]:
        """Keep the leading modes under ``rule``. Returns the basis and any
        warnings.

        A degenerate ensemble falls back to the canonical first-coordinate
        mode so every class always offers at least one direction.
        """
        code = self.label.code
        j, k = self.shape
        if self.svd is None:
            modes = np.zeros((j, 1))
            modes[0, 0] = 1.0
            basis = ClassBasis(self.label, self.mean, modes, values=np.zeros(1))
            return basis, [
                f"class {code}: all {k} frames identical; "
                "using canonical one-mode basis"
            ]
        rank, note = rule.select(self.svd.values, self.shape)  # in [1, svd rank]
        # copies, so the fit's full factors can be freed
        modes = self.svd.modes[:, :rank].copy()
        basis = ClassBasis(self.label, self.mean, modes, self.svd.values[:rank].copy())
        return basis, [] if note is None else [f"class {code}: {note}"]


def fit_class(frames: Sequence[np.ndarray], label: ClassLabel) -> ClassFit:
    """Mean-center a class ensemble and take its thin SVD once."""
    matrix = assemble_snapshot_matrix(frames)
    mean = matrix.mean(axis=1)
    centered = matrix - mean[:, None]
    spread = np.linalg.norm(centered)
    scale = max(np.linalg.norm(matrix), 1.0)
    svd = None if spread <= DEGENERATE_SPREAD * scale else thin_svd(centered)
    return ClassFit(label, mean, svd, matrix.shape)


def fit_classes(pairs: Sequence[Pair]) -> list[ClassFit]:
    """Group labeled frames by class and fit each class, in class-id order."""
    if not pairs:
        raise CapacityError("no frames to build a basis library from")
    grouped: dict[int, tuple[ClassLabel, list[np.ndarray]]] = {}
    for image, label in pairs:
        grouped.setdefault(label.id, (label, []))[1].append(image)
    return [fit_class(frames, label) for _, (label, frames) in sorted(grouped.items())]


def library_from_fits(
    fits: Sequence[ClassFit],
    frame_shape: tuple[int, int],
    rule: TruncationRule,
    source: str = "",
) -> BasisLibrary:
    """One basis per class fit, all truncated under the same rule."""
    bases = []
    warnings: list[str] = []
    for fit in fits:
        basis, notes = fit.basis(rule)
        bases.append(basis)
        warnings.extend(notes)
    provenance = {
        "rank_rule": rule.describe(),
        "ranks": {b.label.code: b.rank for b in bases},
        "training_frames": {fit.label.code: fit.shape[1] for fit in fits},
        "source": source,
        "warnings": warnings,
    }
    return BasisLibrary(frame_shape, tuple(bases), provenance)


def build_library(
    pairs: Sequence[Pair],
    frame_shape: tuple[int, int],
    rank: int | None = None,
    tolerance: float | None = None,
    source: str = "",
) -> BasisLibrary:
    """One basis per class from labeled frames (normally the train split),
    truncated to ``rank`` modes, to the energy ``tolerance``, or (neither
    given) at the hard threshold."""
    rule = TruncationRule(rank, tolerance)
    return library_from_fits(fit_classes(pairs), frame_shape, rule, source)


def project_pairs(library: BasisLibrary, pairs: Sequence[Pair]) -> list[Pair]:
    """Project every frame onto its own class's subspace.

    This uses the true label, which is legitimate for preprocessing
    training data but leaks labels when applied to evaluation partitions;
    callers reporting results on projected evaluation data must say so.
    """
    out: list[Pair] = []
    for image, label in pairs:
        library.check_frame_shape(image.shape)
        basis = library.basis_for(label.id)
        projected = basis.project(image.reshape(-1)).reshape(image.shape)
        out.append((projected, label))
    return out


# ---------------------------------------------------------------------------
# Serialization in the shared container layout (see ``errors``); matrices
# are stored column-major so columns (modes) stay contiguous.
# ---------------------------------------------------------------------------


def save_factors(svd: ThinSVD, path: str | Path) -> None:
    """Write thin-SVD factors: J, K, r, then sigma, W, T."""
    j = svd.modes.shape[0]
    k = svd.coeffs.shape[0]
    with write_container(path, FACTORS_MAGIC) as stream:
        write_fields(stream, "QQQ", j, k, svd.rank)
        for array in (svd.values, svd.modes, svd.coeffs):
            write_array(stream, array, "F")


def load_factors(path: str | Path) -> ThinSVD:
    path = Path(path)
    with read_container(path, FACTORS_MAGIC, "factors") as stream:
        j, k, r = read_fields(stream, "QQQ", "dimensions")
        if not 1 <= r <= min(j, k):
            raise DataFormatError(f"{path}: rank {r} outside [1, min({j}, {k})]")
        values = read_array(stream, (r,), "singular values", "F")
        modes = read_array(stream, (j, r), "modes", "F")
        coeffs = read_array(stream, (k, r), "coefficients", "F")
    if np.any(values < 0) or np.any(np.diff(values) > 0):
        raise DataFormatError(f"{path}: singular values not nonincreasing")
    return ThinSVD(modes=modes, values=values, coeffs=coeffs)


def save_library(library: BasisLibrary, path: str | Path) -> None:
    """Write a basis library: shape, provenance JSON, then per-class
    (id, code, rank, mean, modes) blocks in class-id order."""
    blob = json.dumps(library.provenance, sort_keys=True).encode("utf-8")
    h, w = library.frame_shape
    with write_container(path, LIBRARY_MAGIC) as stream:
        write_fields(stream, "IQQQ", len(library.bases), h, w, len(blob))
        stream.write(blob)
        for basis in library.bases:
            code = basis.label.code.encode("utf-8")
            write_fields(stream, "II", basis.label.id, len(code))
            stream.write(code)
            write_fields(stream, "Q", basis.rank)
            write_array(stream, basis.mean, "F")
            write_array(stream, basis.modes, "F")


def load_library(path: str | Path) -> BasisLibrary:
    path = Path(path)
    with read_container(path, LIBRARY_MAGIC, "bases") as stream:
        (count,) = read_fields(stream, "I", "class count")
        h, w = read_fields(stream, "QQ", "frame shape")
        (blob_len,) = read_fields(stream, "Q", "provenance size")
        blob = read_utf8(stream, blob_len, "provenance")
        try:
            provenance = json.loads(blob)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataFormatError(f"{path}: provenance is not valid JSON") from exc
        if not isinstance(provenance, dict):
            raise DataFormatError(f"{path}: provenance is not a JSON object")
        j = h * w
        bases = []
        for _ in range(count):
            (class_id,) = read_fields(stream, "I", "class id")
            (code_len,) = read_fields(stream, "I", "code size")
            code = read_utf8(stream, code_len, "class code")
            (rank,) = read_fields(stream, "Q", "rank")
            if not 1 <= rank <= j:
                raise DataFormatError(f"{path}: class {code}: bad rank {rank}")
            mean = read_array(stream, (j,), f"class {code} mean", "F")
            modes = read_array(stream, (j, rank), f"class {code} modes", "F")
            bases.append(ClassBasis(ClassLabel(class_id, code), mean, modes))
        return BasisLibrary((int(h), int(w)), tuple(bases), provenance)
