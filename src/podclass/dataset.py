"""Labeled image ensembles: disk ingestion, synthesis, and partitioning.

An image is a 2-D float64 array with values in [0, 1]; a sample is one
recording (an ordered stack of frames sharing a shape, all with one label).
Datasets are partitioned at sample granularity into hold-out ("unseen")
samples and training samples, whose frames are then dealt frame-wise into
train / validation / test.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, ConfigError, DataError, DataFormatError
from .pgm import from_unit, read_pgm, to_unit, write_pgm

PARTITIONS = ("train", "validation", "test", "unseen")

# Synthetic generator constants. The shared background makes class
# subspaces overlap so classification is not trivially perfect; the peak
# keeps noise-free pixel values inside [0, 1] so clamping never distorts
# the constructed low-rank structure. Peaking at mid-range leaves the
# class signal well below strong additive noise, the regime where
# subspace denoising earns its keep.
BACKGROUND_WEIGHT = 0.2
COEFF_RANGE = (0.2, 1.0)
PEAK_INTENSITY = 0.5
MAX_SAMPLES_PER_CLASS = 12

# Reference protocol takes the first 90 frames of each recording even when
# more are stored; derived policies inherit that cap.
DEFAULT_FRAME_CAP = 90

_PROPORTIONS = (12, 5, 1)  # train : validation : test, out of 18


@dataclass(frozen=True)
class ClassLabel:
    """One class in the roster: a stable integer id plus a short code."""

    id: int
    code: str


@dataclass
class Sample:
    """One recording: an ordered list of same-shaped frames with one label."""

    label: ClassLabel
    sample_id: str
    frames: list[np.ndarray]

    def __post_init__(self) -> None:
        if not self.frames:
            raise DataFormatError(f"sample {self.sample_id}: no frames")
        shape = self.frames[0].shape
        for k, frame in enumerate(self.frames):
            if frame.shape != shape:
                raise DataFormatError(
                    f"sample {self.sample_id}: frame {k} is {frame.shape}, "
                    f"expected {shape}"
                )

    @property
    def frame_shape(self) -> tuple[int, int]:
        return self.frames[0].shape


@dataclass(frozen=True)
class SplitMetadata:
    view: str
    frame_shape: tuple[int, int]
    classes: tuple[ClassLabel, ...]


Pair = tuple[np.ndarray, ClassLabel]
Row = tuple[Sample, int]  # a sample and the index of one of its frames


class DatasetSplit:
    """Four disjoint frame partitions of ``samples``, given as ``rows[p]``:
    partition ``p`` in order, one ``(sample, frame index)`` row per frame.

    Each partition's pairs and its ``origins`` (the sample id and frame
    index of each pair, which the manifest records) are read off its rows
    once, so they cannot disagree. The split keeps no sample: a frame that
    no row names is freed once the caller drops the samples. ``metadata``
    holds the class roster of all samples and the frame shape they must
    all share.

    No sample may feed both ``unseen`` and a training partition. Every class
    in another partition must have train frames, since its basis and the
    network learn it from those alone. A split with no train frames at all
    is left to whatever needs them to refuse.
    """

    def __init__(
        self, samples: Sequence[Sample], rows: dict[str, Sequence[Row]], view: str = ""
    ) -> None:
        if not samples:
            raise CapacityError("no samples to split")
        # Sample ids are unique only within a class: key on (class, sample id).
        keys = {n: {(s.label, s.sample_id) for s, _ in rows[n]} for n in PARTITIONS}
        both = keys["unseen"] & set().union(*(keys[n] for n in PARTITIONS[:3]))
        if both:
            names = sorted((label.code, sample_id) for label, sample_id in both)
            raise DataFormatError(
                f"samples {names} appear both in training partitions and in unseen"
            )
        shape = samples[0].frame_shape
        for sample in samples:
            if sample.frame_shape != shape:
                raise DataFormatError(
                    f"sample {sample.label.code}/{sample.sample_id} has frame shape "
                    f"{sample.frame_shape}, expected {shape}"
                )
        self.metadata = SplitMetadata(view, shape, tuple(group_by_class(samples)))
        self.train, self.validation, self.test, self.unseen = (
            [(sample.frames[k], sample.label) for sample, k in rows[name]]
            for name in PARTITIONS
        )
        self.origins = {
            name: tuple((sample.sample_id, k) for sample, k in rows[name])
            for name in PARTITIONS
        }
        if not self.train:
            return
        present = {n: {label for label, _ in keys[n]} for n in PARTITIONS}
        for label in self.metadata.classes:
            held = ", ".join(n for n in PARTITIONS if label in present[n])
            if held and label not in present["train"]:
                raise DataError(f"class {label.code} is in {held} but not in train")

    def partition(self, name: str) -> list[Pair]:
        if name not in PARTITIONS:
            raise ConfigError(f"unknown partition {name!r}")
        return getattr(self, name)

    def counts(self) -> dict[str, int]:
        return {name: len(self.partition(name)) for name in PARTITIONS}


@dataclass(frozen=True)
class SplitPolicy:
    """Per-class split counts.

    ``train_samples`` recordings feed the frame-wise train/validation/test
    pools; ``unseen_samples`` whole recordings are held out. From each used
    recording the first ``frames_per_sample`` frames are taken.
    """

    train_samples: int
    unseen_samples: int
    frames_per_sample: int
    train_frames: int
    validation_frames: int
    test_frames: int

    def __post_init__(self) -> None:
        if self.train_samples < 1 or self.unseen_samples < 0:
            raise ConfigError("need at least one training sample per class")
        if self.frames_per_sample < 1:
            raise ConfigError("frames_per_sample must be positive")
        pool = self.train_samples * self.frames_per_sample
        need = self.train_frames + self.validation_frames + self.test_frames
        if need > pool:
            raise ConfigError(
                f"policy asks for {need} frames per class but only "
                f"{pool} are available from training samples"
            )
        if min(self.train_frames, self.validation_frames, self.test_frames) < 0:
            raise ConfigError("frame counts must be nonnegative")

    @classmethod
    def proportional(
        cls, train_samples: int, unseen_samples: int, frames_per_sample: int
    ) -> "SplitPolicy":
        """Scale the reference 1200/500/100-per-1800 proportions, rounding down."""
        pool = train_samples * frames_per_sample
        t, v, s = (pool * p // sum(_PROPORTIONS) for p in _PROPORTIONS)
        return cls(train_samples, unseen_samples, frames_per_sample, t, v, s)

    @classmethod
    def for_samples(cls, samples: Sequence[Sample]) -> "SplitPolicy":
        """Derive a proportional policy from the data itself.

        Keeps the reference hold-out ratio (6 of 26 recordings) and caps
        frames per recording at ``DEFAULT_FRAME_CAP``.
        """
        by_class = group_by_class(samples)
        n = min(len(group) for group in by_class.values())
        f = min(min(len(s.frames) for s in group) for group in by_class.values())
        f = min(f, DEFAULT_FRAME_CAP)
        unseen = max(1, round(n * 6 / 26)) if n > 1 else 0
        return cls.proportional(n - unseen, unseen, f)


# SyntheticSpec field of each spec file key, in the order files list them
_SPEC_KEYS = {
    "classes": "class_count",
    "frames": "frames_per_class",
    "side": "image_side",
    "rank": "intrinsic_rank",
    "noise": "noise_level",
    "seed": "seed",
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic desk-scale dataset generator."""

    class_count: int = 5
    frames_per_class: int = 120
    image_side: int = 64
    intrinsic_rank: int = 5
    noise_level: float = 0.05
    seed: int = 7

    def __post_init__(self) -> None:
        if self.class_count < 1:
            raise ConfigError("class_count must be positive")
        if self.intrinsic_rank < 1 or self.intrinsic_rank >= self.frames_per_class:
            raise ConfigError("need 1 <= intrinsic_rank < frames_per_class")
        if self.image_side < 8:
            raise ConfigError("image_side must be at least 8")
        if self.class_count * self.intrinsic_rank > self.image_side**2:
            raise ConfigError(
                f"{self.class_count} classes x rank {self.intrinsic_rank} patterns "
                f"need disjoint supports but only {self.image_side**2} pixels exist"
            )
        if not 0 <= self.noise_level < float("inf"):
            raise ConfigError("noise_level must be finite and nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} is negative")

    @classmethod
    def from_config_file(cls, path: str | Path) -> "SyntheticSpec":
        """Parse a key=value config file (keys: classes, frames, side, rank,
        noise, seed; '#' starts a comment)."""
        values: dict[str, float] = {}
        set_at: dict[str, int] = {}
        try:
            text = Path(path).read_bytes().decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read spec file {path}: {exc}") from exc
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _SPEC_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in set_at:
                raise ConfigError(
                    f"{path}:{lineno}: key {key!r} already set at line {set_at[key]}"
                )
            set_at[key] = lineno
            # as in manifests and PGM headers: ASCII, no "_" separators, and
            # counts and seeds in plain digits
            plain = "_" not in value if key == "noise" else value.isdigit()
            try:
                if not (value.isascii() and plain):
                    raise ValueError(value)
                values[_SPEC_KEYS[key]] = float(value) if key == "noise" else int(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}") from exc
        return cls(**values)  # type: ignore[arg-type]

    def to_config_text(self) -> str:
        return "".join(
            f"{key}={format(getattr(self, name), 'g' if key == 'noise' else '')}\n"
            for key, name in _SPEC_KEYS.items()
        )


def assemble_snapshot_matrix(frames: Sequence[np.ndarray]) -> np.ndarray:
    """Stack flattened frames as the columns of a J x K matrix."""
    if len(frames) == 0:
        raise CapacityError("cannot assemble a snapshot matrix from zero frames")
    shape = np.asarray(frames[0]).shape
    j = int(np.prod(shape))
    matrix = np.empty((j, len(frames)), dtype=np.float64)
    for k, frame in enumerate(frames):
        frame = np.asarray(frame)
        if frame.shape != shape:
            raise DataFormatError(
                f"frame {k} has shape {frame.shape}, expected {shape}"
            )
        matrix[:, k] = frame.reshape(-1)
    return matrix


def group_by_class(samples: Iterable[Sample]) -> dict[ClassLabel, list[Sample]]:
    grouped: dict[ClassLabel, list[Sample]] = {}
    for sample in samples:
        grouped.setdefault(sample.label, []).append(sample)
    return {label: grouped[label] for label in sorted(grouped, key=lambda l: l.id)}


# ---------------------------------------------------------------------------
# Disk ingestion / export
# ---------------------------------------------------------------------------

_FRAME_RE = re.compile(r"[0-9]+\.pgm")
# Class and sample directory names are manifest fields: UTF-8 (a non-UTF-8
# byte of a name reads as a lone surrogate) with no tab, CR or LF.
_BAD_NAME_RE = re.compile("[\t\r\n\ud800-\udfff]")


def _subdirs(parent: Path, where: str, kind: str) -> list[Path]:
    dirs = sorted(p for p in parent.iterdir() if p.is_dir())
    if not dirs:
        raise DataError(f"{where} {parent} has no {kind} directories")
    for path in dirs:
        if _BAD_NAME_RE.search(path.name):
            raise DataFormatError(
                f"{kind} directory {str(path)!r}: not UTF-8, or has a tab, CR or LF"
            )
    return dirs


def load_dataset(root: str | Path) -> list[Sample]:
    """Load a ``<root>/<class_code>/<sample_id>/<index>.pgm`` tree.

    Classes get ids in sorted directory order. A sample's frames are
    numbered 0 to n - 1 in ASCII digits, each once (leading zeros are
    allowed), and are rescaled from 8-bit storage to [0, 1].
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} does not exist")
    samples: list[Sample] = []
    for class_id, class_dir in enumerate(_subdirs(root, "dataset root", "class")):
        label = ClassLabel(class_id, class_dir.name)
        for sample_dir in _subdirs(class_dir, "class directory", "sample"):
            by_index: dict[int, str] = {}
            for name in sorted(p.name for p in sample_dir.iterdir()):
                if _FRAME_RE.fullmatch(name):
                    first = by_index.setdefault(int(name[:-4]), name)
                    if first != name:
                        raise DataFormatError(
                            f"sample directory {sample_dir} has two frames of one "
                            f"index: {first} and {name}"
                        )
            if not by_index:
                raise DataError(f"sample directory {sample_dir} has no .pgm frames")
            if max(by_index) != len(by_index) - 1:  # distinct: 0..n-1, or a gap
                raise DataFormatError(
                    f"sample directory {sample_dir} numbers its frames up to "
                    f"{max(by_index)}, not 0 to {len(by_index) - 1}"
                )
            paths = (os.path.join(sample_dir, by_index[k]) for k in sorted(by_index))
            frames = [to_unit(read_pgm(path)) for path in paths]
            samples.append(Sample(label, sample_dir.name, frames))
    return samples


def write_samples(samples: Sequence[Sample], root: str | Path) -> None:
    """Export samples as the PGM directory layout (clamped 8-bit frames).

    Each sample is quantized as one stack, then written frame by frame.
    """
    os.makedirs(root, exist_ok=True)
    for sample in samples:
        sample_dir = os.path.join(root, sample.label.code, sample.sample_id)
        os.makedirs(sample_dir, exist_ok=True)
        for k, gray in enumerate(from_unit(np.stack(sample.frames))):
            write_pgm(os.path.join(sample_dir, f"{k:04d}.pgm"), gray)


def write_manifest(split: DatasetSplit, path: str | Path) -> None:
    """Write the split as one ``partition\\tclass\\tsample\\tframe`` line per frame."""
    lines = [
        f"{name}\t{label.code}\t{sample_id}\t{k:04d}"
        for name in PARTITIONS
        for (_, label), (sample_id, k) in zip(
            split.partition(name), split.origins[name]
        )
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def split_from_manifest(
    samples: Sequence[Sample], path: str | Path, view: str = ""
) -> DatasetSplit:
    """Rebuild a split from a manifest file, in manifest line order.

    Each ``(class, sample, frame)`` may appear once in the whole manifest.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc.strerror}") from exc
    by_key = {(s.label.code, s.sample_id): s for s in samples}
    rows: dict[str, list[Row]] = {name: [] for name in PARTITIONS}
    first_line: dict[tuple[str, str, int], int] = {}
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"{path}:{lineno}: not UTF-8 text") from exc
    # Lines end at "\n" alone, as in the count above; str.splitlines would
    # also end them at form feeds and other separators.
    for lineno, raw in enumerate(text.split("\n"), 1):
        raw = raw.removesuffix("\r")
        if not raw.strip():
            continue
        fields = raw.split("\t")
        if len(fields) != 4:
            raise DataFormatError(f"{path}:{lineno}: expected 4 tab-separated fields")
        part, code, sample_id, frame_tok = fields
        if part not in PARTITIONS:
            raise DataFormatError(f"{path}:{lineno}: unknown partition {part!r}")
        sample = by_key.get((code, sample_id))
        if sample is None:
            raise DataError(f"{path}:{lineno}: no sample {code}/{sample_id} in data")
        if not (frame_tok.isascii() and frame_tok.isdigit()):
            raise DataFormatError(
                f"{path}:{lineno}: frame index {frame_tok!r} is not ASCII digits"
            )
        if len(frame_tok) > 18:  # int() stops at 4300 digits; no sample has 1e18 frames
            raise DataFormatError(
                f"{path}:{lineno}: frame index has {len(frame_tok)} digits"
            )
        frame_idx = int(frame_tok)
        if not 0 <= frame_idx < len(sample.frames):
            raise DataError(
                f"{path}:{lineno}: frame {frame_idx} out of range for "
                f"{code}/{sample_id}"
            )
        seen = first_line.setdefault((code, sample_id, frame_idx), lineno)
        if seen != lineno:
            raise DataFormatError(
                f"{path}:{lineno}: frame {frame_idx} of {code}/{sample_id} "
                f"already listed at line {seen}"
            )
        rows[part].append((sample, frame_idx))
    return DatasetSplit(samples, rows, view)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------


def _deal_quotas(
    counts: tuple[int, int, int], n_samples: int
) -> list[tuple[int, int, int]]:
    """Split per-class frame counts across samples: each sample gets the
    floor share of every partition, F frames in all, and the R remainders
    are dealt round-robin, rarest partition first. A sample so holds at
    most F + ceil(R / n_samples) frames, within ``frames_per_sample``
    whenever ``SplitPolicy`` admits the counts."""
    quotas = [[count // n_samples] * n_samples for count in counts]
    pos = 0
    for part in (2, 1, 0):  # test, validation, train
        for _ in range(counts[part] % n_samples):
            quotas[part][pos % n_samples] += 1
            pos += 1
    return [tuple(q[i] for q in quotas) for i in range(n_samples)]


def split_dataset(
    samples: Sequence[Sample], policy: SplitPolicy, seed: int, view: str = ""
) -> DatasetSplit:
    """Partition samples per the policy, deterministically under ``seed``.

    Hold-out samples enter ``unseen`` whole; each remaining training
    sample's frames are cut into up to three contiguous blocks whose order
    is a seeded permutation of (train, validation, test), so no partition
    systematically receives the early frames of every recording.
    """
    if seed < 0:
        raise ConfigError(f"seed {seed} is negative")
    by_class = group_by_class(samples)
    needed = policy.train_samples + policy.unseen_samples
    rng = np.random.default_rng(seed)
    rows: dict[str, list[Row]] = {name: [] for name in PARTITIONS}
    for label, group in by_class.items():
        if len(group) < needed:
            raise CapacityError(
                f"class {label.code}: {len(group)} samples, policy needs {needed}"
            )
        group = sorted(group, key=lambda s: s.sample_id)
        order = rng.permutation(len(group))
        chosen = [group[i] for i in order[:needed]]
        for sample in chosen:
            if len(sample.frames) < policy.frames_per_sample:
                raise CapacityError(
                    f"class {label.code}: sample {sample.sample_id} has "
                    f"{len(sample.frames)} frames, policy needs "
                    f"{policy.frames_per_sample}"
                )
        training = chosen[: policy.train_samples]
        holdout = chosen[policy.train_samples :]
        counts = (policy.train_frames, policy.validation_frames, policy.test_frames)
        quotas = _deal_quotas(counts, policy.train_samples)
        for sample, quota in zip(training, quotas):
            perm = rng.permutation(3)
            cursor = 0
            for which in perm:
                block = range(cursor, cursor + quota[which])
                rows[PARTITIONS[which]] += ((sample, k) for k in block)
                cursor = block.stop
        for sample in holdout:
            rows["unseen"] += ((sample, k) for k in range(policy.frames_per_sample))
    return DatasetSplit(samples, rows, view)


def partition_arrays(pairs: Sequence[Pair]) -> tuple[np.ndarray, np.ndarray]:
    """Stack a partition into (N, H, W) images and (N,) integer labels."""
    if not pairs:
        raise CapacityError("empty partition")
    images = np.stack([np.asarray(img, dtype=np.float64) for img, _ in pairs])
    labels = np.array([label.id for _, label in pairs], dtype=np.int64)
    return images, labels


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


def generate_synthetic(spec: SyntheticSpec) -> list[Sample]:
    """Build a deterministic low-rank-plus-noise dataset.

    Each class owns ``intrinsic_rank`` orthonormal spatial patterns with
    mutually disjoint pixel supports (hence exactly known rank); a shared
    nonnegative background pattern is mixed into every class at weight
    ``BACKGROUND_WEIGHT`` so the class subspaces overlap. Frames are
    nonnegative random combinations of the class patterns, globally scaled
    so noise-free values stay inside [0, 1], plus Gaussian noise clamped to
    [0, 1].
    """
    side, n_classes, rank = spec.image_side, spec.class_count, spec.intrinsic_rank
    j = side * side
    rng = np.random.default_rng(spec.seed)

    support = rng.permutation(j)
    block = j // (n_classes * rank)
    background = rng.uniform(0.25, 1.0, size=j)
    background /= np.linalg.norm(background)

    # row k is pattern m = k % rank of class c = k // rank; each row gets its
    # own 1-D norm, since norm(axis=1) sums in another order
    values = rng.uniform(0.25, 1.0, size=(n_classes * rank, block))
    patterns = np.zeros((n_classes, j, rank))
    for k, row in enumerate(values):
        c, m = divmod(k, rank)
        patterns[c][support[k * block : (k + 1) * block], m] = row / np.linalg.norm(row)
    mixed = patterns + BACKGROUND_WEIGHT * background[None, :, None]

    coeffs = rng.uniform(*COEFF_RANGE, size=(n_classes, spec.frames_per_class, rank))
    n_samples = min(MAX_SAMPLES_PER_CLASS, spec.frames_per_class)
    # one block of clean rows per recording, class by class; each row is its
    # own GEMV, since one GEMM would sum in another order
    recordings = [
        (c, np.array([mixed[c] @ v for v in part]))
        for c in range(n_classes)
        for part in np.array_split(coeffs[c], n_samples)
    ]
    scale = PEAK_INTENSITY / max(rows.max() for _, rows in recordings)

    samples: list[Sample] = []
    for i, (c, rows) in enumerate(recordings):
        rows *= scale
        if spec.noise_level > 0:
            rows += rng.normal(0.0, spec.noise_level, size=rows.shape)
        frames = [np.clip(row, 0.0, 1.0).reshape(side, side) for row in rows]
        samples.append(Sample(ClassLabel(c, f"C{c}"), f"s{i % n_samples:02d}", frames))
    return samples
