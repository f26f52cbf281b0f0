import gc
import os
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podclass.dataset import (
    PARTITIONS,
    ClassLabel,
    DatasetSplit,
    Sample,
    SplitPolicy,
    SyntheticSpec,
    _deal_quotas,
    assemble_snapshot_matrix,
    generate_synthetic,
    group_by_class,
    load_dataset,
    split_dataset,
    split_from_manifest,
    write_manifest,
    write_samples,
)
from podclass.errors import CapacityError, ConfigError, DataError, DataFormatError
from podclass.pgm import from_unit, write_pgm


def make_samples(n_classes=2, n_samples=4, n_frames=6, side=8, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for c in range(n_classes):
        label = ClassLabel(c, f"C{c}")
        for s in range(n_samples):
            frames = [rng.uniform(0, 1, size=(side, side)) for _ in range(n_frames)]
            samples.append(Sample(label, f"s{s:02d}", frames))
    return samples


# -- images and snapshot matrices -------------------------------------------


def test_snapshot_matrix_columns_are_frames(rng):
    frames = [rng.uniform(0, 1, size=(3, 4)) for _ in range(5)]
    matrix = assemble_snapshot_matrix(frames)
    assert matrix.shape == (12, 5)
    for k, frame in enumerate(frames):
        assert np.array_equal(matrix[:, k], frame.reshape(-1))


def test_snapshot_matrix_rejects_mixed_shapes(rng):
    frames = [rng.uniform(size=(3, 4)), rng.uniform(size=(4, 3))]
    with pytest.raises(DataFormatError):
        assemble_snapshot_matrix(frames)


def test_sample_rejects_mixed_frame_shapes():
    with pytest.raises(DataFormatError):
        Sample(ClassLabel(0, "A"), "s00", [np.zeros((2, 2)), np.zeros((3, 3))])


# -- split policy ------------------------------------------------------------


def test_reference_policy_counts():
    # 26 recordings per class, 90 frames each: 20 training + 6 hold-out
    policy = SplitPolicy.proportional(20, 6, 90)
    assert (policy.train_samples, policy.unseen_samples) == (20, 6)
    assert policy.frames_per_sample == 90
    assert (policy.train_frames, policy.validation_frames, policy.test_frames) == (
        1200,
        500,
        100,
    )


def test_proportional_policy_small():
    policy = SplitPolicy.proportional(9, 3, 10)
    assert (policy.train_frames, policy.validation_frames, policy.test_frames) == (
        60,
        25,
        5,
    )


def test_policy_rejects_overdraw():
    with pytest.raises(ConfigError):
        SplitPolicy(2, 1, 10, 15, 5, 3)


def test_policy_for_samples_caps_frames():
    samples = make_samples(n_classes=1, n_samples=26, n_frames=100)
    policy = SplitPolicy.for_samples(samples)
    assert policy.frames_per_sample == 90
    assert policy.unseen_samples == 6
    assert policy.train_samples == 20


# -- split_dataset -----------------------------------------------------------


def test_split_counts_and_disjointness():
    samples = make_samples(n_classes=3, n_samples=12, n_frames=10)
    policy = SplitPolicy.proportional(9, 3, 10)
    split = split_dataset(samples, policy, seed=4)
    counts = split.counts()
    assert counts == {"train": 180, "validation": 75, "test": 15, "unseen": 90}
    # no frame is reused across partitions within a class
    seen = set()
    for name in ("train", "validation", "test", "unseen"):
        for (_, label), (sample_id, k) in zip(
            split.partition(name), split.origins[name]
        ):
            key = (label.id, sample_id, k)
            assert key not in seen
            seen.add(key)


def test_split_unseen_holds_out_whole_samples():
    samples = make_samples(n_classes=2, n_samples=12, n_frames=10)
    policy = SplitPolicy.proportional(9, 3, 10)
    split = split_dataset(samples, policy, seed=4)
    fitted = {
        (label.id, sid)
        for name in ("train", "validation", "test")
        for (_, label), (sid, _) in zip(split.partition(name), split.origins[name])
    }
    held = {
        (label.id, sid)
        for (_, label), (sid, _) in zip(split.unseen, split.origins["unseen"])
    }
    assert fitted and held
    assert not (fitted & held)


def test_split_respects_per_sample_capacity():
    samples = make_samples(n_classes=1, n_samples=12, n_frames=10)
    policy = SplitPolicy.proportional(9, 3, 10)
    split = split_dataset(samples, policy, seed=0)
    per_sample: dict[str, int] = {}
    for name in ("train", "validation", "test"):
        for sid, _ in split.origins[name]:
            per_sample[sid] = per_sample.get(sid, 0) + 1
    assert len(per_sample) == 9
    assert all(v == 10 for v in per_sample.values())


def test_split_refuses_a_negative_seed():
    # numpy used to refuse it with a bare "expected non-negative integer"
    samples = make_samples(n_classes=1, n_samples=12, n_frames=10)
    with pytest.raises(ConfigError, match="seed -1 is negative"):
        split_dataset(samples, SplitPolicy.proportional(9, 3, 10), seed=-1)


@st.composite
def quota_cases(draw):
    """A valid policy's (train, validation, test) counts, samples n and
    frames per sample f: any counts whose sum is at most n f."""
    n = draw(st.integers(1, 30))
    f = draw(st.integers(1, 100))
    train = draw(st.integers(0, n * f))
    validation = draw(st.integers(0, n * f - train))
    test = draw(st.integers(0, n * f - train - validation))
    return (train, validation, test), n, f


@settings(max_examples=500, deadline=None)
@given(quota_cases())
def test_quota_dealer_spreads_counts_evenly_within_capacity(case):
    counts, n, f = case
    SplitPolicy(n, 0, f, *counts)  # the policy admits it
    quotas = _deal_quotas(counts, n)
    assert len(quotas) == n
    for part, count in enumerate(counts):
        shares = [quota[part] for quota in quotas]
        assert sum(shares) == count
        assert max(shares) - min(shares) <= 1
    assert max(sum(quota) for quota in quotas) <= f


def test_split_blocks_are_contiguous_per_sample():
    samples = make_samples(n_classes=1, n_samples=12, n_frames=10)
    policy = SplitPolicy.proportional(9, 3, 10)
    split = split_dataset(samples, policy, seed=3)
    by_sample: dict[str, dict[str, list[int]]] = {}
    for name in ("train", "validation", "test"):
        for sid, k in split.origins[name]:
            by_sample.setdefault(sid, {}).setdefault(name, []).append(k)
    for sid, blocks in by_sample.items():
        for name, indices in blocks.items():
            lo, hi = min(indices), max(indices)
            assert sorted(indices) == list(range(lo, hi + 1)), (sid, name)


def test_split_deterministic_and_seed_sensitive():
    samples = make_samples(n_classes=2, n_samples=12, n_frames=10)
    policy = SplitPolicy.proportional(9, 3, 10)
    a = split_dataset(samples, policy, seed=5)
    b = split_dataset(samples, policy, seed=5)
    c = split_dataset(samples, policy, seed=6)
    assert a.origins == b.origins
    assert a.origins != c.origins


def test_split_rejects_too_few_samples():
    samples = make_samples(n_classes=1, n_samples=3, n_frames=10)
    policy = SplitPolicy.proportional(9, 3, 10)
    with pytest.raises(CapacityError):
        split_dataset(samples, policy, seed=0)


# -- manifest round trip -----------------------------------------------------


def test_manifest_round_trip(tmp_path):
    samples = make_samples(n_classes=2, n_samples=12, n_frames=10)
    policy = SplitPolicy.proportional(9, 3, 10)
    split = split_dataset(samples, policy, seed=7)
    path = tmp_path / "manifest.tsv"
    write_manifest(split, path)
    again = split_from_manifest(samples, path)
    assert again.origins == split.origins
    for name in ("train", "validation", "test", "unseen"):
        for (img_a, lab_a), (img_b, lab_b) in zip(
            split.partition(name), again.partition(name)
        ):
            assert lab_a == lab_b
            assert np.array_equal(img_a, img_b)


def test_manifest_lines_end_at_newline_only(tmp_path):
    samples = make_samples(n_classes=1, n_samples=1, n_frames=2)
    path = tmp_path / "crlf.tsv"
    path.write_bytes(b"train\tC0\ts00\t0000\r\ntest\tC0\ts00\t0001\r\n")
    split = split_from_manifest(samples, path)
    assert split.origins["train"] == (("s00", 0),)
    assert split.origins["test"] == (("s00", 1),)
    # a form feed is no line end: line 1 holds seven fields
    path.write_text("train\tC0\ts00\t0000\x0ctrain\tC0\ts00\t0001\n")
    where = re.escape(str(path))
    with pytest.raises(DataFormatError, match=rf"^{where}:1: expected 4"):
        split_from_manifest(samples, path)


def test_manifest_rejects_overlapping_unseen(tmp_path):
    samples = make_samples(n_classes=1, n_samples=2, n_frames=2)
    lines = [
        "train\tC0\ts00\t0000",
        "unseen\tC0\ts00\t0001",
    ]
    path = tmp_path / "bad.tsv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError):
        split_from_manifest(samples, path)


@pytest.mark.parametrize("second", ["train", "test"])
def test_manifest_rejects_duplicate_frames(tmp_path, second):
    samples = make_samples(n_classes=1, n_samples=2, n_frames=2)
    lines = [
        "train\tC0\ts00\t0000",
        "train\tC0\ts00\t0001",
        f"{second}\tC0\ts00\t0",
    ]
    path = tmp_path / "dup.tsv"
    path.write_text("\n".join(lines) + "\n")
    where = re.escape(str(path))
    with pytest.raises(DataFormatError, match=rf"^{where}:3: .* listed at line 1"):
        split_from_manifest(samples, path)


def test_manifest_rejects_non_integer_frame(tmp_path):
    samples = make_samples(n_classes=1, n_samples=1, n_frames=2)
    path = tmp_path / "bad.tsv"
    path.write_text("train\tC0\ts00\t0000\ntrain\tC0\ts00\tx1\n")
    where = re.escape(str(path))
    with pytest.raises(DataFormatError, match=rf"^{where}:2: frame index 'x1'"):
        split_from_manifest(samples, path)


def test_manifest_rejects_unknown_sample(tmp_path):
    samples = make_samples(n_classes=1, n_samples=1, n_frames=2)
    path = tmp_path / "bad.tsv"
    path.write_text("train\tC0\tzz\t0000\n")
    with pytest.raises(DataError):
        split_from_manifest(samples, path)


def test_split_refuses_a_class_without_train_frames():
    frame = np.zeros((2, 2))
    a = Sample(ClassLabel(0, "A"), "s00", [frame, frame])
    b = Sample(ClassLabel(1, "B"), "s00", [frame])

    def split(train, validation, test=()):
        rows = {"train": train, "validation": validation, "test": test, "unseen": ()}
        return DatasetSplit([a, b], rows, "view")

    with pytest.raises(DataError, match=r"^class B is in validation but not in train$"):
        split([(a, 0)], [(b, 0)])
    # a class in no partition at all, and a split with no train frames
    # (which nothing can fit or train on), are left alone
    split([(a, 0)], [(a, 1)])
    split([], [(a, 0)], [(b, 0)])


def test_split_refuses_a_sample_in_unseen_and_a_training_partition():
    # only the manifest reader refused this; a split built from rows took it
    frame = np.zeros((2, 2))
    a, a1, b, b1 = (
        Sample(ClassLabel(c, code), sid, [frame, frame])
        for c, code in enumerate("AB")
        for sid in ("s00", "s01")
    )

    def split(**rows):
        return DatasetSplit([a, a1, b, b1], {n: rows.get(n, []) for n in PARTITIONS})

    for name in ("train", "validation", "test"):
        rows = {"train": [(a1, 0), (b1, 0)], "unseen": [(a, 1)]}
        rows[name] = rows.get(name, []) + [(a, 0)]
        with pytest.raises(
            DataFormatError,
            match=r"^samples \[\('A', 's00'\)\] appear both in training "
            r"partitions and in unseen$",
        ):
            split(**rows)
    # sample ids repeat across classes: B/s00 is held out, A/s00 trains
    split(train=[(a, 0), (b1, 0)], unseen=[(b, 0), (b, 1)])


def test_split_keeps_only_the_frames_its_rows_name():
    # the split keeps no Sample, so a sample's unused frames go with it
    samples = make_samples(n_classes=1, n_samples=1, n_frames=3)
    rows = {"train": [(samples[0], 0)], "validation": [], "test": [], "unseen": []}
    split = DatasetSplit(samples, rows)
    used, unused = (weakref.ref(frame) for frame in samples[0].frames[:2])
    del samples, rows
    gc.collect()
    assert used() is split.train[0][0]
    assert unused() is None


def _split_by_policy(samples, tmp_path):
    return split_dataset(samples, SplitPolicy.proportional(3, 1, 6), seed=0)


def _split_by_manifest(samples, tmp_path):
    path = tmp_path / "manifest.tsv"
    path.write_text("train\tC0\ts00\t0000\n")
    return split_from_manifest(samples, path)


@pytest.mark.parametrize(
    "splitter", [_split_by_policy, _split_by_manifest], ids=["policy", "manifest"]
)
def test_split_rejects_mixed_frame_shapes(tmp_path, splitter):
    samples = make_samples(n_classes=2, n_samples=4, n_frames=6, side=8)
    cropped = samples[5]  # class C1, sample s01
    cropped.frames = [frame[:4, :4] for frame in cropped.frames]
    message = r"^sample C1/s01 has frame shape \(4, 4\), expected \(8, 8\)$"
    with pytest.raises(DataFormatError, match=message):
        splitter(samples, tmp_path)


# -- disk round trip ---------------------------------------------------------


def test_write_then_load_dataset(tmp_path):
    samples = make_samples(n_classes=2, n_samples=3, n_frames=4, side=6)
    write_samples(samples, tmp_path / "data")
    loaded = load_dataset(tmp_path / "data")
    assert len(loaded) == len(samples)
    by_key = {(s.label.code, s.sample_id): s for s in loaded}
    for sample in samples:
        twin = by_key[(sample.label.code, sample.sample_id)]
        assert twin.label == sample.label
        for a, b in zip(sample.frames, twin.frames):
            assert np.abs(a - b).max() <= 0.5 / 255 + 1e-12


def test_write_samples_writes_what_write_pgm_writes_per_frame(tmp_path):
    samples = make_samples(n_classes=2, n_samples=3, n_frames=4, side=6)
    # projected frames may leave [0, 1]; both writers must clamp alike
    samples[0].frames[1] = np.linspace(-0.5, 1.5, 36).reshape(6, 6)
    write_samples(samples, tmp_path / "batched")
    for sample in samples:
        sample_dir = tmp_path / "per-frame" / sample.label.code / sample.sample_id
        sample_dir.mkdir(parents=True)
        for k, frame in enumerate(sample.frames):
            write_pgm(sample_dir / f"{k:04d}.pgm", from_unit(frame))

    def tree(root):
        return {
            path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    batched = tree(tmp_path / "batched")
    assert len(batched) == 2 * 3 * 4
    assert batched == tree(tmp_path / "per-frame")


def test_load_dataset_missing_root(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path / "nope")


def test_load_dataset_empty_sample_dir(tmp_path):
    (tmp_path / "data" / "C0" / "s00").mkdir(parents=True)
    with pytest.raises(DataError):
        load_dataset(tmp_path / "data")


def test_load_dataset_orders_unpadded_frames_by_index(tmp_path):
    sample_dir = tmp_path / "data" / "C0" / "s00"
    sample_dir.mkdir(parents=True)
    for k in range(12):
        write_pgm(sample_dir / f"{k}.pgm", np.full((2, 2), k, dtype=np.uint8))
    write_pgm(sample_dir / "12.pgm\n", np.zeros((2, 2), dtype=np.uint8))  # not a frame
    # nor is 12 in Arabic-Indic digits
    write_pgm(sample_dir / "\u0661\u0662.pgm", np.zeros((2, 2), dtype=np.uint8))
    (sample,) = load_dataset(tmp_path / "data")
    assert [round(frame[0, 0] * 255) for frame in sample.frames] == list(range(12))


def test_load_dataset_refuses_two_frames_of_one_index(tmp_path):
    sample_dir = tmp_path / "data" / "C0" / "s00"
    sample_dir.mkdir(parents=True)
    for name in ("0.pgm", "1.pgm", "01.pgm"):
        write_pgm(sample_dir / name, np.zeros((2, 2), dtype=np.uint8))
    message = f"{sample_dir} has two frames of one index: 01.pgm and 1.pgm"
    with pytest.raises(DataFormatError, match=re.escape(message)):
        load_dataset(tmp_path / "data")


@pytest.mark.parametrize(
    "numbers, message",
    [
        ((1, 2, 3), "numbers its frames up to 3, not 0 to 2"),
        ((0, 1, 3), "numbers its frames up to 3, not 0 to 2"),
        ((0, 2, 10), "numbers its frames up to 10, not 0 to 2"),
    ],
    ids=["from-1", "gap", "gaps"],
)
def test_load_dataset_refuses_frames_not_numbered_from_zero(tmp_path, numbers, message):
    # a manifest names a frame by its position; on a tree numbered from 1,
    # frame 0002 selected 0003.pgm and project renumbered every frame
    sample_dir = tmp_path / "data" / "C0" / "s00"
    sample_dir.mkdir(parents=True)
    for k in numbers:
        write_pgm(sample_dir / f"{k:04d}.pgm", np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(DataFormatError, match=re.escape(f"{sample_dir} {message}")):
        load_dataset(tmp_path / "data")


@pytest.mark.parametrize(
    "class_name, sample_name, bad",
    [
        ("A\tB", "s00", "class"),
        (b"C\xff", "s00", "class"),
        ("C0", "s\r1", "sample"),
        ("C0", "s\n1", "sample"),
    ],
    ids=["tab", "not-utf8", "cr", "lf"],
)
def test_load_dataset_refuses_names_a_manifest_cannot_hold(
    tmp_path, class_name, sample_name, bad
):
    # a tab split a manifest line into five fields, and a name that is not
    # UTF-8 failed only when a writer encoded it, after all the fitting
    class_name = os.fsdecode(class_name)
    sample_dir = tmp_path / "data" / class_name / sample_name
    sample_dir.mkdir(parents=True)
    write_pgm(sample_dir / "0000.pgm", np.zeros((2, 2), dtype=np.uint8))
    path = str(sample_dir if bad == "sample" else sample_dir.parent)
    message = f"{bad} directory {path!r}: not UTF-8, or has a tab, CR or LF"
    with pytest.raises(DataFormatError, match=re.escape(message)):
        load_dataset(tmp_path / "data")


# -- synthetic generator -----------------------------------------------------


def test_generator_deterministic(tiny_spec):
    a = generate_synthetic(tiny_spec)
    b = generate_synthetic(tiny_spec)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.label == sb.label and sa.sample_id == sb.sample_id
        for fa, fb in zip(sa.frames, sb.frames):
            assert np.array_equal(fa, fb)


def test_generator_exact_rank_without_noise():
    spec = SyntheticSpec(
        class_count=3,
        frames_per_class=30,
        image_side=16,
        intrinsic_rank=4,
        noise_level=0.0,
        seed=11,
    )
    for label, group in group_by_class(generate_synthetic(spec)).items():
        frames = [f for s in group for f in s.frames]
        matrix = assemble_snapshot_matrix(frames)
        sv = np.linalg.svd(matrix, compute_uv=False)
        assert int((sv > sv[0] * 1e-10).sum()) == 4, label.code


def test_generator_values_in_range(tiny_samples):
    for sample in tiny_samples:
        for frame in sample.frames:
            assert frame.min() >= 0.0 and frame.max() <= 1.0


def test_generator_counts(tiny_spec, tiny_samples):
    grouped = group_by_class(tiny_samples)
    assert len(grouped) == tiny_spec.class_count
    for group in grouped.values():
        assert sum(len(s.frames) for s in group) == tiny_spec.frames_per_class
        assert len(group) == 12


def test_spec_config_round_trip(tmp_path, tiny_spec):
    path = tmp_path / "spec.txt"
    path.write_text(tiny_spec.to_config_text())
    assert SyntheticSpec.from_config_file(path) == tiny_spec


def test_spec_refuses_a_negative_seed(tiny_spec):
    with pytest.raises(ConfigError, match="seed -1 is negative"):
        replace(tiny_spec, seed=-1)


def test_spec_config_text_lists_every_field_in_file_order():
    spec = SyntheticSpec(3, 36, 16, 2, 0.1 + 0.2, 11)
    assert spec.to_config_text() == (
        "classes=3\nframes=36\nside=16\nrank=2\nnoise=0.3\nseed=11\n"
    )


def test_spec_config_lines_end_at_newline_only(tmp_path, tiny_spec):
    path = tmp_path / "spec.txt"
    path.write_bytes(tiny_spec.to_config_text().replace("\n", "\r\n").encode())
    assert SyntheticSpec.from_config_file(path) == tiny_spec
    path.write_text("classes=3\x0cframes=36\n")
    with pytest.raises(ConfigError, match=r"spec.txt:1: bad value for classes"):
        SyntheticSpec.from_config_file(path)


def test_spec_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("classes=3\nwhat=1\n")
    with pytest.raises(ConfigError):
        SyntheticSpec.from_config_file(path)


def test_spec_config_rejects_non_utf8_text(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_bytes(b"classes=3\nnoise=0.\xff\n")
    with pytest.raises(ConfigError, match="cannot read spec file"):
        SyntheticSpec.from_config_file(path)


def test_spec_rejects_bad_rank():
    with pytest.raises(ConfigError):
        SyntheticSpec(frames_per_class=10, intrinsic_rank=10)
    message = "5 classes x rank 13 patterns need disjoint supports but only 64 pixels"
    with pytest.raises(ConfigError, match=message):
        SyntheticSpec(
            class_count=5, frames_per_class=20, image_side=8, intrinsic_rank=13
        )


@pytest.mark.parametrize("noise", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_spec_rejects_non_finite_noise(tmp_path, noise):
    with pytest.raises(ConfigError, match="noise_level must be finite"):
        SyntheticSpec(noise_level=noise)
    path = tmp_path / "spec.txt"
    path.write_text(f"noise={noise}\n")
    with pytest.raises(ConfigError, match="noise_level must be finite"):
        SyntheticSpec.from_config_file(path)
