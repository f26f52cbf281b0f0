import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from podclass.basis import (
    BasisLibrary,
    ClassBasis,
    build_library,
    fit_class,
    load_factors,
    load_library,
    project_pairs,
    save_factors,
    save_library,
)
from podclass.dataset import ClassLabel
from podclass.errors import ConfigError, DataFormatError
from podclass.subspace import residual_matrix
from podclass.svd import TruncationRule, hard_threshold, thin_svd

from oracles import principal_angle_cosines

LABEL = ClassLabel(0, "A")


def make_class_frames(rng, n=20, side=8, rank=3):
    base = rng.normal(size=(side * side, rank))
    frames = []
    for _ in range(n):
        vec = 0.5 + base @ rng.normal(size=rank) * 0.05
        frames.append(np.clip(vec, 0, 1).reshape(side, side))
    return frames


def test_mean_is_frame_average(rng):
    frames = make_class_frames(rng)
    basis, _ = fit_class(frames, LABEL).basis(TruncationRule(rank=2))
    stacked = np.stack([f.reshape(-1) for f in frames])
    assert np.allclose(basis.mean, stacked.mean(axis=0), atol=1e-12)


def test_modes_orthonormal(rng):
    frames = make_class_frames(rng)
    basis, _ = fit_class(frames, LABEL).basis(TruncationRule(rank=3))
    gram = basis.modes.T @ basis.modes
    assert np.abs(gram - np.eye(basis.rank)).max() <= 1e-10


def test_projection_is_idempotent(rng):
    frames = make_class_frames(rng)
    basis, _ = fit_class(frames, LABEL).basis(TruncationRule(rank=3))
    x = rng.uniform(0, 1, size=basis.mean.size)
    once = basis.project(x)
    twice = basis.project(once)
    assert np.abs(once - twice).max() <= 1e-10


def test_projection_restores_mean(rng):
    frames = make_class_frames(rng)
    basis, _ = fit_class(frames, LABEL).basis(TruncationRule(rank=2))
    projected = basis.project(basis.mean)
    assert np.abs(projected - basis.mean).max() <= 1e-12


def test_projection_error_orthogonal_to_modes(rng):
    frames = make_class_frames(rng)
    basis, _ = fit_class(frames, LABEL).basis(TruncationRule(rank=3))
    x = rng.uniform(0, 1, size=basis.mean.size)
    err = x - basis.project(x)
    assert np.abs(basis.modes.T @ err).max() <= 1e-10


def test_projection_of_span_member_is_identity(rng):
    frames = make_class_frames(rng, rank=2)
    basis, _ = fit_class(frames, LABEL).basis(TruncationRule(rank=2))
    inside = basis.mean + basis.modes @ rng.normal(size=basis.rank)
    assert np.abs(basis.project(inside) - inside).max() <= 1e-10


def test_residual_is_distance_to_projection(rng):
    frames = make_class_frames(rng)
    basis, _ = fit_class(frames, LABEL).basis(TruncationRule(rank=3))
    library = BasisLibrary((8, 8), (basis,))
    x = rng.uniform(0, 1, size=basis.mean.size)
    expected = np.linalg.norm(x - basis.project(x))
    assert abs(residual_matrix(library, x.reshape(1, 8, 8))[0, 0] - expected) <= 1e-12


def test_projection_may_leave_unit_range():
    # projections are affine and can overshoot pixel bounds; clamping is
    # the exporter's job, not the basis's
    mean = np.full(4, 0.95)
    mode = np.array([[1.0], [-1.0], [0.0], [0.0]]) / np.sqrt(2.0)
    basis = ClassBasis(ClassLabel(0, "A"), mean, mode)
    projected = basis.project(np.array([1.0, 0.0, 1.0, 1.0]))
    assert projected.max() > 1.0


def test_modes_span_matches_centered_svd(rng):
    frames = make_class_frames(rng, rank=4)
    fit = fit_class(frames, LABEL)
    basis, _ = fit.basis(TruncationRule(rank=3))
    assert fit.svd is not None
    cos = principal_angle_cosines(basis.modes, fit.svd.modes[:, :3])
    assert np.abs(cos - 1.0).max() <= 1e-9


def test_basis_keeps_the_leading_modes_and_values(rng):
    frames = make_class_frames(rng, rank=6)
    fit = fit_class(frames, LABEL)
    basis, _ = fit.basis(TruncationRule(rank=5))
    assert basis.rank == 5
    assert np.array_equal(basis.values, fit.svd.values[:5])
    assert np.array_equal(basis.modes, fit.svd.modes[:, :5])
    # copies, so the fit's factors can be freed
    assert basis.modes.base is None and basis.values.base is None


@pytest.mark.parametrize("shape", [(63,), (64, 1), (8, 8)])
def test_projection_takes_one_flat_frame_only(rng, shape):
    frames = make_class_frames(rng)
    basis, _ = fit_class(frames, LABEL).basis(TruncationRule(rank=2))
    with pytest.raises(ConfigError, match=r"need one flat frame of shape \(64,\)"):
        basis.project(np.zeros(shape))


def test_degenerate_ensemble_falls_back(rng):
    frame = rng.uniform(0, 1, size=(6, 6))
    frames = [frame.copy() for _ in range(8)]
    fit = fit_class(frames, LABEL)
    basis, warnings = fit.basis()
    assert fit.svd is None
    assert basis.rank == 1
    canonical = np.zeros(36)
    canonical[0] = 1.0
    assert np.array_equal(basis.modes[:, 0], canonical)
    assert warnings and "identical" in warnings[0]


def test_rank_capping_warns(rng):
    frames = make_class_frames(rng, n=5, rank=2)
    fit = fit_class(frames, LABEL)
    basis, warnings = fit.basis(TruncationRule(rank=50))
    assert basis.rank == fit.svd.rank
    assert any("capped" in w for w in warnings)


def test_hard_threshold_fallback_warns_only_below_the_noise_edge(rng):
    j, k, planted = 300, 80, 4
    left = np.linalg.qr(rng.normal(size=(j, planted)))[0]
    right = np.linalg.qr(rng.normal(size=(k, planted)))[0]
    signal = 0.5 + left @ np.diag([9.0, 8.0, 7.0, 6.0]) @ right.T
    noisy = signal + rng.normal(0, 1e-3, size=(j, k))
    basis, warnings = fit_class(list(noisy.T.reshape(k, 15, 20)), LABEL).basis()
    assert basis.rank == planted
    assert warnings == []

    noise_only = [rng.normal(0.5, 0.25, size=(15, 20)) for _ in range(k)]
    fit = fit_class(noise_only, LABEL)
    basis, warnings = fit.basis()
    assert basis.rank == 1
    sigma = fit.svd.values
    threshold = hard_threshold(sigma, (j, k))
    assert sigma[0] <= threshold
    assert warnings == [
        f"class A: no singular value above the hard threshold {threshold:.4g} "
        f"(median sigma {np.median(sigma):.4g}, sigma_1 {sigma[0]:.4g}); "
        "fell back to rank 1"
    ]


# -- library -----------------------------------------------------------------


def test_build_library_orders_classes(tiny_split):
    library = build_library(tiny_split.train, tiny_split.metadata.frame_shape, rank=3)
    assert [b.label.id for b in library.bases] == [0, 1, 2]
    assert library.provenance["rank_rule"] == {"kind": "fixed", "rank": 3}
    assert library.provenance["ranks"] == {"C0": 3, "C1": 3, "C2": 3}


def test_library_rejects_duplicate_ids(rng):
    mean = np.zeros(4)
    modes = np.eye(4)[:, :1]
    basis = ClassBasis(ClassLabel(0, "A"), mean, modes)
    with pytest.raises(ConfigError):
        BasisLibrary((2, 2), (basis, basis))


def test_project_pairs_uses_true_class(tiny_split):
    library = build_library(tiny_split.train, tiny_split.metadata.frame_shape, rank=3)
    pairs = tiny_split.unseen[:6]
    projected = project_pairs(library, pairs)
    h, w = library.frame_shape
    for (image, label), (proj, label2) in zip(pairs, projected):
        assert label == label2
        basis = library.basis_for(label.id)
        assert np.allclose(
            proj.reshape(-1), basis.project(image.reshape(-1)), atol=1e-12
        )


# The 64x64 class of 222 frames is one on which LAPACK's modes differ in
# their last bits between 1 and 2 OpenBLAS threads; at 60 frames they agree.
LIBRARY_DIGEST_SCRIPT = """
import hashlib, sys
from podclass.basis import build_library, save_library
from podclass.dataset import SyntheticSpec, generate_synthetic
spec = SyntheticSpec(
    class_count=1, frames_per_class=222, image_side=64, intrinsic_rank=5,
    noise_level=0.25, seed=7,
)
pairs = [(frame, s.label) for s in generate_synthetic(spec) for frame in s.frames]
for tolerance in (None, 0.2):
    save_library(build_library(pairs, (64, 64), tolerance=tolerance), sys.argv[1])
    with open(sys.argv[1], "rb") as stream:
        print(hashlib.sha256(stream.read()).hexdigest())
"""


# scipy loads an OpenBLAS of its own; pinning that one would leave numpy's
# LAPACK on every core
@pytest.mark.parametrize(
    "preamble",
    [
        "",
        pytest.param(
            "import scipy.linalg\n",
            marks=pytest.mark.skipif(
                importlib.util.find_spec("scipy") is None, reason="needs scipy"
            ),
        ),
    ],
    ids=["numpy-only", "scipy-first"],
)
def test_library_bytes_do_not_depend_on_blas_threads(tmp_path, preamble):
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        digests[threads] = subprocess.run(
            [
                sys.executable, "-c", preamble + LIBRARY_DIGEST_SCRIPT,
                str(tmp_path / "lib.bin"),
            ],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        ).stdout.split()
    assert len(digests["1"]) == 2
    assert digests["1"] == digests["2"]


# -- serialization -----------------------------------------------------------


def test_factors_round_trip_bit_exact(tmp_path, rng):
    matrix = rng.normal(size=(40, 9))
    svd = thin_svd(matrix)
    path = tmp_path / "f.bin"
    save_factors(svd, path)
    first = path.read_bytes()
    again = load_factors(path)
    assert np.array_equal(again.values, svd.values)
    assert np.array_equal(again.modes, svd.modes)
    assert np.array_equal(again.coeffs, svd.coeffs)
    save_factors(again, path)
    assert path.read_bytes() == first


def test_library_round_trip_bit_exact(tmp_path, tiny_split):
    library = build_library(
        tiny_split.train, tiny_split.metadata.frame_shape, rank=3, source="tiny"
    )
    path = tmp_path / "lib.bin"
    save_library(library, path)
    first = path.read_bytes()
    again = load_library(path)
    assert again.frame_shape == library.frame_shape
    assert again.provenance == library.provenance
    for a, b in zip(library.bases, again.bases):
        assert a.label == b.label
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.modes, b.modes)
    save_library(again, path)
    assert path.read_bytes() == first


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"WHAT" + bytes(64))
    with pytest.raises(DataFormatError):
        load_library(path)
    with pytest.raises(DataFormatError):
        load_factors(path)


def test_load_rejects_truncation(tmp_path, rng):
    matrix = rng.normal(size=(20, 5))
    path = tmp_path / "f.bin"
    save_factors(thin_svd(matrix), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(DataFormatError):
        load_factors(path)


def test_load_rejects_trailing_garbage(tmp_path, tiny_split):
    library = build_library(tiny_split.train, tiny_split.metadata.frame_shape, rank=2)
    path = tmp_path / "lib.bin"
    save_library(library, path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(DataFormatError):
        load_library(path)
