"""Thin SVD of a snapshot matrix and the three ways to pick a rank.

A class's frames, flattened into columns, form a tall matrix. Its thin
SVD orders spatial modes by captured energy; truncation keeps the
leading ones. The rank can be fixed, chosen from an energy budget, or
picked by the optimal hard threshold when the noise level is unknown.
"""

import numpy as np

from podclass.dataset import (
    SyntheticSpec,
    assemble_snapshot_matrix,
    generate_synthetic,
    group_by_class,
)
from podclass.svd import TruncationRule, rank_for_energy, thin_svd

spec = SyntheticSpec(
    class_count=1, frames_per_class=60, image_side=24, intrinsic_rank=4,
    noise_level=0.05, seed=3,
)
samples = generate_synthetic(spec)
(label, group), = group_by_class(samples).items()
frames = [f for s in group for f in s.frames]
matrix = assemble_snapshot_matrix(frames)
print(f"snapshot matrix: {matrix.shape[0]} pixels x {matrix.shape[1]} frames")

svd = thin_svd(matrix)
print(f"numerical rank {svd.rank}; leading singular values:")
print("  " + " ".join(f"{v:.3f}" for v in svd.values[:8]))

# the factorization reproduces the matrix and the factors are orthonormal
product = (svd.modes * svd.values) @ svd.coeffs.T
err = np.linalg.norm(matrix - product) / np.linalg.norm(matrix)
orth = np.abs(svd.modes.T @ svd.modes - np.eye(svd.rank)).max()
print(f"reconstruction error {err:.2e}, mode orthonormality defect {orth:.2e}")

# truncation keeps the leading r modes, values and coefficients; its error
# obeys the tail identity, so there is no need to form the matrix
for r in (2, 4, 8):
    kept = (svd.modes[:, :r] * svd.values[:r]) @ svd.coeffs[:, :r].T
    direct = np.linalg.norm(matrix - kept)
    tail = np.sqrt((svd.values[r:] ** 2).sum())
    print(f"rank {r}: truncation error {direct:.4f}, tail formula {tail:.4f}")

for tol in (0.3, 0.1, 0.03):
    print(f"energy tolerance {tol}: rank {rank_for_energy(svd.values, tol)}")

auto, _ = TruncationRule().select(svd.values, matrix.shape)
print(f"hard-threshold rank (planted rank was {spec.intrinsic_rank}): {auto}")
