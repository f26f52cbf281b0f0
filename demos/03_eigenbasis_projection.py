"""Project frames onto a class's subspace and watch the noise go.

The basis of a class is the mean of its training frames plus the
leading modes of the mean-centered ensemble. Projection keeps only what
those modes span, which strips most of the noise while preserving the
class structure.
"""

import numpy as np

from podclass.basis import fit_class
from podclass.dataset import SyntheticSpec, generate_synthetic, group_by_class
from podclass.svd import TruncationRule

side, rank, noise = 24, 4, 0.15
clean_spec = SyntheticSpec(
    class_count=1, frames_per_class=50, image_side=side, intrinsic_rank=rank,
    noise_level=0.0, seed=12,
)
noisy_spec = SyntheticSpec(
    class_count=1, frames_per_class=50, image_side=side, intrinsic_rank=rank,
    noise_level=noise, seed=12,
)
# same seed: identical clean structure, one version with noise on top
clean = [f for s in generate_synthetic(clean_spec) for f in s.frames]
noisy = [f for s in generate_synthetic(noisy_spec) for f in s.frames]

label = next(iter(group_by_class(generate_synthetic(noisy_spec))))
basis, _ = fit_class(noisy[:40], label).basis(TruncationRule(rank=rank))
print(f"built rank-{basis.rank} basis from 40 noisy frames "
      f"({side}x{side} pixels)")

before = after = 0.0
for clean_frame, noisy_frame in zip(clean[40:], noisy[40:]):
    x = noisy_frame.reshape(-1)
    p = basis.project(x)
    before += np.linalg.norm(x - clean_frame.reshape(-1))
    after += np.linalg.norm(p - clean_frame.reshape(-1))
n = len(clean[40:])
print(f"mean distance to the clean frame, held-out frames:")
print(f"  noisy input : {before / n:.3f}")
print(f"  projected   : {after / n:.3f}")

# projection is idempotent and restores the mean exactly
x = noisy[0].reshape(-1)
assert np.allclose(basis.project(basis.project(x)), basis.project(x))
assert np.allclose(basis.project(basis.mean), basis.mean)
print("\nprojection is idempotent and fixes the class mean")

out_of_range = basis.project(np.ones(side * side))
print(f"projected values may leave [0, 1] (here max {out_of_range.max():.3f}); "
      "clamping happens only on 8-bit export")
