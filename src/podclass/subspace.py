"""Nearest-subspace classification against a basis library.

An image is assigned to the class whose affine subspace it can be
reconstructed from with the smallest Euclidean error. No training beyond
the library itself, no randomness: ties go to the lowest class id.

The residuals are the bits of ``np.linalg.norm(c - U @ (U.T @ c), axis=0)``
with ``c`` the mean-centered batch, computed with less memory traffic: one
J x N transposed copy of the batch is shared by every class, one buffer of
J x N doubles holds first the centered rows and then the fit, and the
squared differences are summed in blocks of ``BLOCK_ROWS`` pixel rows, each
block seeded with the running sum so every column is summed in row order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .basis import BasisLibrary
from .dataset import Pair, partition_arrays
from .errors import DataFormatError

# Pixel rows per block of the residual sums: a block of squared differences
# for a 750-frame batch (64 x 750 doubles) stays in cache.
BLOCK_ROWS = 64


def residual_matrix(library: BasisLibrary, images: np.ndarray) -> np.ndarray:
    """Distance of each image to each class subspace.

    ``images`` is (N, H, W); returns (N, C) with columns in library
    (class-id) order.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise DataFormatError(f"expected a batch of images, got shape {images.shape}")
    library.check_frame_shape(images.shape[1:])
    n = images.shape[0]
    rows = images.reshape(n, -1)
    j = rows.shape[1]
    columns = np.ascontiguousarray(rows.T)
    work = np.empty(j * n)
    # numpy sums a contiguous column pairwise, so one frame is one block
    step = BLOCK_ROWS if n > 1 else j
    tail = np.empty((min(step, j) + 1, n))
    out = np.empty((n, len(library.bases)))
    for column, basis in enumerate(library.bases):
        # the transposed centered rows are the F-ordered GEMM operand that
        # c = vectors - mean would be, so both GEMMs keep their BLAS calls
        centered = np.subtract(rows, basis.mean, out=work.reshape(n, j))
        coeffs = basis.modes.T @ centered.T
        fit = np.matmul(basis.modes, coeffs, out=work.reshape(j, n))
        for lo in range(0, j, step):
            hi = min(lo + step, j)
            off = tail[1 : 1 + hi - lo]
            np.subtract(columns[lo:hi], basis.mean[lo:hi, None], out=off)
            off -= fit[lo:hi]
            off *= off
            # row 0 carries the sum of the rows above this block
            tail[0] = np.add.reduce(tail[1 if lo == 0 else 0 : 1 + hi - lo], axis=0)
        out[:, column] = np.sqrt(tail[0])
    return out


def classify(library: BasisLibrary, images: np.ndarray) -> np.ndarray:
    """Predicted class id per image; ties resolve to the lowest class id."""
    residuals = residual_matrix(library, images)
    ids = np.array([b.label.id for b in library.bases])
    return ids[np.argmin(residuals, axis=1)]


def classify_pairs(
    library: BasisLibrary, pairs: Sequence[Pair]
) -> tuple[np.ndarray, np.ndarray]:
    """(true ids, predicted ids) for a labeled partition."""
    images, true = partition_arrays(pairs)
    return true, classify(library, images)
