"""Nearest-subspace classification against a basis library.

An image is assigned to the class whose affine subspace it can be
reconstructed from with the smallest Euclidean error. No training beyond
the library itself, no randomness: ties go to the lowest class id.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .basis import BasisLibrary
from .dataset import Pair, partition_arrays
from .errors import DataFormatError


def residual_matrix(library: BasisLibrary, images: np.ndarray) -> np.ndarray:
    """Distance of each image to each class subspace.

    ``images`` is (N, H, W); returns (N, C) with columns in library
    (class-id) order.
    """
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 3:
        raise DataFormatError(f"expected a batch of images, got shape {images.shape}")
    vectors = images.reshape(images.shape[0], -1).T
    j = library.frame_shape[0] * library.frame_shape[1]
    if vectors.shape[0] != j:
        raise DataFormatError(
            f"images have {vectors.shape[0]} pixels, library expects {j}"
        )
    out = np.empty((vectors.shape[1], library.class_count))
    for column, basis in enumerate(library.bases):
        out[:, column] = basis.residuals(vectors)
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
