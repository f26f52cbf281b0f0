import numpy as np
import pytest

from podclass.basis import BasisLibrary, ClassBasis, build_library
from podclass.dataset import ClassLabel
from podclass.errors import DataFormatError
from podclass.subspace import classify, classify_pairs, residual_matrix


def axis_library():
    """Two classes living on orthogonal coordinate axes of a 2x2 image."""
    e = np.eye(4)
    a = ClassBasis(ClassLabel(0, "A"), np.zeros(4), e[:, :1])
    b = ClassBasis(ClassLabel(1, "B"), np.zeros(4), e[:, 1:2])
    return BasisLibrary((2, 2), (a, b))


def test_residual_matrix_values():
    library = axis_library()
    image = np.array([[3.0, 4.0], [0.0, 0.0]])
    res = residual_matrix(library, image[None])
    # against A (axis 0): residual is the axis-1 part, and vice versa
    assert res.shape == (1, 2)
    assert abs(res[0, 0] - 4.0) <= 1e-12
    assert abs(res[0, 1] - 3.0) <= 1e-12


def test_classify_prefers_smaller_residual():
    library = axis_library()
    images = np.stack(
        [
            np.array([[5.0, 1.0], [0.0, 0.0]]),  # closer to A
            np.array([[1.0, 5.0], [0.0, 0.0]]),  # closer to B
        ]
    )
    assert classify(library, images).tolist() == [0, 1]


def test_tie_goes_to_lowest_class_id():
    library = axis_library()
    image = np.array([[2.0, 2.0], [0.0, 0.0]])  # equidistant
    assert classify(library, image[None]).tolist() == [0]


def test_classification_is_deterministic(tiny_split):
    library = build_library(tiny_split.train, tiny_split.metadata.frame_shape, rank=3)
    images = np.stack([img for img, _ in tiny_split.unseen])
    a = classify(library, images)
    b = classify(library, images)
    assert np.array_equal(a, b)


def test_clean_synthetic_classified_perfectly(tiny_split):
    library = build_library(tiny_split.train, tiny_split.metadata.frame_shape, rank=3)
    true, predicted = classify_pairs(library, tiny_split.unseen)
    assert (true == predicted).mean() == 1.0


def test_rejects_wrong_pixel_count():
    library = axis_library()
    with pytest.raises(DataFormatError):
        residual_matrix(library, np.zeros((1, 3, 3)))


@pytest.mark.parametrize("shape", [(1, 4), (4,), (1, 1, 2, 2)])
def test_rejects_a_batch_that_is_not_n_by_h_by_w(shape):
    with pytest.raises(DataFormatError, match="expected a batch of images"):
        residual_matrix(axis_library(), np.zeros(shape))
