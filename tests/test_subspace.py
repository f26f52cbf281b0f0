import numpy as np
import pytest

from podclass.basis import BasisLibrary, ClassBasis, build_library, project_pairs
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


def norm_residuals(library, images):
    """The plain formula: per class, the column norms of the centered batch
    minus its fit, all whole-batch arrays.

    The centered batch is named: numpy subtracts into an unnamed temporary
    of more than 256 KiB in place, keeping its column-major order, and
    then sums each column pairwise instead of in row order."""
    v = images.reshape(images.shape[0], -1).T
    columns = []
    for basis in library.bases:
        u = basis.modes
        centered = v - basis.mean[:, None]
        columns.append(np.linalg.norm(centered - u @ (u.T @ centered), axis=0))
    return np.stack(columns, axis=1)


@pytest.mark.parametrize("order", ["C", "F"])  # as built, as loaded
@pytest.mark.parametrize("shape", [(9, 11), (64, 64)])  # 99 pixels: a short last block
@pytest.mark.parametrize("rank", [1, 5])
@pytest.mark.parametrize("n", [1, 2, 7, 130])
def test_residual_bits_match_the_norm_formula(n, rank, shape, order):
    rng = np.random.default_rng([n, rank, shape[0]])
    j = shape[0] * shape[1]
    bases = []
    for class_id in range(3):
        modes, _ = np.linalg.qr(rng.normal(size=(j, rank)))
        mean = rng.uniform(0, 1, size=j)
        label = ClassLabel(class_id, f"c{class_id}")
        bases.append(ClassBasis(label, mean, np.array(modes, order=order)))
    library = BasisLibrary(shape, tuple(bases))
    images = rng.uniform(0, 1, size=(n, *shape))
    expected = norm_residuals(library, images)
    assert residual_matrix(library, images).tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(3, 2), (6, 1)])
def test_frames_of_another_shape_are_refused(shape):
    """Six pixels in the wrong (H, W) are refused, not scored or reshaped."""
    e = np.eye(6)
    bases = (
        ClassBasis(ClassLabel(0, "A"), np.zeros(6), e[:, :1]),
        ClassBasis(ClassLabel(1, "B"), np.zeros(6), e[:, 1:2]),
    )
    library = BasisLibrary((2, 3), bases)
    message = rf"frame shape \({shape[0]}, {shape[1]}\) .* library frame shape \(2, 3\)"
    frames = np.ones((2, *shape))
    with pytest.raises(DataFormatError, match=message):
        residual_matrix(library, frames)
    with pytest.raises(DataFormatError, match=message):
        classify(library, frames)
    with pytest.raises(DataFormatError, match=message):
        project_pairs(library, [(frames[0], bases[0].label)])
    assert project_pairs(library, [(np.ones((2, 3)), bases[0].label)])[0][0].shape == (2, 3)
