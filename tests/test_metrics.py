import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podclass.errors import ConfigError
from podclass.experiment import summary_rows
from podclass.metrics import (
    accuracy,
    aggregate,
    confusion_matrix,
)


def test_accuracy_basic():
    assert accuracy(np.array([0, 1, 2, 1]), np.array([0, 1, 1, 1])) == 0.75


def test_accuracy_rejects_mismatch():
    with pytest.raises(ConfigError):
        accuracy(np.array([0, 1]), np.array([0]))


def test_confusion_rows_are_true_classes():
    true = np.array([0, 0, 1, 2, 2, 2])
    pred = np.array([0, 1, 1, 2, 0, 2])
    m = confusion_matrix(true, pred, 3)
    assert m.tolist() == [[1, 1, 0], [0, 1, 0], [1, 0, 2]]
    assert m.sum() == true.size
    # diagonal over total equals accuracy
    assert np.trace(m) / m.sum() == accuracy(true, pred)


def test_confusion_rejects_out_of_range():
    with pytest.raises(ConfigError):
        confusion_matrix(np.array([0, 3]), np.array([0, 0]), 3)


def test_aggregate_mean_std():
    agg = aggregate([0.8, 0.9, 1.0])
    assert abs(agg["mean"] - 0.9) <= 1e-15
    assert abs(agg["std"] - 0.1) <= 1e-12  # sample std with n-1
    assert agg["count"] == 3
    assert agg["values"] == [0.8, 0.9, 1.0]


def test_aggregate_single_value_has_zero_std():
    agg = aggregate([0.7])
    assert agg == {"mean": 0.7, "std": 0.0, "count": 1, "values": [0.7]}


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=12
    ),
    st.randoms(use_true_random=False),
)
def test_aggregate_is_permutation_invariant_bitwise(values, shuffler):
    a = aggregate(values)
    permuted = list(values)
    shuffler.shuffle(permuted)
    b = aggregate(permuted)
    assert a == b


def test_aggregate_formats_three_significant_figures():
    agg = {"mean": 0.91234, "std": 0.01567, "count": 5, "values": [0.9]}
    report = {
        "protocol": {"arm_order": ["raw"]},
        "arms": {"raw": {"network": {"aggregate": {"unseen": agg}}}},
    }
    assert summary_rows(report) == ["raw\tunseen 0.912±0.0157"]

