"""Classification metrics and run-to-run aggregation.

Aggregates over repeated runs report mean and sample standard deviation
(n - 1 denominator, zero for a single run). The accumulation happens on a
sorted copy of the values, so the reported numbers are bit-identical no
matter what order the runs finished in.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError


def accuracy(true: np.ndarray, predicted: np.ndarray) -> float:
    true = np.asarray(true)
    predicted = np.asarray(predicted)
    if true.shape != predicted.shape or true.size == 0:
        raise ConfigError("need two equal-length nonempty label arrays")
    return float((true == predicted).mean())


def confusion_matrix(
    true: np.ndarray, predicted: np.ndarray, class_count: int
) -> np.ndarray:
    """Counts with rows indexed by true class, columns by predicted class."""
    true = np.asarray(true)
    predicted = np.asarray(predicted)
    if true.shape != predicted.shape:
        raise ConfigError("label arrays differ in length")
    if class_count < 1:
        raise ConfigError("class_count must be positive")
    for name, arr in (("true", true), ("predicted", predicted)):
        if arr.size and (arr.min() < 0 or arr.max() >= class_count):
            raise ConfigError(f"{name} labels outside [0, {class_count})")
    matrix = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(matrix, (true, predicted), 1)
    return matrix


def aggregate(values: Sequence[float]) -> dict:
    """Order-independent mean and n-1 standard deviation, as the report's
    ``{"mean", "std", "count", "values"}`` (values sorted)."""
    if len(values) == 0:
        raise ConfigError("cannot aggregate zero values")
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    std = float(ordered.std(ddof=1)) if ordered.size > 1 else 0.0
    return {
        "mean": float(ordered.mean()),
        "std": std,
        "count": int(ordered.size),
        "values": ordered.tolist(),
    }
