"""Thin SVD of snapshot matrices and truncation-rank selection.

The factors come from LAPACK's SVD of the matrix itself, never from the
eigenvectors of its Gram matrix, whose squared spectrum halves the usable
precision. Modes are reported under one sign convention so results are
comparable bit for bit.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

# Modes with sigma <= RELATIVE_CUTOFF * sigma_1 are numerical zeros (the
# direction that mean-centering removes, for one) and are dropped.
RELATIVE_CUTOFF = 1e-12


@dataclass(frozen=True)
class ThinSVD:
    """Factors of A ~= W diag(sigma) T^T with orthonormal W (J x r) and
    T (K x r), sigma nonincreasing and positive."""

    modes: np.ndarray
    values: np.ndarray
    coeffs: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.values.size)


def _fix_signs(modes: np.ndarray, coeffs: np.ndarray) -> None:
    """Flip column pairs so each mode's largest-magnitude entry is
    nonnegative (first index wins ties); in place.

    The column max and min decide the sign without a |U| copy; only a
    column whose max equals -min looks up its first largest entry."""
    top = modes.max(axis=0)
    bottom = modes.min(axis=0)
    negative = -bottom > top
    for column in np.flatnonzero(top == -bottom):
        lead = np.argmax(np.abs(modes[:, column]))
        negative[column] = modes[lead, column] < 0
    signs = np.where(negative, -1.0, 1.0)
    modes *= signs  # exact: a product with +-1 only sets the sign bit
    coeffs *= signs


@functools.cache
def _openblas_threads():
    """``(openblas_get_num_threads, openblas_set_num_threads)`` of numpy's
    OpenBLAS, or None. OpenBLAS reads its thread variables only when it loads,
    so these calls are the only way to change its thread count later. A
    library handle's lookup searches only that object and its dependencies,
    so the handle of the extension behind ``np.linalg.svd`` finds numpy's
    OpenBLAS, never another copy in the process (scipy's)."""
    try:
        from numpy.linalg import _umath_linalg
        library = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for prefix, suffix in itertools.product(("", "scipy_"), ("", "64_", "_64")):
        name = f"{prefix}openblas_{{}}_num_threads{suffix}"
        get = getattr(library, name.format("get"), None)
        set_ = getattr(library, name.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one OpenBLAS thread, whose sums do not depend on the
    core count, and restore the caller's thread count afterwards."""
    # without OpenBLAS the count reads 1 and nothing is set
    get_threads, set_threads = _openblas_threads() or (lambda: 1, None)
    count = get_threads()
    if count > 1:
        set_threads(1)
    try:
        yield
    finally:
        if count > 1:
            set_threads(count)


def thin_svd(matrix: np.ndarray) -> ThinSVD:
    """Thin SVD, LAPACK on :func:`one_blas_thread`, with zero-modes dropped
    and the sign convention applied."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ConfigError(f"need a nonempty 2-D matrix, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise NumericError("matrix contains non-finite entries")
    with one_blas_thread():
        modes, values, vt = np.linalg.svd(matrix, full_matrices=False)
    r = int(np.count_nonzero(values > RELATIVE_CUTOFF * values[0]))
    if r == 0:
        raise NumericError("matrix is numerically zero; no singular modes")
    modes = modes[:, :r].copy()
    coeffs = vt[:r].T.copy()
    values = values[:r].copy()
    _fix_signs(modes, coeffs)
    return ThinSVD(modes=modes, values=values, coeffs=coeffs)


def rank_for_energy(values: np.ndarray, tolerance: float) -> int:
    """Smallest rank whose relative Frobenius truncation error is <= tolerance.

    The discarded tail satisfies ||A - A_r||_F^2 = sum_{j>r} sigma_j^2, so the
    answer needs only the spectrum.
    """
    if not 0 <= tolerance < 1:
        raise ConfigError(f"energy tolerance must be in [0, 1), got {tolerance}")
    values = np.asarray(values, dtype=np.float64)
    squared = values**2
    total = squared.sum()
    if total <= 0:
        raise NumericError("zero spectrum has no energy rank")
    # tail[r] = residual energy after keeping r modes
    tail = total - np.cumsum(squared)
    relative = np.sqrt(np.clip(tail, 0.0, None) / total)
    for r, err in enumerate(relative, start=1):
        if err <= tolerance:
            return r
    return int(values.size)


def gavish_donoho_omega(beta: float) -> float:
    """Cubic fit of the optimal hard-threshold coefficient for aspect
    ratio beta = min(J,K)/max(J,K) when the noise level is unknown."""
    if not 0 < beta <= 1:
        raise ConfigError(f"aspect ratio must be in (0, 1], got {beta}")
    return 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43


def hard_threshold(values: np.ndarray, shape: tuple[int, int]) -> float:
    """Optimal hard threshold for unknown noise: omega(beta) times the
    median singular value of a matrix of the given shape."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise NumericError("empty spectrum")
    j, k = shape
    if j < 1 or k < 1:
        raise ConfigError(f"bad matrix shape {shape}")
    beta = min(j, k) / max(j, k)
    return gavish_donoho_omega(beta) * float(np.median(values))


@dataclass(frozen=True)
class TruncationRule:
    """How many leading modes to keep: a fixed rank, the smallest rank
    within an energy tolerance, or the hard threshold when neither is
    given. Checked once, here; every library and report describes itself
    through :meth:`describe`."""

    rank: int | None = None
    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.rank is not None and self.tolerance is not None:
            raise ConfigError("a truncation rule takes a rank or a tolerance, not both")
        if self.rank is not None and self.rank < 1:
            raise ConfigError(f"truncation rank must be positive, got {self.rank}")
        if self.tolerance is not None and not 0 <= self.tolerance < 1:
            raise ConfigError(
                f"energy tolerance must be in [0, 1), got {self.tolerance}"
            )

    def describe(self) -> dict:
        if self.rank is not None:
            return {"kind": "fixed", "rank": self.rank}
        if self.tolerance is not None:
            return {"kind": "energy", "tolerance": self.tolerance}
        return {"kind": "hard-threshold"}

    def select(
        self, values: np.ndarray, shape: tuple[int, int]
    ) -> tuple[int, str | None]:
        """Rank to keep from the nonincreasing spectrum ``values`` of a
        matrix of ``shape``, plus a note when the rule could not be met as
        stated (a rank capped at the available one, or the hard threshold's
        rank-1 fallback)."""
        if self.rank is not None:
            if self.rank <= values.size:
                return self.rank, None
            return values.size, f"requested rank {self.rank} capped at {values.size}"
        if self.tolerance is not None:
            return rank_for_energy(values, self.tolerance), None
        threshold = hard_threshold(values, shape)
        if rank := int(np.count_nonzero(values > threshold)):
            return rank, None
        return 1, (
            f"no singular value above the hard threshold {threshold:.4g} "
            f"(median sigma {np.median(values):.4g}, "
            f"sigma_1 {values[0]:.4g}); fell back to rank 1"
        )
