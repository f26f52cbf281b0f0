import numpy as np
import pytest

from podclass import svd as svd_module
from podclass.errors import ConfigError, NumericError
from podclass.svd import (
    ThinSVD,
    TruncationRule,
    _fix_signs,
    _openblas_threads,
    gavish_donoho_omega,
    rank_for_energy,
    thin_svd,
)

from oracles import oracle_singular_values


def check_invariants(matrix, svd: ThinSVD, tol=1e-10):
    values = svd.values
    assert values.ndim == 1 and (values > 0).all()
    assert (np.diff(values) <= 1e-12 * values[0]).all(), "values must not increase"
    r = svd.rank
    assert np.abs(svd.modes.T @ svd.modes - np.eye(r)).max() <= tol
    assert np.abs(svd.coeffs.T @ svd.coeffs - np.eye(r)).max() <= tol
    scale = max(np.linalg.norm(matrix), 1.0)
    product = (svd.modes * svd.values) @ svd.coeffs.T
    assert np.linalg.norm(matrix - product) <= tol * scale
    for k in range(r):
        column = svd.modes[:, k]
        lead = np.argmax(np.abs(column))
        assert column[lead] >= 0, f"sign convention broken in mode {k}"


# The ids name the SVD route, "direct": LAPACK on the matrix itself.
SHAPES = [(6, 6), (40, 9), (9, 14), (200, 12)]


@pytest.mark.parametrize(
    "shape", SHAPES, ids=[f"shape{i}-direct" for i in range(len(SHAPES))]
)
def test_invariants_random(shape, rng):
    matrix = rng.normal(size=shape)
    svd = thin_svd(matrix)
    check_invariants(matrix, svd)


@pytest.mark.parametrize("matrices", [pytest.param(20, id="direct")])
def test_singular_values_match_oracle(matrices, rng):
    for _ in range(matrices):
        shape = (int(rng.integers(3, 40)), int(rng.integers(3, 20)))
        matrix = rng.normal(size=shape)
        svd = thin_svd(matrix)
        reference = oracle_singular_values(matrix)
        assert np.abs(svd.values - reference[: svd.rank]).max() <= 1e-9 * reference[0]


def test_rank_deficient_drops_null_modes(rng):
    base = rng.normal(size=(30, 3))
    weights = rng.normal(size=(3, 8))
    matrix = base @ weights  # rank 3 by construction, 8 columns
    svd = thin_svd(matrix)
    assert svd.rank == 3
    check_invariants(matrix, svd)


def test_duplicated_columns(rng):
    column = rng.normal(size=(25, 1))
    matrix = np.repeat(column, 6, axis=1)
    svd = thin_svd(matrix)
    assert svd.rank == 1
    check_invariants(matrix, svd)


def test_zero_matrix_rejected():
    with pytest.raises(NumericError):
        thin_svd(np.zeros((10, 4)))


def test_nonfinite_rejected():
    matrix = np.ones((4, 4))
    matrix[2, 2] = np.nan
    with pytest.raises(NumericError):
        thin_svd(matrix)


def test_sign_convention_is_stable_under_column_negation(rng):
    matrix = rng.normal(size=(30, 6))
    svd_a = thin_svd(matrix)
    svd_b = thin_svd(-matrix)
    # flipping the matrix flips coefficients, not the spatial modes
    assert np.allclose(svd_a.modes, svd_b.modes, atol=1e-12)


def _loop_fix_signs(modes, coeffs):
    """The sign convention one column at a time: the reference."""
    for k in range(modes.shape[1]):
        lead = np.argmax(np.abs(modes[:, k]))
        if modes[lead, k] < 0:
            modes[:, k] = -modes[:, k]
            coeffs[:, k] = -coeffs[:, k]


def test_sign_fix_matches_the_column_loop_bit_for_bit(rng):
    ties = np.array([[-0.5, 0.5, 0.0], [0.5, -0.5, -1.0]])  # first index wins
    cases = [(ties, np.array([[1.0, 2.0, 3.0]]))]
    cases += [(rng.normal(size=(50, 7)), rng.normal(size=(9, 7))) for _ in range(5)]
    for modes, coeffs in cases:
        want_modes, want_coeffs = modes.copy(), coeffs.copy()
        _loop_fix_signs(want_modes, want_coeffs)
        _fix_signs(modes, coeffs)
        assert modes.tobytes() == want_modes.tobytes()
        assert coeffs.tobytes() == want_coeffs.tobytes()
    assert np.array_equal(cases[0][1], [[-1.0, 2.0, -3.0]])


@pytest.mark.skipif(
    _openblas_threads() is None, reason="numpy is not linked against OpenBLAS"
)
def test_lapack_runs_on_one_blas_thread_and_restores_the_count(rng, monkeypatch):
    get_threads, set_threads = _openblas_threads()
    lapack = np.linalg.svd
    seen = []

    def recording(*args, **kwargs):
        seen.append(get_threads())
        return lapack(*args, **kwargs)

    def failing(*args, **kwargs):
        seen.append(get_threads())
        raise np.linalg.LinAlgError("SVD did not converge")

    before = get_threads()
    try:
        set_threads(2)
        caller = get_threads()
        monkeypatch.setattr(np.linalg, "svd", recording)
        thin_svd(rng.normal(size=(40, 10)))
        assert seen == [1] and get_threads() == caller
        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(np.linalg.LinAlgError):
            thin_svd(rng.normal(size=(40, 10)))
        assert seen == [1, 1] and get_threads() == caller
    finally:
        set_threads(before)


# -- truncation --------------------------------------------------------------


def test_truncation_error_matches_tail_identity(rng):
    for _ in range(10):
        matrix = rng.normal(size=(30, 10))
        svd = thin_svd(matrix)
        for r in (1, 3, 7):
            kept = (svd.modes[:, :r] * svd.values[:r]) @ svd.coeffs[:, :r].T
            direct = np.linalg.norm(matrix - kept)
            tail = np.sqrt((svd.values[r:] ** 2).sum())
            assert abs(direct - tail) <= 1e-9 * max(direct, 1.0)


def test_rank_for_energy_monotone(rng):
    matrix = rng.normal(size=(50, 12))
    svd = thin_svd(matrix)
    ranks = [rank_for_energy(svd.values, tol) for tol in (0.5, 0.2, 0.05, 0.0)]
    assert ranks == sorted(ranks)
    assert ranks[-1] == svd.rank


def test_rank_for_energy_exact():
    values = np.array([2.0, 1.0, 1.0])  # total energy 6
    # keeping 1 mode leaves sqrt(2/6) ~ 0.577; keeping 2 leaves sqrt(1/6) ~ 0.408
    assert rank_for_energy(values, 0.6) == 1
    assert rank_for_energy(values, 0.5) == 2
    assert rank_for_energy(values, 0.40) == 3
    assert rank_for_energy(values, 0.0) == 3


def test_rank_for_energy_rejects_bad_tolerance():
    with pytest.raises(ConfigError):
        rank_for_energy(np.ones(3), 1.0)


# -- hard threshold ----------------------------------------------------------


def test_omega_square_case():
    assert abs(gavish_donoho_omega(1.0) - 2.86) <= 1e-12


def test_omega_cubic_value():
    beta = 0.25
    expected = 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43
    assert gavish_donoho_omega(beta) == expected


def test_hard_threshold_recovers_planted_rank(rng):
    j, k, true_rank = 300, 80, 4
    left = np.linalg.qr(rng.normal(size=(j, true_rank)))[0]
    right = np.linalg.qr(rng.normal(size=(k, true_rank)))[0]
    signal = left @ np.diag([9.0, 8.0, 7.0, 6.0]) @ right.T
    noisy = signal + rng.normal(0, 1e-3, size=(j, k))
    values = np.linalg.svd(noisy, compute_uv=False)
    assert TruncationRule().select(values, (j, k))[0] == true_rank


def test_hard_threshold_never_zero():
    values = np.full(10, 3.0)  # threshold = 2.86 * 3 > every value
    assert TruncationRule().select(values, (100, 10))[0] == 1


def test_truncation_rule_select_dispatch(rng):
    matrix = rng.normal(size=(40, 10))
    svd = thin_svd(matrix)
    values = svd.values
    assert TruncationRule(rank=3).select(values, matrix.shape) == (3, None)
    assert TruncationRule(rank=999).select(values, matrix.shape) == (
        svd.rank,
        f"requested rank 999 capped at {svd.rank}",
    )
    assert TruncationRule(tolerance=0.3).select(values, matrix.shape) == (
        rank_for_energy(values, 0.3),
        None,
    )
    auto, _ = TruncationRule().select(values, matrix.shape)
    above = np.count_nonzero(values > svd_module.hard_threshold(values, matrix.shape))
    assert auto == max(above, 1)


def test_hard_threshold_rule_computes_the_threshold_once(rng, monkeypatch):
    calls = []
    threshold = svd_module.hard_threshold

    def counting(values, shape):
        calls.append(shape)
        return threshold(values, shape)

    monkeypatch.setattr(svd_module, "hard_threshold", counting)

    def select(matrix):
        calls.clear()
        return TruncationRule().select(thin_svd(matrix).values, matrix.shape)

    planted = rng.normal(size=(300, 4)) @ rng.normal(size=(4, 80)) * 10
    planted += rng.normal(0, 1e-3, size=planted.shape)
    assert select(planted) == (4, None) and calls == [planted.shape]
    flat = np.linalg.qr(rng.normal(size=(40, 10)))[0]  # ten equal values
    rank, note = select(flat)
    assert rank == 1 and "fell back to rank 1" in note and calls == [flat.shape]


def test_truncation_rule_is_checked_at_construction():
    with pytest.raises(ConfigError):
        TruncationRule(rank=2, tolerance=0.1)
    with pytest.raises(ConfigError):
        TruncationRule(rank=0)
    for tolerance in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="energy tolerance must be in"):
            TruncationRule(tolerance=tolerance)


def test_truncation_rule_describes_itself():
    assert TruncationRule(rank=3).describe() == {"kind": "fixed", "rank": 3}
    assert TruncationRule(tolerance=0.1).describe() == {
        "kind": "energy",
        "tolerance": 0.1,
    }
    assert TruncationRule().describe() == {"kind": "hard-threshold"}
