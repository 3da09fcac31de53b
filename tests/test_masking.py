import numpy as np
import pytest

from kfmc import Mask, impute_init, project_observed


def test_observed_fraction():
    mask = Mask(np.array([[True, False, False], [False, False, True]]))
    assert mask.observed_fraction == pytest.approx(2 / 6)
    assert Mask.full(3, 3).observed_fraction == 1.0


def test_impute_row_mean_single_observed_per_row():
    M = np.array([[1.0, np.nan], [np.nan, 4.0]])
    mm = impute_init(M, Mask.from_dense(M), strategy="row_mean")
    assert np.allclose(mm.completion, [[1.0, 1.0], [4.0, 4.0]])


def test_impute_fully_observed_is_identity(rng):
    M = rng.standard_normal((4, 5))
    mm = impute_init(M, Mask.full(4, 5))
    assert np.array_equal(mm.completion, M)


def test_impute_zero_strategy(rng):
    M = rng.standard_normal((5, 8))
    mask = Mask(rng.uniform(size=(5, 8)) < 0.4)
    mm = impute_init(M, mask, strategy="zero")
    assert np.all(mm.completion[mask.missing] == 0.0)
    assert np.array_equal(mm.completion[mask.observed], M[mask.observed])


def test_from_dense_marks_only_nan_missing():
    # the CLI reader's rule: an inf is an observed (and invalid) value
    M = np.array([[1.0, np.nan, np.inf], [-np.inf, 2.0, np.nan]])
    assert np.array_equal(Mask.from_dense(M).observed,
                          [[True, False, True], [True, True, False]])


def test_impute_empty_row_falls_back_to_zero():
    M = np.array([[np.nan, np.nan], [1.0, 3.0]])
    mm = impute_init(M, Mask.from_dense(M), strategy="row_mean")
    assert np.allclose(mm.completion[0], 0.0)


def test_impute_never_alters_observed(rng):
    M = rng.standard_normal((6, 7))
    mask = Mask(rng.uniform(size=(6, 7)) < 0.5)
    for strategy in ("row_mean", "zero"):
        mm = impute_init(M, mask, strategy=strategy)
        assert np.array_equal(mm.completion[mask.observed], M[mask.observed])


def test_impute_shape_and_strategy_errors(rng):
    M = rng.standard_normal((3, 3))
    with pytest.raises(ValueError):
        impute_init(M, Mask.full(2, 3))
    with pytest.raises(ValueError):
        impute_init(M, Mask.full(3, 3), strategy="median")


def test_project_restores_observed(rng):
    M = rng.standard_normal((4, 6))
    mask = Mask(rng.uniform(size=(4, 6)) < 0.6)
    mm = impute_init(M, mask)
    mm.completion += rng.standard_normal((4, 6))
    project_observed(mm)
    assert np.array_equal(mm.completion[mask.observed], M[mask.observed])
    snapshot = mm.completion.copy()
    project_observed(mm)
    assert np.array_equal(mm.completion, snapshot)


def test_project_full_mask_resets_everything(rng):
    M = rng.standard_normal((3, 3))
    mm = impute_init(M, Mask.full(3, 3))
    mm.completion[:] = 0.0
    project_observed(mm)
    assert np.array_equal(mm.completion, M)

