import numpy as np
import pytest

from kfmc import (Mask, SyntheticSpec, generate, impute_init, lrf_complete,
                  ose_lrf, random_mask, relative_error, svd_basis)


def test_lrf_recovers_rank_one_exactly(rng):
    X = np.outer(rng.standard_normal(6), rng.standard_normal(10))
    mm = impute_init(X, Mask.full(6, 10))
    X_hat = lrf_complete(mm, 1, ridge=1e-8, iters=50, seed=0)
    assert relative_error(X_hat, X) < 1e-6


def test_lrf_zero_matrix(rng):
    X = np.zeros((4, 6))
    mask = random_mask(4, 6, 0.3, seed=0)
    mm = impute_init(np.where(mask.observed, X, np.nan), mask)
    X_hat = lrf_complete(mm, 2, ridge=1e-6, iters=20, seed=0)
    assert np.allclose(X_hat, 0.0, atol=1e-4)


def test_lrf_objective_nonincreasing_per_half_sweep(rng):
    X = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 20))
    mask = random_mask(8, 20, 0.4, seed=1)
    mm = impute_init(np.where(mask.observed, X, np.nan), mask)
    _, trace = lrf_complete(mm, 3, ridge=1e-3, iters=30, seed=0,
                            return_trace=True)
    assert np.all(np.diff(trace) <= 1e-9 * np.maximum(np.abs(trace[:-1]), 1e-30))


def test_lrf_handles_empty_rows_and_columns(rng):
    X = rng.standard_normal((5, 8))
    observed = np.ones((5, 8), dtype=bool)
    observed[2, :] = False
    observed[:, 5] = False
    mm = impute_init(np.where(observed, X, np.nan), Mask(observed))
    X_hat = lrf_complete(mm, 2, ridge=1e-3, iters=10, seed=0)
    assert np.all(np.isfinite(X_hat))


def test_lrf_high_rank_data_stays_poor():
    # single nonlinear subspace (true rank 19 in 30 rows): below the
    # low-rank sampling threshold (observed fraction 0.35 << 0.73) tuned
    # low-rank factorization cannot complete it
    X_true, _ = generate(SyntheticSpec(d=3, p=3, u=1, m=30, n_per=100, seed=0))
    mask = random_mask(30, 100, 0.65, seed=1)
    mm = impute_init(np.where(mask.observed, X_true, np.nan), mask)
    best = min(relative_error(lrf_complete(mm, r, ridge=1e-4, iters=100, seed=0),
                              X_true)
               for r in (5, 10, 19))
    assert best > 0.2


def test_lrf_rank_validation(rng):
    X = rng.standard_normal((4, 6))
    mm = impute_init(X, Mask.full(4, 6))
    with pytest.raises(ValueError):
        lrf_complete(mm, 0)
    with pytest.raises(ValueError):
        lrf_complete(mm, 5)


@pytest.mark.parametrize("settings", [{"iters": 0}, {"ridge": -1.0},
                                      {"ridge": np.nan}],
                         ids=["iters-0", "ridge-negative", "ridge-nan"])
def test_lrf_rejects_bad_settings(rng, settings):
    # with no sweep the completion would be the random starting point
    mm = impute_init(rng.standard_normal((4, 6)), Mask.full(4, 6))
    with pytest.raises(ValueError, match=f"{next(iter(settings))} must be"):
        lrf_complete(mm, 2, **settings)


def test_ose_lrf_rejects_a_negative_ridge(rng):
    U = svd_basis(rng.standard_normal((4, 6)), 2)
    with pytest.raises(ValueError, match="ridge must be >= 0"):
        ose_lrf(U, rng.standard_normal(4), np.arange(4), ridge=-1e-3)


def test_ose_lrf_hand_value():
    U = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    x = np.array([np.nan, 3.0])
    out = ose_lrf(U, np.where(np.isfinite(x), x, 0.0), np.array([1]), ridge=0.0)
    assert out[0] == pytest.approx(3.0)
    assert out[1] == 3.0


def test_ose_lrf_exact_on_span(rng):
    U = svd_basis(rng.standard_normal((6, 10)), 3)
    coef = rng.standard_normal(3)
    x = U @ coef
    obs = np.array([0, 1, 2, 3, 4])
    out = ose_lrf(U, x, obs, ridge=0.0)
    assert np.allclose(out, x, atol=1e-10)


def test_ose_lrf_without_ridge_needs_rank_many_observed_entries(rng):
    U = svd_basis(rng.standard_normal((6, 10)), 4)
    x = rng.standard_normal(6)
    with pytest.raises(ValueError, match="3 observed entries .* rank 4"):
        ose_lrf(U, x, np.array([0, 2, 5]), ridge=0.0)
    assert np.all(np.isfinite(ose_lrf(U, x, np.array([0, 2, 5]), ridge=1e-3)))


def test_ose_lrf_ridge_limit(rng):
    U = svd_basis(rng.standard_normal((5, 8)), 2)
    x = rng.standard_normal(5)
    out = ose_lrf(U, x, np.array([0, 1, 2]), ridge=1e12)
    assert np.allclose(out[3:], 0.0, atol=1e-9)


def test_ose_lrf_linear_in_observed(rng):
    U = svd_basis(rng.standard_normal((6, 9)), 2)
    obs = np.array([0, 2, 4])
    x1 = rng.standard_normal(6)
    x2 = rng.standard_normal(6)
    a, b = 0.7, -1.3
    lhs = ose_lrf(U, a * x1 + b * x2, obs, ridge=0.1)
    rhs = a * ose_lrf(U, x1, obs, ridge=0.1) + b * ose_lrf(U, x2, obs, ridge=0.1)
    miss = np.setdiff1d(np.arange(6), obs)
    assert np.allclose(lhs[miss], rhs[miss], atol=1e-10)


def test_ose_lrf_requires_observations(rng):
    U = svd_basis(rng.standard_normal((4, 6)), 2)
    with pytest.raises(ValueError):
        ose_lrf(U, rng.standard_normal(4), np.array([], dtype=int))


def test_svd_basis_orthonormal(rng):
    U = svd_basis(rng.standard_normal((7, 12)), 4)
    assert np.allclose(U.T @ U, np.eye(4), atol=1e-12)
    with pytest.raises(ValueError):
        svd_basis(rng.standard_normal((7, 12)), 8)
