import numpy as np
import pytest

from kfmc import (KernelSpec, Mask, OfflineHyperparams, SyntheticSpec,
                  complete_new, generate, impute_init, fit,
                  mean_pairwise_distance, random_mask, relative_error,
                  train_dictionary)
from kfmc.offline import dictionary_step, objective, solve_codes


def test_square_data_dictionary_is_stationary(rng):
    # with the dictionary set to the (fully observed) data itself and no
    # regularization, the codes are the identity, the objective is zero, and
    # the dictionary step vanishes
    X = rng.standard_normal((4, 6))
    D = X.copy()
    spec = KernelSpec.poly(2, 1.0)
    Z = solve_codes(spec, X, D, 0.0)
    assert np.allclose(Z, np.eye(6), atol=1e-8)
    assert objective(spec, X, D, Z, 0.0, 0.0) == pytest.approx(0.0, abs=1e-8)
    step = dictionary_step(spec, X, D, Z, 0.0, 2.0)
    assert np.allclose(step, 0.0, atol=1e-6)


def test_train_dictionary_trace_monotone(rng):
    X = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 40))
    spec = KernelSpec.rbf(mean_pairwise_distance(X))
    hp = OfflineHyperparams(r=10, alpha=0.1, beta=1e-3, eta=0.0, t_max=50,
                            tol=0.0, seed=0)
    mm = impute_init(X, Mask.full(*X.shape))
    model = fit(mm, spec, hp)
    tr = model.objective_trace
    assert np.all(np.diff(tr) <= 1e-9 * np.maximum(np.abs(tr[:-1]), 1e-30))
    assert np.array_equal(model.completed, X)


def test_train_dictionary_rejects_missing(rng):
    X = rng.standard_normal((4, 5))
    X[1, 2] = np.nan
    with pytest.raises(ValueError):
        train_dictionary(X, KernelSpec.rbf(1.0),
                         OfflineHyperparams(r=3, seed=0))


def _held_out_setup():
    X_all, _ = generate(SyntheticSpec(d=3, p=3, u=1, m=30, n_per=150, seed=4))
    train, test = X_all[:, :100], X_all[:, 100:]
    mask = random_mask(30, 50, 0.3, seed=5)
    masked = np.where(mask.observed, test, np.nan)
    samples = [(masked[:, j], mask.column_split(j)[0]) for j in range(50)]
    return train, test, mask, samples


def test_complete_new_matches_offline_quality():
    train, test, mask, samples = _held_out_setup()
    spec = KernelSpec.rbf(mean_pairwise_distance(train))
    hp = OfflineHyperparams(r=60, alpha=0.1, beta=1e-4, eta=0.5, t_max=300,
                            tol=1e-7, seed=0)
    D = train_dictionary(train, spec, hp)
    X_hat = complete_new(D, samples, spec, beta=1e-4, n_iter=60)
    re_ose = relative_error(X_hat, test)

    comb_obs = np.hstack([np.ones((30, 100), dtype=bool), mask.observed])
    X_full = np.hstack([train, test])
    mm = impute_init(np.where(comb_obs, X_full, np.nan), Mask(comb_obs))
    model = fit(mm, spec, hp)
    re_offline = relative_error(model.completed[:, 100:], test)
    assert re_ose <= 1.5 * re_offline


def test_complete_new_remasked_training_column():
    train, _, _, _ = _held_out_setup()
    spec = KernelSpec.rbf(mean_pairwise_distance(train))
    hp = OfflineHyperparams(r=60, alpha=0.1, beta=1e-4, eta=0.5, t_max=300,
                            tol=1e-7, seed=0)
    D = train_dictionary(train, spec, hp)
    col = train[:, 7]
    obs_idx = random_mask(30, 1, 0.3, seed=8).column_split(0)[0]
    xs = np.full(30, np.nan)
    xs[obs_idx] = col[obs_idx]
    x_hat = complete_new(D, [(xs, obs_idx)], spec, beta=1e-4, n_iter=60)[:, 0]
    assert np.linalg.norm(x_hat - col) / np.linalg.norm(col) < 0.05


def test_complete_new_never_mutates_dictionary(rng):
    D = rng.standard_normal((6, 4))
    D_bytes = D.tobytes()
    spec = KernelSpec.rbf(1.5)
    samples = []
    for _ in range(5):
        x = rng.standard_normal(6)
        obs = rng.choice(6, size=4, replace=False)
        xs = np.full(6, np.nan)
        xs[obs] = x[obs]
        samples.append((xs, obs))
    complete_new(D, samples, spec, beta=1e-3, n_iter=20)
    assert D.tobytes() == D_bytes


def test_complete_new_fully_observed_passthrough(rng):
    D = rng.standard_normal((5, 3))
    x = rng.standard_normal(5)
    out = complete_new(D, [(x, np.arange(5))], KernelSpec.rbf(1.0), beta=0.1)
    assert np.array_equal(out[:, 0], x)


def test_complete_new_of_no_samples_returns_no_columns(rng):
    D = rng.standard_normal((5, 3))
    spec = KernelSpec.rbf(1.0)
    out = complete_new(D, [], spec, beta=0.1)
    assert out.shape == (5, 0)
    out, infos = complete_new(D, [], spec, beta=0.1, return_info=True)
    assert out.shape == (5, 0)
    assert infos == []


def test_complete_new_order_independent(rng):
    D = rng.standard_normal((6, 4))
    spec = KernelSpec.rbf(1.5)
    samples = []
    for _ in range(6):
        x = rng.standard_normal(6)
        obs = rng.choice(6, size=4, replace=False)
        xs = np.full(6, np.nan)
        xs[obs] = x[obs]
        samples.append((xs, obs))
    out = complete_new(D, samples, spec, beta=1e-3, n_iter=20)
    reversed_out = complete_new(D, samples[::-1], spec, beta=1e-3, n_iter=20)
    assert np.array_equal(out, reversed_out[:, ::-1])
    solo = complete_new(D, [samples[2]], spec, beta=1e-3, n_iter=20)
    assert np.array_equal(out[:, 2], solo[:, 0])


@pytest.mark.parametrize("beta", [-1e-3, np.nan], ids=["negative", "nan"])
def test_complete_new_rejects_a_bad_beta(rng, beta):
    D = rng.standard_normal((5, 3))
    x = rng.standard_normal(5)
    x[3:] = np.nan
    with pytest.raises(ValueError, match="beta must be >= 0"):
        complete_new(D, [(x, np.arange(3))], KernelSpec.rbf(2.0), beta=beta)
