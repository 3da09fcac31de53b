import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize

from kfmc import (KernelSpec, NumericalError, OnlineHyperparams, OnlineModel,
                  SyntheticSpec, generate, mean_pairwise_distance,
                  impute_init, objective, random_mask, relative_error,
                  run_stream, solve_codes)
from kfmc.kernels import kernel_matrix, power_weights
from kfmc import online
from kfmc.online import update_dictionary
from kfmc.ose import complete_new


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        OnlineHyperparams(r=2, n_iter=0)
    with pytest.raises(ValueError):
        OnlineHyperparams(r=2, n_pass=0)
    with pytest.raises(ValueError):
        OnlineHyperparams(r=2, tau=0.5)


def test_fully_observed_sample_unchanged(rng):
    D = rng.standard_normal((4, 3))
    x = rng.standard_normal(4)
    spec = KernelSpec.rbf(1.0)
    x_hat, (info,) = complete_new(D, [(x, np.arange(4))], spec, 0.1,
                                  return_info=True)
    assert np.array_equal(x_hat[:, 0], x)
    assert info.converged and info.iterations == 0
    K_DD = kernel_matrix(spec, D, D)
    k = kernel_matrix(spec, x[:, None], D)[0]
    expected = np.linalg.solve(K_DD + 0.1 * np.eye(3), k)
    assert np.allclose(solve_codes(spec, x[:, None], D, 0.1)[:, 0], expected)


def test_code_solve_hand_value():
    # 2x2 identity dictionary, fully observed x = e1, poly(c=1, q=2), beta=1
    z = solve_codes(KernelSpec.poly(2, 1.0), np.array([[1.0], [0.0]]),
                    np.eye(2), 1.0)
    assert np.allclose(z[:, 0], [19 / 24, 1 / 24])


def test_code_step_matches_independent_minimizer(rng):
    spec = KernelSpec.poly(2, 1.0)
    D = rng.standard_normal((5, 3))
    x = rng.standard_normal(5)
    beta = 0.3
    z = solve_codes(spec, x[:, None], D, beta)[:, 0]

    k = kernel_matrix(spec, x[:, None], D)[0]
    K_DD = kernel_matrix(spec, D, D)

    def quad(zv):
        return (-k @ zv + 0.5 * zv @ (K_DD @ zv) + 0.5 * beta * zv @ zv)

    res = minimize(quad, np.zeros(3), method="L-BFGS-B",
                   options={"gtol": 1e-12})
    assert np.allclose(z, res.x, atol=1e-6)


def _one_column_objective(spec, x, z, D, alpha, beta):
    """The objective of one column x (m,) with its code z (r,)."""
    return objective(spec, x[:, None], D, z[:, None], alpha, beta)


def _random_sample_instance(seed, kind):
    r = np.random.default_rng(seed)
    m, ra = 6, 4
    D = r.standard_normal((m, ra))
    x = r.standard_normal(m)
    obs = np.sort(r.choice(m, size=3, replace=False))
    spec = (KernelSpec.poly(int(r.integers(2, 4)), 0.5 + r.uniform())
            if kind == "poly" else KernelSpec.rbf(0.8 + 2 * r.uniform()))
    return D, x, obs, spec


@pytest.mark.parametrize("kind", ["poly", "rbf"])
def test_inner_loop_monotone_without_momentum(kind):
    # replicate the inner loop, checking the per-sample objective after each
    # accepted z-step and x-step
    for trial in range(40):
        D, x, obs, spec = _random_sample_instance(trial, kind)
        m, ra = D.shape
        beta, alpha, tau = 0.05, 0.1, 2.0
        K_DD = kernel_matrix(spec, D, D)
        chol = cho_factor(K_DD + beta * np.eye(ra), lower=True)
        xs = np.where(np.isin(np.arange(m), obs), x, np.nan)
        x0, miss = (a[:, 0] for a in online._prepare_columns([(xs, obs)], D))
        cur = x0.copy()
        objs = []
        for _ in range(15):
            k = kernel_matrix(spec, cur[:, None], D)[0]
            z = cho_solve(chol, k)
            objs.append(_one_column_objective(spec, cur, z, D, alpha, beta))
            step = online._sample_step(spec, cur, z, D, k, tau)
            x_try = cur.copy()
            x_try[miss] -= step[miss]
            after = _one_column_objective(spec, x_try, z, D, alpha, beta)
            if after > objs[-1]:
                step = online._sample_step(spec, cur, z, D, k, 2 * tau)
                x_try = cur.copy()
                x_try[miss] -= step[miss]
                after = _one_column_objective(spec, x_try, z, D, alpha, beta)
                if after > objs[-1]:
                    break
            cur = x_try
            objs.append(after)
        diffs = np.diff(objs)
        assert np.all(diffs <= 1e-9 * np.maximum(np.abs(objs[:-1]), 1e-30))


@pytest.mark.parametrize("kind", ["poly", "rbf"])
def test_complete_new_does_not_increase_objective(kind):
    beta = 0.05
    for trial in range(20):
        D, x, obs, spec = _random_sample_instance(100 + trial, kind)
        xs = np.where(np.isin(np.arange(6), obs), x, np.nan)
        _, (info,) = complete_new(D, [(xs, obs)], spec, beta, n_iter=25,
                                  tol=0.0, return_info=True)
        x0 = online._prepare_columns([(xs, obs)], D)[0][:, 0]
        k0 = kernel_matrix(spec, x0[:, None], D)[0]
        K_DD = kernel_matrix(spec, D, D)
        z0 = np.linalg.solve(K_DD + beta * np.eye(4), k0)
        # complete_new's terminal objective has no dictionary term
        start = _one_column_objective(spec, x0, z0, D, 0.0, beta)
        assert info.objective <= start + 1e-9 * max(abs(start), 1e-30)


def test_update_dictionary_stationary_cases(rng):
    D = rng.standard_normal((4, 3))
    x = rng.standard_normal(4)
    hp = OnlineHyperparams(r=3, alpha=0.0, beta=0.1, eta=0.5, seed=0)
    model = OnlineModel(D)
    update_dictionary(model, x[:, None], np.zeros((3, 1)),
                      KernelSpec.poly(2, 1.0), hp)
    assert np.array_equal(model.dictionary, D)


def test_update_dictionary_sufficient_decrease_poly():
    # Lemma-style bound on the frozen-weight per-sample objective
    tau = 2.0
    for trial in range(100):
        r = np.random.default_rng(trial)
        m, ra = 5, 3
        D = r.standard_normal((m, ra))
        x = r.standard_normal(m)
        z = r.standard_normal(ra)
        alpha = 0.2 + 0.5 * r.uniform()
        spec = KernelSpec.poly(int(r.integers(2, 4)), 0.3 + r.uniform())
        w1 = (x @ D + spec.offset) ** (spec.degree - 1)
        W2 = power_weights(spec, D.T @ D)

        def frozen(Dc):
            t1 = -np.sum(w1 * (x @ Dc + spec.offset) * z)
            M2 = W2 * (Dc.T @ Dc + spec.offset)
            return t1 + 0.5 * z @ (M2 @ z) + 0.5 * alpha * np.trace(M2)

        grad = (-np.outer(x, w1 * z)
                + D @ ((np.outer(z, z) + alpha * np.eye(ra)) * W2))
        H = np.outer(z, z) * W2 + alpha * np.diag(np.diag(W2))
        tau0 = np.linalg.norm(H, 2)

        model = OnlineModel(D)
        hp = OnlineHyperparams(r=ra, alpha=alpha, beta=0.1, tau=tau, eta=0.0,
                               seed=0)
        update_dictionary(model, x[:, None], z[:, None], spec, hp)
        dec = frozen(model.dictionary) - frozen(D)
        bound = -np.sum(grad * grad) / (2 * tau * tau0)
        assert dec <= bound + 1e-8


@pytest.mark.parametrize("case", ["negative-dominant", "random-symmetric"])
def test_update_dictionary_scales_by_spectral_norm(monkeypatch, rng, case):
    # the step is grad / (tau ||H||_2) also when the curvature's
    # largest-magnitude eigenvalue is negative
    r = 3
    curvatures = [np.diag([-3.0, 1.0, 2.0])]
    if case == "random-symmetric":
        curvatures = [A + A.T for A in rng.standard_normal((20, r, r))]
    hp = OnlineHyperparams(r=r, tau=2.0, eta=0.0, seed=0)
    for H in curvatures:
        grad = rng.standard_normal((5, r))
        monkeypatch.setattr(online, "_dictionary_parts",
                            lambda *args, **kwargs: (grad, H.copy()))
        # blocks (m, b), whose step grows by sqrt(b)
        for b in (1, 2, 5):
            model = OnlineModel(rng.standard_normal((5, r)))
            update_dictionary(model, rng.standard_normal((5, b)),
                              rng.standard_normal((r, b)),
                              KernelSpec.rbf(1.0), hp)
            expected = grad / (hp.tau * np.linalg.norm(H, 2) / np.sqrt(b))
            # with eta = 0 the momentum buffer holds the step itself
            assert (np.linalg.norm(model.dict_momentum - expected)
                    <= 1e-12 * np.linalg.norm(expected))


def test_update_dictionary_rbf_runs_and_descends(rng):
    spec = KernelSpec.rbf(1.5)
    D = rng.standard_normal((5, 4))
    x = rng.standard_normal(5)
    model = OnlineModel(D)
    hp = OnlineHyperparams(r=4, alpha=0.1, beta=0.05, eta=0.0, seed=0)
    k = kernel_matrix(spec, x[:, None], D)[0]
    K_DD = kernel_matrix(spec, D, D)
    z = np.linalg.solve(K_DD + hp.beta * np.eye(4), k)
    before = _one_column_objective(spec, x, z, D, hp.alpha, hp.beta)
    update_dictionary(model, x[:, None], z[:, None], spec, hp)
    after = _one_column_objective(spec, x, z, model.dictionary, hp.alpha,
                                  hp.beta)
    assert after <= before


def _stream_instance(n=100, missing=0.3, seed=1):
    X_true, _ = generate(SyntheticSpec(d=3, p=3, u=1, m=30, n_per=n, seed=seed))
    mask = random_mask(30, n, missing, seed=seed + 1)
    masked = np.where(mask.observed, X_true, np.nan)
    samples = [(masked[:, j], mask.column_split(j)[0]) for j in range(n)]
    return X_true, mask, samples


def test_tau_scales_the_dictionary_step_only():
    # the inner loop takes full steps: a first block completes to the same
    # bits whatever tau, and only the dictionary step it feeds is relaxed
    _, _, samples = _stream_instance(n=online.BATCH)
    runs = [run_stream(samples, KernelSpec.rbf(2.5),
                       OnlineHyperparams(r=12, beta=1e-3, tau=tau, seed=0))
            for tau in (2.0, 4.0)]
    (out2, model2), (out4, model4) = runs
    assert np.array_equal(out2, out4)
    assert model2.cost_trace == model4.cost_trace
    assert not np.allclose(model2.dictionary, model4.dictionary)


def test_run_stream_fully_observed_passthrough(rng):
    X = rng.standard_normal((6, 10))
    samples = [(X[:, j], np.arange(6)) for j in range(10)]
    hp = OnlineHyperparams(r=4, beta=0.1, n_iter=5, seed=0)
    out, model = run_stream(samples, KernelSpec.rbf(2.0), hp)
    assert np.array_equal(out, X)
    assert model.samples_seen == 10


def test_run_stream_multi_pass_improves():
    X_true, mask, samples = _stream_instance()
    dbar = mean_pairwise_distance(impute_init(
        np.where(mask.observed, X_true, np.nan), mask).completion)
    spec = KernelSpec.rbf(dbar)
    finals = {}
    for n_pass in (1, 2):
        hp = OnlineHyperparams(r=60, alpha=0.1, beta=1e-4, eta=0.5, n_iter=30,
                               n_pass=n_pass, tol=1e-6, seed=0)
        out, model = run_stream(samples, spec, hp, ground_truth=X_true)
        finals[n_pass] = (model.err_trace[-1], relative_error(out, X_true))
    assert finals[2][0] <= finals[1][0]
    assert finals[2][1] <= finals[1][1] + 1e-12


def test_run_stream_cost_trace_decreases_across_passes():
    X_true, mask, samples = _stream_instance(n=60)
    spec = KernelSpec.rbf(3.0)
    hp = OnlineHyperparams(r=30, alpha=0.1, beta=1e-4, eta=0.5, n_iter=20,
                           n_pass=4, tol=1e-6, seed=0)
    _, model = run_stream(samples, spec, hp, ground_truth=X_true)
    g = np.asarray(model.cost_trace)
    ends = g[np.arange(1, 5) * 60 - 1]
    for a, b in zip(ends[:-1], ends[1:]):
        assert b <= 1.05 * a


def test_run_stream_deterministic():
    X_true, mask, samples = _stream_instance(n=40)
    spec = KernelSpec.rbf(2.5)
    hp = OnlineHyperparams(r=20, alpha=0.1, beta=1e-3, eta=0.5, n_iter=10,
                           n_pass=2, tol=1e-6, seed=11)
    out1, m1 = run_stream(samples, spec, hp, ground_truth=X_true)
    out2, m2 = run_stream(samples, spec, hp, ground_truth=X_true)
    assert np.array_equal(out1, out2)
    assert np.array_equal(m1.dictionary, m2.dictionary)
    assert m1.cost_trace == m2.cost_trace


def test_fully_missing_column_completes_from_prior(rng):
    D = rng.standard_normal((5, 4))
    x = np.full(5, np.nan)
    x_hat = complete_new(D, [(x, np.array([], dtype=int))],
                         KernelSpec.rbf(1.5), 0.1, n_iter=10)
    assert x_hat.shape == (5, 1)
    assert np.all(np.isfinite(x_hat))


def test_block_step_memory_stays_model_sized(rng):
    # one block of the stream (a run_stream call on BATCH columns with a
    # given model) allocates within a small multiple of m*r + r^2 + m*b
    m, r, n = 40, 10, 1500
    b = online.BATCH
    model = OnlineModel(rng.standard_normal((m, r)))
    spec = KernelSpec.rbf(3.0)
    hp = OnlineHyperparams(r=r, alpha=0.1, beta=1e-3, eta=0.5, n_iter=5,
                           seed=0)
    budget_bytes = 100 * (m * r + r * r + m * b) * 8
    assert budget_bytes < n * m * 8
    peak_inside = 0
    tracemalloc.start()
    try:
        for _ in range(n // b):
            block = []
            for _ in range(b):
                x = rng.standard_normal(m)
                obs = rng.choice(m, size=25, replace=False)
                xs = np.full(m, np.nan)
                xs[obs] = x[obs]
                block.append((xs, obs))
            tracemalloc.reset_peak()
            run_stream(block, spec, hp, model=model)
            _, peak = tracemalloc.get_traced_memory()
            peak_inside = max(peak_inside, peak)
    finally:
        tracemalloc.stop()
    assert model.samples_seen == n - n % b
    assert peak_inside <= budget_bytes


def test_sample_length_mismatch(rng):
    D = rng.standard_normal((4, 2))
    with pytest.raises(ValueError):
        complete_new(D, [(np.zeros(5), np.arange(5))], KernelSpec.rbf(1.0),
                     0.1)


@pytest.mark.parametrize("bad", [-1, 4])
def test_out_of_range_observed_index_rejected(bad):
    # a negative index used to alias entry m-1; an index >= m raised IndexError
    D = np.random.default_rng(0).standard_normal((4, 3))
    x = np.array([1.0, np.nan, np.nan, 2.0])
    spec = KernelSpec.rbf(1.0)
    with pytest.raises(ValueError, match="observed indices"):
        complete_new(D, [(x, [0, bad])], spec, beta=0.1)
    with pytest.raises(ValueError, match="observed indices"):
        run_stream([(x, [0, bad])], spec, OnlineHyperparams(r=3))


def test_run_stream_totals_each_sample_inner_loop(monkeypatch):
    blocks = []
    real = online._complete_block

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        blocks.append(result[3:5])  # each column's converged, iterations
        return result

    monkeypatch.setattr(online, "_complete_block", recorded)
    X_true, mask, samples = _stream_instance(n=40)
    hp = OnlineHyperparams(r=20, beta=1e-3, eta=0.0, n_iter=8, n_pass=2,
                           tol=1e-3, seed=0)
    _, model = run_stream(samples, KernelSpec.rbf(2.5), hp)
    converged, iterations = (np.concatenate(a) for a in zip(*blocks))
    assert converged.size == model.samples_seen == 80
    assert model.inner_iterations == iterations.sum()
    assert model.samples_hit_iter_limit == np.count_nonzero(~converged)
    # the run mixes samples that stop early with samples that hit the cap
    assert 0 < model.samples_hit_iter_limit < 80


def test_run_stream_rejects_empty_stream():
    with pytest.raises(ValueError, match="empty sample stream"):
        run_stream([], KernelSpec.rbf(1.0), OnlineHyperparams(r=3))


@pytest.mark.parametrize("bad_sample,message", [
    ((np.array([1.0, np.inf, np.nan, 2.0]), [0, 1, 3]),
     "observed entries must be finite"),
    ((np.array([1.0, np.nan, np.nan, 2.0]), [0, 4]), "observed indices"),
    ((np.ones(5), np.arange(5)), "sample length"),
], ids=["inf-observed", "index-out-of-range", "wrong-length"])
def test_bad_later_sample_leaves_model_untouched(rng, bad_sample, message):
    # the whole stream is checked before the first dictionary update
    D = rng.standard_normal((4, 3))
    model = OnlineModel(D)
    good = (np.array([0.5, np.nan, -1.0, 2.0]), [0, 2, 3])
    with pytest.raises(ValueError, match=message):
        run_stream([good, good, bad_sample], KernelSpec.rbf(1.0),
                   OnlineHyperparams(r=3, n_iter=5, seed=0), model=model)
    assert model.samples_seen == 0
    assert np.array_equal(model.dictionary, D)
    assert not model.dict_momentum.any() and model.cost_trace == []


@pytest.mark.parametrize("shape", [(5, 10), (6, 4)], ids=["rows", "columns"])
def test_mis_shaped_ground_truth_leaves_model_untouched(rng, shape):
    # ground_truth is checked against the stream's (m, n) = (6, 10) up front
    D = rng.standard_normal((6, 3))
    model = OnlineModel(D)
    model.samples_seen = 7
    samples = []
    for _ in range(10):
        x = rng.standard_normal(6)
        x[[1, 4]] = np.nan
        samples.append((x, [0, 2, 3, 5]))
    with pytest.raises(ValueError, match="ground_truth shape"):
        run_stream(samples, KernelSpec.rbf(1.0),
                   OnlineHyperparams(r=3, n_iter=5, seed=0),
                   ground_truth=rng.standard_normal(shape), model=model)
    assert model.samples_seen == 7
    assert np.array_equal(model.dictionary, D)
    assert not model.dict_momentum.any() and model.cost_trace == []


def test_non_finite_ground_truth_leaves_model_untouched(rng):
    # a NaN in the truth would turn every later err_trace entry into NaN
    D = rng.standard_normal((6, 3))
    model = OnlineModel(D)
    samples = []
    for _ in range(10):
        x = rng.standard_normal(6)
        x[[1, 4]] = np.nan
        samples.append((x, [0, 2, 3, 5]))
    for bad in (np.nan, np.inf):
        truth = rng.standard_normal((6, 10))
        truth[1, 3] = bad
        with pytest.raises(ValueError, match="ground_truth must be finite"):
            run_stream(samples, KernelSpec.rbf(1.0),
                       OnlineHyperparams(r=3, n_iter=5, seed=0),
                       ground_truth=truth, model=model)
        assert model.samples_seen == 0
        assert np.array_equal(model.dictionary, D)
        assert not model.dict_momentum.any() and model.cost_trace == []


def _reference_stream(samples, spec, hp, truth):
    """The stream as one inner loop and one update_dictionary per column,
    with run_stream's running cost and error."""
    m = len(samples[0][0])
    model = OnlineModel(
        np.random.default_rng(hp.seed).standard_normal((m, hp.r)))
    work = np.array([x for x, _ in samples], dtype=float).T
    last = np.full(len(samples), np.nan)
    cost_sum, seen, err_sum, visits = 0.0, 0, 0.0, 0
    for _ in range(hp.n_pass):
        for j, (_, obs) in enumerate(samples):
            D = model.dictionary
            X0, missing = online._prepare_columns([(work[:, j], obs)], D)
            system = online._code_system(spec, D, hp.beta)
            X, Z, K, _, _, (objective,) = online._complete_block(
                spec, D, system, X0, missing, n_iter=hp.n_iter, tol=hp.tol,
                alpha=hp.alpha, beta=hp.beta)
            update_dictionary(model, X, Z, spec, hp, (K.T, system[0]))
            work[:, j] = X[:, 0]
            if np.isnan(last[j]):
                seen += 1
                cost_sum += objective
            else:
                cost_sum += objective - last[j]
            last[j] = objective
            model.cost_trace.append(cost_sum / seen)
            visits += 1
            err_sum += np.linalg.norm(truth[:, j] - work[:, j]) / max(
                np.linalg.norm(truth[:, j]), 1e-30)
            model.err_trace.append(err_sum / visits)
    return work, model


@pytest.mark.parametrize("spec", [KernelSpec.rbf(2.5),
                                  KernelSpec.poly(2, 1.0)],
                         ids=["rbf", "poly"])
@pytest.mark.parametrize("eta", [0.5, 0.0])
def test_blocks_of_one_column_are_the_per_sample_stream(monkeypatch, spec,
                                                        eta):
    X_true, _, samples = _stream_instance(n=30)
    samples[4] = (np.full(30, np.nan), np.array([], dtype=int))
    hp = OnlineHyperparams(r=12, beta=1e-3, eta=eta, n_iter=10, n_pass=2,
                           seed=3)
    monkeypatch.setattr(online, "BATCH", 1)
    out, model = run_stream(samples, spec, hp, ground_truth=X_true)
    ref_out, ref = _reference_stream(samples, spec, hp, X_true)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(model.dictionary, ref.dictionary)
    assert np.array_equal(model.dict_momentum, ref.dict_momentum)
    assert model.cost_trace == ref.cost_trace
    assert model.err_trace == ref.err_trace


def _recording_blocks(monkeypatch):
    calls = []
    real = online._complete_block

    def recorded(spec, D, system, X, missing, **kwargs):
        calls.append((D.copy(), X.copy()))
        return real(spec, D, system, X, missing, **kwargs)

    monkeypatch.setattr(online, "_complete_block", recorded)
    return calls


def test_last_block_of_an_odd_stream_has_one_column(monkeypatch):
    X_true, mask, samples = _stream_instance(n=7)
    calls = _recording_blocks(monkeypatch)
    hp = OnlineHyperparams(r=8, beta=1e-3, n_iter=10, n_pass=2, seed=0)
    out, model = run_stream(samples, KernelSpec.rbf(2.5), hp,
                            ground_truth=X_true)
    assert online.BATCH == 2
    assert [X.shape[1] for _, X in calls] == [2, 2, 2, 1] * 2
    assert model.samples_seen == len(model.cost_trace) == 14
    assert len(model.err_trace) == 14
    assert np.all(np.isfinite(out))
    assert np.array_equal(out[mask.observed], X_true[mask.observed])


def test_empty_column_inside_a_block_starts_from_its_first_visit(monkeypatch):
    X_true, _, samples = _stream_instance(n=9)
    samples[4] = (np.full(30, np.nan), np.array([], dtype=int))
    monkeypatch.setattr(online, "BATCH", 3)
    calls = _recording_blocks(monkeypatch)
    hp = OnlineHyperparams(r=8, beta=1e-3, n_iter=10, n_pass=2, seed=0)
    out, model = run_stream(samples, KernelSpec.rbf(2.5), hp)
    D0 = np.random.default_rng(0).standard_normal((30, 8))
    # the second block's dictionary has taken one step away from D0
    D, X = calls[1]
    assert not np.array_equal(D, D0)
    assert np.array_equal(X[:, 1], D.mean(axis=1))
    # its second visit starts from its first completion
    assert not np.array_equal(calls[4][1][:, 1], calls[4][0].mean(axis=1))
    assert np.all(np.isfinite(out))


def test_numerical_error_names_the_column_inside_a_block(monkeypatch):
    _, _, samples = _stream_instance(n=9)
    x, obs = samples[4]
    x = x.copy()
    x[obs] = 1e100
    samples[4] = (x, obs)
    monkeypatch.setattr(online, "BATCH", 3)
    hp = OnlineHyperparams(r=8, beta=1e-3, n_iter=10, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as err:
            run_stream(samples, KernelSpec.poly(4, 1.0), hp)
    assert err.value.sample_index == 4
    # the first block went through, the failed one counts nothing
    assert err.value.model is not None
    assert err.value.model.samples_seen == 3


def test_diverged_dictionary_names_the_first_column_of_its_block(monkeypatch):
    _, _, samples = _stream_instance(n=9)
    real = online.update_dictionary
    steps = []

    def diverging(*args, **kwargs):
        steps.append(args[1].shape[1])
        if len(steps) == 3:
            raise NumericalError("dictionary update diverged")
        return real(*args, **kwargs)

    monkeypatch.setattr(online, "update_dictionary", diverging)
    with pytest.raises(NumericalError, match="diverged") as err:
        run_stream(samples, KernelSpec.rbf(2.5),
                   OnlineHyperparams(r=8, beta=1e-3, n_iter=10, seed=0))
    assert steps == [2, 2, 2]
    assert err.value.sample_index == 4
    assert err.value.model.samples_seen == 4
