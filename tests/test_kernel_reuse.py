"""Kernel reuse: each solver state's kernels are evaluated once and shared.

The counts pin how many kernel matrices the solvers build; the equality
checks pin that a precomputed kernel gives the same bits as one evaluated
on the spot.
"""
import numpy as np
import pytest

from kfmc import (KernelSpec, Mask, OfflineHyperparams, OnlineHyperparams,
                  OnlineModel, SyntheticSpec, complete_sample, fit, generate,
                  impute_init, random_mask)
from kfmc import offline, online
from kfmc.kernels import kernel_matrix
from kfmc.offline import (completion_step, dictionary_step, objective,
                          solve_codes)
from kfmc.online import sample_objective


@pytest.fixture
def count_kernels(monkeypatch):
    """Count kernel_matrix calls made from the offline and online modules."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel_matrix(*args, **kwargs)

    monkeypatch.setattr(offline, "kernel_matrix", counted)
    monkeypatch.setattr(online, "kernel_matrix", counted)
    return calls


@pytest.fixture
def count_objectives(monkeypatch):
    calls = []
    real = online.sample_objective

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(online, "sample_objective", counted)
    return calls


def _problem(seed=3):
    X, _ = generate(SyntheticSpec(d=2, p=3, u=2, m=12, n_per=20, seed=seed))
    return impute_init(X, random_mask(12, 40, 0.3, seed=seed + 1))


def _fit_counting(count_kernels, mm, eta, spec=KernelSpec.rbf(2.0)):
    """Kernels built per sweep by fit on mm (from runs of 1 and 6 sweeps),
    less the 2 of each guarded back-off, and the 6-sweep model."""
    counts = {}
    for t_max in (1, 6):
        count_kernels.clear()
        hp = OfflineHyperparams(r=8, eta=eta, t_max=t_max, tol=0.0)
        model = fit(mm, spec, hp)
        assert model.iterations == t_max
        counts[t_max] = len(count_kernels) - 2 * model.backoffs
    return (counts[6] - counts[1]) / 5, model


def _full(mm):
    """The data of mm with every entry observed."""
    return impute_init(mm.completion, Mask.full(*mm.shape))


@pytest.mark.parametrize("partial_mask", [True, False])
def test_momentum_fit_builds_at_most_three_kernels_per_sweep(
        count_kernels, partial_mask):
    mm = _problem() if partial_mask else _full(_problem())
    per_sweep, model = _fit_counting(count_kernels, mm, eta=0.5)
    # a full mask skips the completion update and its kernel
    assert per_sweep <= (3 if partial_mask else 2)
    if not partial_mask:
        assert np.array_equal(model.completed, mm.completion)


@pytest.mark.parametrize("partial_mask", [True, False])
def test_guarded_fit_builds_at_most_six_kernels_per_sweep(
        count_kernels, partial_mask):
    # as many as with momentum, plus 2 for a back-off (at most one per
    # sweep); a full mask has no completion step
    mm = _problem() if partial_mask else _full(_problem())
    per_sweep, model = _fit_counting(count_kernels, mm, eta=0.0)
    assert per_sweep <= (3 if partial_mask else 2)
    if not partial_mask:
        assert np.array_equal(model.completed, mm.completion)


@pytest.mark.parametrize("eta", [0.5, 0.0], ids=["momentum", "guarded"])
def test_poly_fit_builds_two_kernels_per_sweep(count_kernels, eta):
    # the poly completion step reads no kernel, so a sweep builds the new
    # dictionary's K_DD and its end point's K_XD, plus 2 for a back-off
    per_sweep, _ = _fit_counting(count_kernels, _problem(), eta,
                                 KernelSpec.poly(3, 0.5))
    assert per_sweep == 2


def test_guarded_sample_builds_at_most_two_kernels_per_iteration(
        count_kernels, count_objectives):
    rng = np.random.default_rng(5)
    m, r = 10, 6
    D = rng.standard_normal((m, r))
    x = rng.standard_normal(m)
    obs = np.arange(0, m, 2)
    x[1::2] = np.nan
    hp = OnlineHyperparams(r=r, eta=0.0, n_iter=20, tol=0.0)
    _, _, info = complete_sample(OnlineModel(D), x, obs, KernelSpec.rbf(2.0), hp)
    assert info.iterations >= 3
    # the guard compares x parts; the terminal objective is the only one
    assert len(count_objectives) == 1
    assert 0 <= info.retries <= info.iterations
    # one kernel per iteration and one per retry, plus K_DD and the start's
    assert (len(count_kernels) - info.retries) / info.iterations <= 2


@pytest.mark.parametrize("spec", [KernelSpec.rbf(1.7), KernelSpec.poly(3, 0.5)])
def test_precomputed_kernels_give_identical_bits(spec):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((5, 9))
    D = rng.standard_normal((5, 4))
    kernels = (kernel_matrix(spec, X, D), kernel_matrix(spec, D, D))
    Z = solve_codes(spec, X, D, 0.1)
    assert np.array_equal(Z, solve_codes(spec, X, D, 0.1, kernels))
    assert objective(spec, X, D, Z, 0.2, 0.1) == \
        objective(spec, X, D, Z, 0.2, 0.1, kernels)

    x, z = X[:, 0], Z[:, 0]
    k_xD = kernel_matrix(spec, x[:, None], D)[0]
    assert sample_objective(spec, x, z, D, 0.2, 0.1) == \
        sample_objective(spec, x, z, D, 0.2, 0.1, k_xD, kernels[1])


# a poly guarded fit whose back-off fires (once, at tau near 1)
BACKOFF = dict(r=16, alpha=0.1, beta=0.1, eta=0.0, tau=1.0001, t_max=30,
               tol=0.0, seed=6)


def test_guarded_fit_computes_one_step_per_sweep(monkeypatch):
    # a back-off halves the sweep's moves, it does not solve again
    calls = {"dictionary_step": 0, "completion_step": 0, "objective": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(offline, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(offline, name, counted)
    model = fit(_problem(6), KernelSpec.poly(3, 0.5),
                OfflineHyperparams(**BACKOFF))
    assert model.iterations == 30
    assert model.backoffs >= 1
    # one objective per sweep's end point, one of the start, one per back-off
    assert calls["objective"] == model.iterations + 1 + model.backoffs
    assert calls["dictionary_step"] == model.iterations
    assert calls["completion_step"] == model.iterations


def test_guarded_fit_backoff_halves_both_moves_of_its_sweep():
    mm, spec = _problem(6), KernelSpec.poly(3, 0.5)
    obs = mm.mask.observed
    model = fit(mm, spec, OfflineHyperparams(**BACKOFF))
    assert model.backoffs >= 1
    trace = model.objective_trace
    assert np.all(np.diff(trace) <= 0)
    assert trace[-1] == objective(spec, model.completed, model.dictionary,
                                  model.codes, BACKOFF["alpha"],
                                  BACKOFF["beta"])
    # the first sweep that backs off, replayed from the sweep before it
    def run(t_max):
        return fit(mm, spec, OfflineHyperparams(**{**BACKOFF, "t_max": t_max}))

    k = next(t for t in range(1, 31) if run(t).backoffs)
    before, after = run(k - 1), run(k)
    X, D = before.completed, before.dictionary
    alpha, beta, tau = BACKOFF["alpha"], BACKOFF["beta"], BACKOFF["tau"]
    Z = solve_codes(spec, X, D, beta)
    step_D = dictionary_step(spec, X, D, Z, alpha, tau)
    step_X = completion_step(spec, X, D - step_D, Z, tau)
    assert objective(spec, np.where(obs, X, X - step_X), D - step_D, Z,
                     alpha, beta) > before.objective_trace[-1]
    assert np.array_equal(after.dictionary, D - 0.5 * step_D)
    assert np.array_equal(after.completed, np.where(obs, X, X - 0.5 * step_X))
    assert np.array_equal(after.codes, Z)
