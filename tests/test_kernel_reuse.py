"""Kernel reuse: each solver state's kernels are evaluated once and shared.

The counts pin how many kernel matrices the solvers build; the equality
checks pin that a precomputed kernel gives the same bits as one evaluated
on the spot.
"""
import numpy as np
import pytest

from kfmc import (KernelSpec, Mask, OfflineHyperparams, SyntheticSpec,
                  complete_new, fit, generate, impute_init, random_mask)
from kfmc import offline, online, ose
from kfmc.kernels import kernel_matrix
from kfmc.offline import objective, solve_codes


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
    real = online._column_objective

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(online, "_column_objective", counted)
    return calls


def _problem(seed=3):
    X, _ = generate(SyntheticSpec(d=2, p=3, u=2, m=12, n_per=20, seed=seed))
    return impute_init(X, random_mask(12, 40, 0.3, seed=seed + 1))


def _fit_counting(count_kernels, mm, eta, spec=KernelSpec.rbf(2.0)):
    """Kernels built per sweep by fit on mm (from runs of 1 and 6 sweeps),
    and the 6-sweep model."""
    counts = {}
    for t_max in (1, 6):
        count_kernels.clear()
        hp = OfflineHyperparams(r=8, eta=eta, t_max=t_max, tol=0.0)
        model = fit(mm, spec, hp)
        assert model.iterations == t_max
        counts[t_max] = len(count_kernels)
    return (counts[6] - counts[1]) / 5, model


def _full(mm):
    """The data of mm with every entry observed."""
    return impute_init(mm.completion, Mask.full(*mm.shape))


# an eta = 0 sweep builds what a momentum sweep builds
@pytest.mark.parametrize("eta, partial_mask",
                         [(0.5, True), (0.5, False), (0.0, True), (0.0, False)],
                         ids=["True", "False", "eta0-True", "eta0-False"])
def test_momentum_fit_builds_at_most_three_kernels_per_sweep(
        count_kernels, eta, partial_mask):
    mm = _problem() if partial_mask else _full(_problem())
    per_sweep, model = _fit_counting(count_kernels, mm, eta)
    # a full mask skips the completion update and its kernel
    assert per_sweep <= (3 if partial_mask else 2)
    if not partial_mask:
        assert np.array_equal(model.completed, mm.completion)


@pytest.mark.parametrize("eta", [0.5, 0.0], ids=["momentum", "guarded"])
def test_poly_fit_builds_two_kernels_per_sweep(count_kernels, eta):
    # the poly completion step reads no kernel, so a sweep builds the new
    # dictionary's K_DD and its end point's K_XD
    per_sweep, _ = _fit_counting(count_kernels, _problem(), eta,
                                 KernelSpec.poly(3, 0.5))
    assert per_sweep == 2


def test_guarded_sample_builds_at_most_two_kernels_per_iteration(
        monkeypatch, count_kernels, count_objectives):
    rng = np.random.default_rng(5)
    m, r = 10, 6
    D = rng.standard_normal((m, r))
    x = rng.standard_normal(m)
    obs = np.arange(0, m, 2)
    x[1::2] = np.nan
    # an empty cache: the call builds its own K_DD
    monkeypatch.setattr(ose, "_frozen", None)
    _, (info,) = complete_new(D, [(x, obs)], KernelSpec.rbf(2.0), 0.1,
                              n_iter=20, tol=0.0, return_info=True)
    assert info.iterations >= 3
    # the terminal objective is the only one
    assert len(count_objectives) == 1
    # one kernel per iteration, plus K_DD and the start's
    assert len(count_kernels) == info.iterations + 2


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

    x, z = X[:, [0]], Z[:, [0]]
    k_xD = kernel_matrix(spec, x, D)
    assert objective(spec, x, D, z, 0.2, 0.1) == \
        objective(spec, x, D, z, 0.2, 0.1, (k_xD, kernels[1]))
