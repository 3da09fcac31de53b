"""The inner loop's objective and steps, and its column-wise bits.

The per-column objective (:func:`kfmc.offline._column_objective`) adds its
terms in one order, and :func:`sample_objective` must give the same bits
with or without the kernels it is handed.  The inner loop evaluates it
once, for the terminal objective.  A block of columns that take long steps
must still give each column the bits it gets alone.
"""
import numpy as np
import pytest

from kfmc import (KernelSpec, OnlineHyperparams, OnlineModel, complete_new,
                  complete_sample)
from kfmc import online
from kfmc.kernels import kernel_diag, kernel_matrix
from kfmc.offline import _column_objective
from kfmc.online import _dictionary_reg, sample_objective

SPECS = [KernelSpec.rbf(1.7), KernelSpec.poly(3, 0.5)]
ALPHA, BETA = 0.2, 0.1


def _reference_objective(spec, X, Z, D, alpha, beta):
    """The per-sample objective of blocks (m, b), summed in the solver's
    order: k(x, x), -k'z, z'K_DD z, the dictionary term, the code ridge."""
    K, K_DD = kernel_matrix(spec, D, X), kernel_matrix(spec, D, D)
    fit_term = (0.5 * kernel_diag(spec, X) - (K * Z).sum(axis=0)
                + 0.5 * (Z * (K_DD @ Z)).sum(axis=0))
    reg_d = float(kernel_diag(spec, D).sum()) if spec.is_poly else D.shape[1]
    return fit_term + 0.5 * alpha * reg_d + 0.5 * beta * (Z * Z).sum(axis=0)


@pytest.mark.parametrize("spec", SPECS, ids=["rbf", "poly"])
@pytest.mark.parametrize("width", [None, 1, 6])
def test_objective_with_shared_terms_gives_identical_bits(spec, width):
    rng = np.random.default_rng(11)
    D = rng.standard_normal((5, 4))
    X = rng.standard_normal((5, width or 1))
    K_DD = kernel_matrix(spec, D, D)
    Z = rng.standard_normal((4, X.shape[1]))
    K = kernel_matrix(spec, D, X)
    columns = _column_objective(spec, X, Z, K, K_DD, ALPHA, BETA,
                                _dictionary_reg(spec, D))
    if width is None:  # one column: 1-d x, z and k(D, x)
        X, Z, K = X[:, 0], Z[:, 0], K[:, 0]
    reference = sample_objective(spec, X, Z, D, ALPHA, BETA)
    expected = _reference_objective(spec, X.reshape(5, -1), Z.reshape(4, -1),
                                    D, ALPHA, BETA)
    assert np.array_equal(reference, expected if width else expected[0])
    assert np.array_equal(columns, expected)
    for k_xD, K_DD_arg in ((None, None), (K, K_DD), (K, None)):
        given = sample_objective(spec, X, Z, D, ALPHA, BETA, k_xD, K_DD_arg)
        assert np.array_equal(given, reference)
    if width is None:
        assert isinstance(reference, float)


@pytest.mark.parametrize("spec", SPECS, ids=["rbf", "poly"])
def test_guarded_sample_evaluates_code_terms_once_per_code_solve(
        monkeypatch, spec):
    calls = []

    def counted(*args):
        calls.append(1)
        return _column_objective(*args)

    monkeypatch.setattr(online, "_column_objective", counted)
    rng = np.random.default_rng(5)
    D = rng.standard_normal((10, 6))
    x = rng.standard_normal(10)
    x[1::2] = np.nan
    hp = OnlineHyperparams(r=6, eta=0.0, beta=BETA, n_iter=20, tol=0.0)
    _, _, info = complete_sample(OnlineModel(D), x, np.arange(0, 10, 2),
                                 spec, hp)
    assert info.iterations >= 3
    # the terminal objective is the one code solve whose objective is
    # evaluated
    assert len(calls) == 1


@pytest.mark.parametrize("width", [1, 8])
def test_rbf_step_equals_the_signed_formula_bitwise(width):
    rng = np.random.default_rng(3)
    spec = KernelSpec.rbf(1.7)
    D = rng.standard_normal((7, 5))
    X = rng.standard_normal((7, width))
    Z = rng.standard_normal((5, width))
    K = kernel_matrix(spec, D, X)
    qv = -(Z * K)
    gamma = qv.sum(axis=0)
    expected = (D @ qv - gamma * X) / (1.7 * np.maximum(np.abs(gamma), 1e-12))
    assert np.array_equal(online._sample_step(spec, X, Z, D, K, 1.7), expected)


def _long_step_samples(seed):
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((9, 5))
    samples = []
    for _ in range(5):
        x = 2.0 * rng.standard_normal(9)
        obs = np.sort(rng.choice(9, 5, replace=False))
        xs = np.full(9, np.nan)
        xs[obs] = x[obs]
        samples.append((xs, obs))
    return D, samples


@pytest.mark.parametrize("spec, seed", [(KernelSpec.rbf(2.0), 1),
                                        (KernelSpec.poly(3, 0.5), 4)],
                         ids=["rbf", "poly"])
def test_long_step_block_without_momentum_matches_single_columns(spec, seed):
    D, samples = _long_step_samples(seed)
    # tau near 1 takes long steps, some of which raise a column's objective
    run = dict(n_iter=12, eta=0.0, tau=1.05, tol=0.0, return_info=True)
    bulk, infos = complete_new(D, samples, spec, 1e-3, **run)
    for j, sample in enumerate(samples):
        solo, solo_infos = complete_new(D, [sample], spec, 1e-3, **run)
        assert np.array_equal(solo[:, 0], bulk[:, j])
        assert solo_infos[0] == infos[j]
    rev, rev_infos = complete_new(D, samples[::-1], spec, 1e-3, **run)
    assert np.array_equal(rev[:, ::-1], bulk)
    assert rev_infos[::-1] == infos
