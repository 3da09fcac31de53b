"""The inner loop's objective and steps, and its column-wise bits.

The per-column objective (:func:`kfmc.offline._column_objective`) adds its
terms in one order, and a column's value must not depend on the block
layout it is evaluated in.  The inner loop evaluates it once, for the
terminal objective.  A block of columns that take long steps
must still give each column the bits it gets alone.  The Anderson mixing of
the steps must survive degenerate histories, and take about half the
iterations heavy-ball momentum took; full steps take a fifth fewer than
steps relaxed by tau = 2.
"""
import functools
import warnings

import numpy as np
import pytest

from kfmc import (KernelSpec, NumericalError, OfflineHyperparams,
                  complete_new, mean_pairwise_distance, train_dictionary)
from kfmc import online
from kfmc.kernels import kernel_diag, kernel_matrix
from kfmc.offline import _column_objective, _dictionary_reg
from kfmc.ose import BLOCK
from kfmc.synth import SyntheticSpec, generate, random_mask

SPECS = [KernelSpec.rbf(1.7), KernelSpec.poly(3, 0.5)]
ALPHA, BETA = 0.2, 0.1


def _reference_objective(spec, X, Z, D, alpha, beta, width):
    """The per-column objective of X (m, n), summed in the solver's order:
    k(x, x), -k'z, z'K_DD z, the dictionary term, the code ridge; K_DD z
    as one product per ``width`` columns."""
    K, K_DD = kernel_matrix(spec, D, X), kernel_matrix(spec, D, D)
    KZ = np.hstack([K_DD @ np.ascontiguousarray(Z[:, j:j + width])
                    for j in range(0, Z.shape[1], width)])
    fit_term = (0.5 * kernel_diag(spec, X) - (K * Z).sum(axis=0)
                + 0.5 * (Z * KZ).sum(axis=0))
    reg_d = float(kernel_diag(spec, D).sum()) if spec.is_poly else D.shape[1]
    return fit_term + 0.5 * alpha * reg_d + 0.5 * beta * (Z * Z).sum(axis=0)


@pytest.mark.parametrize("spec", SPECS, ids=["rbf", "poly"])
@pytest.mark.parametrize("width", [None, 1, 6])
def test_objective_with_shared_terms_gives_identical_bits(spec, width):
    # six columns, in one product (None) or in blocks of ``width`` columns
    rng = np.random.default_rng(11)
    D = rng.standard_normal((5, 4))
    X = rng.standard_normal((5, 6))
    Z = rng.standard_normal((4, 6))
    columns = _column_objective(spec, X, Z, kernel_matrix(spec, D, X),
                                kernel_matrix(spec, D, D), ALPHA, BETA,
                                _dictionary_reg(spec, D), width)
    expected = _reference_objective(spec, X, Z, D, ALPHA, BETA, width or 6)
    assert np.array_equal(columns, expected)


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
    _, (info,) = complete_new(D, [(x, np.arange(0, 10, 2))], spec, BETA,
                              n_iter=20, tol=0.0, return_info=True)
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
    # full steps, some of which raise a column's objective
    run = dict(n_iter=12, tol=0.0, return_info=True)
    bulk, infos = complete_new(D, samples, spec, 1e-3, **run)
    for j, sample in enumerate(samples):
        solo, solo_infos = complete_new(D, [sample], spec, 1e-3, **run)
        assert np.array_equal(solo[:, 0], bulk[:, j])
        assert solo_infos[0] == infos[j]
    rev, rev_infos = complete_new(D, samples[::-1], spec, 1e-3, **run)
    assert np.array_equal(rev[:, ::-1], bulk)
    assert rev_infos[::-1] == infos


# Anderson mixing solves one small system per column from the differences
# of its last steps.  A column whose differences are degenerate must still
# give finite output without a RuntimeWarning, and keep its observed bits.

def _degenerate(kind):
    """A small dictionary and one column of ``kind``."""
    rng = np.random.default_rng(21)
    D = rng.standard_normal((7, 5))
    x = rng.standard_normal(7)
    obs = {"one-missing": np.arange(6), "nothing-observed": np.arange(0),
           "far": np.arange(4)}[kind]
    xs = np.full(7, np.nan)
    xs[obs] = x[obs]
    if kind == "far":
        # so far from every atom that k(D, x) underflows to zero: the step
        # is exactly zero, and so are all differences and the Gram matrix
        xs[4:] = 1e3
    return D, xs, obs


@pytest.mark.parametrize("kind, spec", [
    ("one-missing", SPECS[0]), ("one-missing", SPECS[1]),
    ("nothing-observed", SPECS[0]), ("nothing-observed", SPECS[1]),
    ("far", SPECS[0])],
    ids=["one-missing-rbf", "one-missing-poly", "nothing-observed-rbf",
         "nothing-observed-poly", "far-rbf"])
def test_degenerate_histories_give_finite_output(kind, spec):
    # tol = 0: every iteration after the first mixes
    D, xs, obs = _degenerate(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, (info,) = complete_new(D, [(xs, obs)], spec, BETA, n_iter=15,
                                    tol=0.0, return_info=True)
    assert np.all(np.isfinite(out))
    assert np.array_equal(out[obs, 0], xs[obs])
    assert info.iterations == 15 and np.isfinite(info.objective)
    if kind == "far":
        assert np.array_equal(out[:, 0], xs)


@pytest.mark.parametrize("spec", SPECS, ids=["rbf", "poly"])
def test_column_warm_started_at_its_fixed_point_stays_there(spec):
    D, _, _ = _degenerate("one-missing")
    xs = np.random.default_rng(22).standard_normal(7)
    xs[4:] = np.nan
    obs = np.arange(4)
    fixed = complete_new(D, [(xs, obs)], spec, BETA, n_iter=200, tol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        again, (info,) = complete_new(D, [(fixed[:, 0], obs)], spec, BETA,
                                      n_iter=10, tol=0.0, return_info=True)
    # its steps, and so the differences of steps and iterates, vanish
    assert np.allclose(again, fixed, rtol=1e-12, atol=1e-14)
    assert np.array_equal(again[obs, 0], xs[obs])
    assert info.iterations == 10 and np.isfinite(info.objective)


@pytest.mark.parametrize("spec", SPECS, ids=["rbf", "poly"])
def test_column_meeting_tol_on_its_last_iteration_did_not_hit_the_cap(spec):
    rng = np.random.default_rng(31)
    D = rng.standard_normal((9, 5))
    samples = []
    for _ in range(12):
        x = rng.standard_normal(9)
        obs = np.sort(rng.choice(9, 5, replace=False))
        samples.append((np.where(np.isin(np.arange(9), obs), x, np.nan), obs))
    _, infos = complete_new(D, samples, spec, BETA, return_info=True)
    assert all(info.converged for info in infos)
    # the column that stops first stops by tol on iteration k; with
    # n_iter = k it still does, and only the columns that need more are cut
    iterations = [info.iterations for info in infos]
    j = int(np.argmin(iterations))
    _, capped = complete_new(D, samples, spec, BETA, n_iter=iterations[j],
                             return_info=True)
    assert capped[j] == infos[j]
    assert capped[j].converged and not capped[j].hit_iter_limit
    hits = sum(info.hit_iter_limit for info in capped)
    assert 0 < hits == sum(not info.converged for info in capped)


def test_numerical_error_names_its_column_in_a_stacked_call():
    # three blocks side by side; the failing column sits in the middle one
    spec = KernelSpec.poly(4, 1.0)
    rng = np.random.default_rng(23)
    D = rng.standard_normal((9, 5))
    samples = []
    for j in range(3 * BLOCK):
        x = rng.standard_normal(9)
        obs = np.sort(rng.choice(9, 6, replace=False))
        if j == BLOCK + 5:
            x[obs] = 1e100
        xs = np.full(9, np.nan)
        xs[obs] = x[obs]
        samples.append((xs, obs))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as err:
            complete_new(D, samples, spec, BETA, n_iter=12)
    assert err.value.sample_index == BLOCK + 5


@functools.cache
def _held_out_case():
    """Like the benchmark's out-of-sample cases: a union of three cubic
    subspaces (d = p = 3) in m = 30, an RBF dictionary of r = 60 atoms
    trained on 300 columns, and 150 held-out columns with 30% of their
    entries missing."""
    X, _ = generate(SyntheticSpec(d=3, p=3, u=3, m=30, n_per=150, seed=7))
    perm = np.random.default_rng(7).permutation(X.shape[1])
    train, held = X[:, perm[:300]], X[:, perm[300:]]
    spec = KernelSpec.rbf(mean_pairwise_distance(train, seed=7))
    D = train_dictionary(train, spec, OfflineHyperparams(r=60, beta=1e-4,
                                                         t_max=200, seed=7))
    observed = random_mask(30, held.shape[1], 0.3, seed=7).observed
    return D, spec, [(np.where(observed[:, j], held[:, j], np.nan),
                      np.flatnonzero(observed[:, j]))
                     for j in range(held.shape[1])]


@functools.cache
def _held_out_runs():
    """The held-out columns completed at the defaults, with their infos, and
    to tol = 1e-12."""
    D, spec, samples = _held_out_case()
    out, infos = complete_new(D, samples, spec, 1e-4, return_info=True)
    reference = complete_new(D, samples, spec, 1e-4, n_iter=500, tol=1e-12)
    return out, infos, reference


def test_mixing_halves_the_inner_iterations():
    # heavy-ball momentum took 18.9 iterations per column here, and 1 of the
    # 150 columns hit n_iter; Anderson mixing takes 8.4 and none does
    out, infos, reference = _held_out_runs()
    assert np.mean([info.iterations for info in infos]) <= 10
    assert np.linalg.norm(out - reference) <= 1e-3 * np.linalg.norm(reference)


def test_full_steps_cut_the_inner_iterations_by_a_fifth():
    # steps relaxed by tau = 2 took 8.43 iterations per column here and
    # ended 3.4e-4 from the tol = 1e-12 run; full steps take 6.73 and end
    # 6.4e-5 from it
    out, infos, reference = _held_out_runs()
    assert np.mean([info.iterations for info in infos]) <= 7.5
    assert np.linalg.norm(out - reference) <= 2e-4 * np.linalg.norm(reference)


def test_complete_new_has_no_relaxation():
    D, xs, obs = _degenerate("one-missing")
    with pytest.raises(TypeError, match="tau"):
        complete_new(D, [(xs, obs)], SPECS[0], BETA, tau=2.0)
