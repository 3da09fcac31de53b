"""Properties of the shipped solvers on small drawn problems.

``fit``, ``run_stream`` and ``complete_new`` run on small drawn problems
(shapes, masks and values), with both kernels, with and without momentum;
every observed entry must come back with the same bits.
Stopping by ``tol`` only cuts the run short: a ``fit`` that stops by
``tol`` has the bits of the run that spends a budget of exactly its sweeps,
and so has each column of ``complete_new`` with a budget of exactly its
inner iterations.  ``complete_new`` at any relaxation gives each column
the same bits and :class:`SampleInfo` in any column order.
A missing entry given as NaN starts at the dictionary's mean column, so it
gives the bits of that column given as a warm start, in ``complete_new`` and
in the first block of ``run_stream``, and a column's output does not depend
on the order of its indices.  A bulk call whose blocks stop at different iterations gives each
column the bits of a single request, in either column order.
The kernel matrix of drawn points with themselves is exactly symmetric and
positive semidefinite up to rounding.
"""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kfmc import (KernelSpec, Mask, OfflineHyperparams, OnlineHyperparams,
                  OnlineModel, complete_new, fit, impute_init, run_stream)
from kfmc.kernels import kernel_matrix
from kfmc.online import BATCH, _prepare_columns
from kfmc.ose import BLOCK

SPECS = [KernelSpec.rbf(2.0), KernelSpec.poly(2, 1.0)]
LONG_STEP_SPECS = [KernelSpec.rbf(2.0), KernelSpec.poly(3, 0.5)]
SETTINGS = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)


@st.composite
def problems(draw):
    """A data matrix (m, n), a mask with at least one observed entry, a
    kernel and a momentum weight (0 for none)."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 7))
    values = draw(arrays(np.float64, (m, n),
                         elements=st.floats(-3.0, 3.0, allow_nan=False)))
    observed = draw(arrays(np.bool_, (m, n)))
    observed.flat[draw(st.integers(0, m * n - 1))] = True
    return (values, observed, draw(st.sampled_from(SPECS)),
            draw(st.sampled_from([0.0, 0.5])))


def _samples(values, observed):
    return [(np.where(observed[:, j], values[:, j], np.nan),
             np.flatnonzero(observed[:, j])) for j in range(values.shape[1])]


@SETTINGS
@given(problems())
def test_fit_keeps_observed_entries(problem):
    values, observed, spec, eta = problem
    mm = impute_init(np.where(observed, values, np.nan), Mask(observed))
    hp = OfflineHyperparams(r=3, beta=0.1, eta=eta, t_max=5, tol=0.0, seed=0)
    model = fit(mm, spec, hp)
    assert np.array_equal(model.completed[observed], values[observed])


@SETTINGS
@given(problems())
def test_run_stream_keeps_observed_entries(problem):
    values, observed, spec, eta = problem
    hp = OnlineHyperparams(r=3, beta=0.1, eta=eta, n_iter=5, n_pass=2,
                           seed=0)
    work, _ = run_stream(_samples(values, observed), spec, hp)
    assert np.array_equal(work[observed], values[observed])


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_complete_new_keeps_observed_entries(problem, seed):
    values, observed, spec, _ = problem
    D = np.random.default_rng(seed).standard_normal((values.shape[0], 3))
    out = complete_new(D, _samples(values, observed), spec, 0.1, n_iter=5)
    assert np.array_equal(out[observed], values[observed])


@SETTINGS
@given(problems())
def test_fit_stopping_by_tol_only_cuts_the_run_short(problem):
    values, observed, spec, eta = problem
    mm = impute_init(np.where(observed, values, np.nan), Mask(observed))
    hp = OfflineHyperparams(r=3, beta=0.1, eta=eta, t_max=60, tol=1e-2,
                            seed=0)
    model = fit(mm, spec, hp)
    budget = fit(mm, spec, replace(hp, t_max=model.iterations, tol=0.0))
    assert budget.iterations == model.iterations
    for name in ("completed", "dictionary", "codes", "objective_trace"):
        assert np.array_equal(getattr(model, name), getattr(budget, name),
                              equal_nan=True), name


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_complete_new_stopping_by_tol_only_cuts_the_run_short(problem, seed):
    values, observed, spec, _ = problem
    D = np.random.default_rng(seed).standard_normal((values.shape[0], 3))
    samples = _samples(values, observed)
    out, infos = complete_new(D, samples, spec, 0.1, n_iter=60, tol=1e-2,
                              return_info=True)
    for j, info in enumerate(infos):
        # a column with nothing missing runs no iteration and never moves
        alone, (budget,) = complete_new(
            D, samples[j:j + 1], spec, 0.1, n_iter=max(info.iterations, 1),
            tol=0.0, return_info=True)
        assert np.array_equal(out[:, j], alone[:, 0]), j
        assert budget.iterations == info.iterations
        assert budget.objective == info.objective


@SETTINGS
@given(st.integers(4, 9), st.integers(1, 12),
       st.sampled_from(LONG_STEP_SPECS), st.integers(0, 2**32 - 1))
def test_guarded_complete_new_is_column_wise_in_any_order(m, n, spec, seed):
    # full steps and tol = 0: every column with a missing entry runs all 12
    # iterations
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, 5))
    values = 2.0 * rng.standard_normal((m, n))
    observed = rng.random((m, n)) < 0.6
    samples = _samples(values, observed)
    run = dict(n_iter=12, tol=0.0, return_info=True)
    out, infos = complete_new(D, samples, spec, 1e-3, **run)
    assert np.array_equal(out[observed], values[observed])
    perm = rng.permutation(n)
    out_p, infos_p = complete_new(D, [samples[j] for j in perm], spec, 1e-3,
                                  **run)
    assert np.array_equal(out_p, out[:, perm])
    assert infos_p == [infos[j] for j in perm]


@st.composite
def shuffled_columns(draw):
    """Columns (m, n) of values at mixed scales, each with a drawn set of
    observed rows (none to all) listed in a drawn order."""
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 6))
    scale = 10.0 ** draw(arrays(np.int64, (m, n), elements=st.integers(-6, 6)))
    values = scale * draw(arrays(np.float64, (m, n), elements=st.floats(
        -1.0, 1.0, allow_nan=False)))
    samples = []
    for j in range(n):
        idx = np.array(draw(st.permutations(range(m)))[:draw(
            st.integers(0, m))], dtype=int)
        x = np.full(m, np.nan)
        x[idx] = values[idx, j]
        samples.append((x, idx))
    return samples


@SETTINGS
@given(shuffled_columns())
def test_prepare_columns_passes_every_value_as_given(samples):
    m = samples[0][0].size
    X0, missing = _prepare_columns(samples, np.zeros((m, 2)))
    for j, (x, idx) in enumerate(samples):
        assert np.array_equal(missing[:, j], ~np.isin(np.arange(m), idx)), j
        assert np.array_equal(X0[:, j], x, equal_nan=True), j


def _warmed(samples, D):
    """The samples with D's mean column written at their NaN entries."""
    mean = D.mean(axis=1)
    return [(np.where(np.isnan(x), mean, x), idx) for x, idx in samples]


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_a_nan_start_is_the_mean_column_as_a_warm_start(problem, seed):
    values, observed, spec, eta = problem
    samples = _samples(values, observed)
    D = np.random.default_rng(seed).standard_normal((values.shape[0], 3))
    run = dict(n_iter=5, return_info=True)
    out, infos = complete_new(D, samples, spec, 0.1, **run)
    out_w, infos_w = complete_new(D, _warmed(samples, D), spec, 0.1, **run)
    assert np.array_equal(out, out_w)
    assert infos == infos_w
    # the stream's first block starts from its starting dictionary D
    hp = OnlineHyperparams(r=3, beta=0.1, eta=eta, n_iter=5, n_pass=2)
    warm = _warmed(samples[:BATCH], D) + samples[BATCH:]
    work, model = run_stream(samples, spec, hp, model=OnlineModel(D))
    work_w, model_w = run_stream(warm, spec, hp, model=OnlineModel(D))
    assert np.array_equal(work, work_w)
    assert np.array_equal(model.dictionary, model_w.dictionary)
    assert model.cost_trace == model_w.cost_trace


@SETTINGS
@given(shuffled_columns(), st.sampled_from(SPECS), st.integers(0, 2**32 - 1))
def test_column_output_ignores_the_order_of_its_indices(samples, spec, seed):
    m = samples[0][0].size
    D = np.random.default_rng(seed).standard_normal((m, 3))
    x, idx = samples[0]
    run = dict(n_iter=5, return_info=True)
    out, infos = complete_new(D, [(x, idx)], spec, 0.1, **run)
    out_s, infos_s = complete_new(D, [(x, np.sort(idx))], spec, 0.1, **run)
    assert np.array_equal(out, out_s)
    assert infos == infos_s


@settings(SETTINGS, max_examples=25)
@given(st.integers(4, 9), st.integers(1, 3), st.integers(1, 12),
       st.sampled_from(LONG_STEP_SPECS), st.integers(0, 2**32 - 1))
def test_blocks_stopping_apart_match_single_requests(m, slow_blocks, tail,
                                                     spec, seed):
    # a fully observed block stops before the first iteration; the blocks
    # after it stop when their slowest column does, at tol = 1e-3
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, 5))
    n = (1 + slow_blocks) * BLOCK + tail
    values = 2.0 * rng.standard_normal((m, n))
    observed = rng.random((m, n)) < rng.uniform(0.3, 0.9, n)
    observed[:, :BLOCK] = True
    samples = _samples(values, observed)
    run = dict(n_iter=40, tol=1e-3, return_info=True)
    out, infos = complete_new(D, samples, spec, 1e-3, **run)
    rev, rev_infos = complete_new(D, samples[::-1], spec, 1e-3, **run)
    assert np.array_equal(rev[:, ::-1], out)
    assert rev_infos[::-1] == infos
    for j, sample in enumerate(samples):
        solo, solo_infos = complete_new(D, [sample], spec, 1e-3, **run)
        assert np.array_equal(solo[:, 0], out[:, j]), j
        assert solo_infos[0] == infos[j], j


@st.composite
def kernel_points(draw):
    """Points D (m, r) at a drawn scale and a kernel of either kind."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 20)))
    D = 10.0 ** draw(st.integers(-3, 3)) * draw(arrays(
        np.float64, shape, elements=st.floats(-3.0, 3.0, allow_nan=False)))
    spec = draw(st.one_of(
        st.builds(KernelSpec.rbf, st.floats(0.1, 10.0)),
        st.builds(KernelSpec.poly, st.integers(1, 4), st.floats(0.0, 10.0))))
    return D, spec


@SETTINGS
@given(kernel_points())
def test_kernel_matrix_is_symmetric_positive_semidefinite(points):
    D, spec = points
    K = kernel_matrix(spec, D, D)
    assert np.array_equal(K, K.T)
    eigenvalues = np.linalg.eigvalsh(K)
    assert eigenvalues[0] >= -1e-12 * max(1.0, np.abs(eigenvalues).max())
