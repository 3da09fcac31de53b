"""Blocked out-of-sample completion: outputs do not depend on the batch.

complete_new runs its columns in zero-padded blocks of fixed width, so a
column's bits must not depend on its position, its neighbours or the number
of columns in the call.
"""
import numpy as np
import pytest

from kfmc import KernelSpec, NumericalError, complete_new
from kfmc.kernels import column_sq_norms, kernel_matrix
from kfmc.online import _prepare_columns
from kfmc.ose import BLOCK, STACK

M, R, BETA = 9, 5, 1e-3
SPECS = [KernelSpec.rbf(2.0), KernelSpec.poly(3, 0.5)]


def _column(rng, kind):
    """One (x, observed_idx) sample: partly observed, fully observed, or
    with nothing observed."""
    x = rng.standard_normal(M)
    if kind == "full":
        return x, np.arange(M)
    obs = np.sort(rng.choice(M, size=6, replace=False)) if kind == "part" \
        else np.arange(0)
    xs = np.full(M, np.nan)
    xs[obs] = x[obs]
    return xs, obs


def _samples(n, seed, warm=0.0):
    """n samples of every kind; with ``warm``, that share of each sample's
    missing entries (rounded down) holds a finite warm start."""
    rng = np.random.default_rng(seed)
    kinds = {3: "full", 4: "empty"}
    samples = [_column(rng, kinds.get(j % 5, "part")) for j in range(n)]
    for x, _ in samples:
        free = np.flatnonzero(np.isnan(x))
        free = free[:int(warm * free.size)]
        x[free] = rng.standard_normal(free.size)
    return samples


def _dictionary(seed=0):
    return np.random.default_rng(seed).standard_normal((M, R))


def _run(D, samples, spec):
    return complete_new(D, samples, spec, BETA, n_iter=12, tol=1e-9,
                        return_info=True)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 19])
@pytest.mark.parametrize("spec", SPECS, ids=["rbf", "poly"])
@pytest.mark.parametrize("warm", [0.5, 0.0])
def test_bulk_single_and_reversed_outputs_are_bitwise_equal(n, spec, warm):
    D = _dictionary()
    samples = _samples(n, seed=n, warm=warm)
    bulk, infos = _run(D, samples, spec)
    assert bulk.shape == (M, n)
    assert np.all(np.isfinite(bulk))
    rev, rev_infos = _run(D, samples[::-1], spec)
    assert np.array_equal(rev[:, ::-1], bulk)
    assert rev_infos[::-1] == infos
    for j, sample in enumerate(samples):
        solo, solo_infos = _run(D, [sample], spec)
        assert np.array_equal(solo[:, 0], bulk[:, j])
        assert solo_infos[0] == infos[j]
        x, obs = sample
        assert np.array_equal(bulk[obs, j], x[obs])
        if obs.size == M:
            assert infos[j].iterations == 0 and infos[j].converged
        if obs.size == 0:
            assert infos[j].iterations > 0


@pytest.mark.parametrize("spec", SPECS, ids=["rbf", "poly"])
@pytest.mark.parametrize("warm", [0.5, 0.0])
def test_column_output_ignores_neighbour_content(spec, warm):
    D = _dictionary()
    samples = _samples(2 * BLOCK + 3, seed=1, warm=warm)
    base, base_infos = _run(D, samples, spec)
    for j in (2, BLOCK + 1, 2 * BLOCK + 2):
        others = _samples(len(samples), seed=100 + j)
        mixed = others[:j] + [samples[j]] + others[j + 1:]
        out, infos = _run(D, mixed, spec)
        assert np.array_equal(out[:, j], base[:, j])
        assert infos[j] == base_infos[j]


def test_numerical_error_names_the_failing_column_of_a_bulk_call():
    spec = KernelSpec.poly(4, 1.0)
    D = _dictionary()
    samples = _samples(20, seed=3)
    x, obs = _column(np.random.default_rng(4), "part")
    x[obs] = 1e100
    samples[11] = (x, obs)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as err:
            complete_new(D, samples, spec, BETA, n_iter=12)
    assert err.value.sample_index == 11
    healthy = samples[:11] + samples[12:]
    assert np.all(np.isfinite(complete_new(D, healthy, spec, BETA, n_iter=12)))


@pytest.mark.parametrize("spec", SPECS, ids=["rbf", "poly"])
def test_kernel_matrix_with_cached_norms_gives_identical_bits(spec):
    rng = np.random.default_rng(2)
    D = rng.standard_normal((M, R))
    X = rng.standard_normal((M, BLOCK))
    assert np.array_equal(kernel_matrix(spec, D, X),
                          kernel_matrix(spec, D, X, column_sq_norms(D)))


# A call runs all of its blocks as one stack, STACK columns at a time, so a
# column's bits must not depend on its block or its stack either.

@pytest.mark.parametrize("n", [64, STACK + 1])
@pytest.mark.parametrize("spec", SPECS, ids=["rbf", "poly"])
@pytest.mark.parametrize("warm", [0.5, 0.0])
def test_stacked_call_equals_single_columns_bitwise(n, spec, warm):
    D = _dictionary()
    samples = _samples(n, seed=n, warm=warm)
    bulk, infos = _run(D, samples, spec)
    rev, rev_infos = _run(D, samples[::-1], spec)
    assert np.array_equal(rev[:, ::-1], bulk)
    assert rev_infos[::-1] == infos
    for j, sample in enumerate(samples):
        solo, solo_infos = _run(D, [sample], spec)
        assert np.array_equal(solo[:, 0], bulk[:, j])
        assert solo_infos[0] == infos[j]


@pytest.mark.parametrize("bad", [BLOCK + 3, STACK + BLOCK + 3],
                         ids=["later-block", "later-stack"])
def test_numerical_error_names_a_column_of_a_later_block_or_stack(bad):
    spec = KernelSpec.poly(4, 1.0)
    D = _dictionary()
    samples = _samples(STACK + 2 * BLOCK, seed=5)
    x, obs = _column(np.random.default_rng(6), "part")
    x[obs] = 1e100
    samples[bad] = (x, obs)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as err:
            complete_new(D, samples, spec, BETA, n_iter=12)
    assert err.value.sample_index == bad


def test_prepare_columns_keeps_missing_entries_as_given():
    # the inner loop starts the NaN entries; finite ones are warm starts
    D = _dictionary()
    rng = np.random.default_rng(7)
    part, full, empty = (_column(rng, k) for k in ("part", "full", "empty"))
    warm_x, warm_obs = _column(rng, "part")
    free = np.setdiff1d(np.arange(M), warm_obs)
    warm_x[free[:2]] = [0.25, -4.0]  # finite warm starts at missing positions
    X0, missing = _prepare_columns([part, full, empty, (warm_x, warm_obs)], D)
    assert X0.shape == missing.shape == (M, 4)
    for j, (x, obs) in enumerate([part, full, empty, (warm_x, warm_obs)]):
        assert np.array_equal(missing[:, j], ~np.isin(np.arange(M), obs))
        assert np.array_equal(X0[:, j], x, equal_nan=True)
    assert np.array_equal(X0[free[:2], 3], [0.25, -4.0])


@pytest.mark.parametrize("fault", ["index-too-large", "index-negative",
                                   "observed-nan", "observed-inf",
                                   "index-repeated", "index-bool-mask",
                                   "index-float"])
def test_prepare_columns_rejects_bad_samples(fault):
    # a repeated index would count its entry as observed twice; a boolean
    # mask would be read as the indices 0 and 1, and float indices truncated
    D = _dictionary()
    samples = _samples(5, seed=8)
    x, obs = samples[2]
    x = x.copy()
    if fault == "index-too-large":
        obs = np.append(obs, M)
    elif fault == "index-negative":
        obs = np.append(obs, -1)
    elif fault == "index-repeated":
        obs = np.append(obs, obs[0])
    elif fault == "index-bool-mask":
        obs = np.isin(np.arange(M), obs)
    elif fault == "index-float":
        obs = obs + 0.5
    else:
        x[obs[0]] = np.nan if fault == "observed-nan" else np.inf
    samples[2] = (x, obs)
    with pytest.raises(ValueError):
        _prepare_columns(samples, D)
    with pytest.raises(ValueError):
        complete_new(D, samples, SPECS[0], BETA)


@pytest.mark.parametrize("spec", SPECS, ids=["rbf", "poly"])
def test_kernel_matrix_of_a_stack_equals_each_block_alone(spec):
    # a stack holds its blocks side by side in one (m, nb * BLOCK) array
    rng = np.random.default_rng(9)
    D = rng.standard_normal((M, R))
    stack = rng.standard_normal((M, 3 * BLOCK))
    K = kernel_matrix(spec, D, stack, column_sq_norms(D), block=BLOCK)
    assert K.shape == (R, 3 * BLOCK)
    for b in range(3):
        cols = slice(b * BLOCK, (b + 1) * BLOCK)
        alone = np.ascontiguousarray(stack[:, cols])
        assert np.array_equal(K[:, cols], kernel_matrix(spec, D, alone))


def test_an_empty_index_list_means_nothing_observed():
    # np.asarray([]) is a float array; an empty list still passes
    D = _dictionary()
    X0, missing = _prepare_columns([(np.full(M, np.nan), [])], D)
    assert missing.all()
    assert np.isnan(X0).all()
