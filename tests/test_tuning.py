import tracemalloc

import numpy as np
import pytest

from kfmc.tuning import mean_pairwise_distance


def _reference(X, max_pairs=1000, seed=0):
    """One-shot form: every pair's difference at once, on the same draw."""
    n = X.shape[1]
    if n * (n - 1) // 2 <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=max_pairs)
        j = rng.integers(0, n, size=max_pairs)
        clash = i == j
        while clash.any():
            j[clash] = rng.integers(0, n, size=int(clash.sum()))
            clash = i == j
    return float(np.mean(np.linalg.norm(X[:, i] - X[:, j], axis=0)))


def _traced_peak(X, **kwargs):
    mean_pairwise_distance(X, **kwargs)  # warm-up: lazy set-up is not counted
    tracemalloc.start()
    try:
        mean_pairwise_distance(X, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [2, 12, 45, 46, 300])
@pytest.mark.parametrize("max_pairs", [1, 63, 64, 65, 1000, 5000])
def test_blocks_give_the_one_shot_bits(order, n, max_pairs):
    # n <= 45 has at most 990 pairs, so max_pairs >= 1000 takes the
    # exhaustive branch there; max_pairs around the 64-pair block leaves a
    # last block of 63, 64 or 1 pairs
    rng = np.random.default_rng(n * 7919 + max_pairs)
    for m in (1, 30, 129):
        X = np.asarray(rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4),
                       order=order)
        for seed in (0, 5):
            got = mean_pairwise_distance(X, max_pairs=max_pairs, seed=seed)
            want = _reference(X, max_pairs=max_pairs, seed=seed)
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_memory_is_bounded_by_the_block():
    X = np.random.default_rng(0).standard_normal((1024, 300))
    # the one-shot form holds three (1024, 1000) arrays, 23.5 MiB traced
    peak = _traced_peak(X)
    assert peak < 4 * 2**20
    # more pairs add only the index and distance vectors
    assert _traced_peak(X, max_pairs=5000) <= 1.1 * peak


@pytest.mark.parametrize("max_pairs", [0, -3, 2.0, True, "10", None])
def test_bad_max_pairs_raise(max_pairs):
    with pytest.raises(ValueError, match="max_pairs must be an integer >= 1"):
        mean_pairwise_distance(np.ones((3, 10)), max_pairs=max_pairs)


def test_numpy_integer_max_pairs_is_accepted():
    X = np.random.default_rng(1).standard_normal((4, 60))
    assert mean_pairwise_distance(X, max_pairs=np.int64(100)) == \
        mean_pairwise_distance(X, max_pairs=100)


@pytest.mark.parametrize("shape", [(10,), (2, 3, 4), ()])
def test_x_must_be_2d(shape):
    with pytest.raises(ValueError, match="X must be 2-d"):
        mean_pairwise_distance(np.ones(shape))


def test_fewer_than_two_columns_raise():
    with pytest.raises(ValueError, match="two columns"):
        mean_pairwise_distance(np.ones((3, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sampled_column_raises(bad):
    X = np.random.default_rng(2).standard_normal((5, 8))
    X[3, 2] = bad
    with pytest.raises(ValueError, match="not finite"):
        mean_pairwise_distance(X)


def test_identical_columns_give_zero():
    assert mean_pairwise_distance(np.ones((4, 20))) == 0.0
