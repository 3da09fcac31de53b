from math import comb

import numpy as np
import pytest

from kfmc import (SyntheticSpec, continuous_mask, feature_count, generate,
                  numerical_rank, poly_features, random_mask, twisted_cubic)


def test_poly_features_d2_p2_membership():
    s = np.array([2.0, 3.0])
    feats = poly_features(s, 2, include_constant=True)
    assert len(feats) == 6
    assert sorted(feats) == sorted([1.0, 2.0, 3.0, 4.0, 6.0, 9.0])
    # graded order: constant, then degree-1, then degree-2 monomials
    assert feats[0] == 1.0
    assert set(feats[1:3]) == {2.0, 3.0}


def test_poly_features_counts():
    s = np.arange(1, 4, dtype=float)
    assert len(poly_features(s, 3, include_constant=False)) == comb(6, 3) - 1 == 19
    assert feature_count(3, 3, False) == 19
    assert feature_count(3, 3, True) == 20


def test_poly_features_linear_without_constant():
    s = np.array([5.0, -1.0, 2.0])
    assert np.array_equal(poly_features(s, 1, include_constant=False), s)


def test_poly_features_batch_matches_single(rng):
    S = rng.standard_normal((3, 5))
    F = poly_features(S, 2, include_constant=True)
    for j in range(5):
        assert np.allclose(F[:, j], poly_features(S[:, j], 2, True))


@pytest.mark.parametrize("d,p,u,m,n_per,rank", [
    (3, 3, 1, 30, 100, 19),
    (3, 3, 3, 30, 100, 30),
    (3, 1, 10, 30, 100, 30),
])
def test_generate_ranks(d, p, u, m, n_per, rank):
    X, labels = generate(SyntheticSpec(d=d, p=p, u=u, m=m, n_per=n_per, seed=7))
    assert X.shape == (m, u * n_per)
    assert labels.shape == (u * n_per,)
    assert np.all(np.bincount(labels) == n_per)
    assert numerical_rank(X, 1e-8) == rank


def _generate_by_hstack(spec):
    """Reference: one product per subspace, joined with np.hstack."""
    rng = np.random.default_rng(spec.seed)
    nf = feature_count(spec.d, spec.p, spec.include_constant)
    blocks, labels = [], []
    for k in range(spec.u):
        P = rng.standard_normal((spec.m, nf))
        S = rng.uniform(0.0, 1.0, size=(spec.d, spec.n_per))
        blocks.append(P @ poly_features(S, spec.p, spec.include_constant))
        labels.extend([k] * spec.n_per)
    return np.hstack(blocks), np.array(labels)


@pytest.mark.parametrize("d,p,u,m,n_per,include_constant", [
    (3, 3, 1, 30, 100, False), (3, 3, 3, 30, 100, True), (2, 2, 5, 7, 1, False),
    (1, 4, 2, 1, 9, True), (4, 2, 3, 257, 33, False), (3, 3, 1, 1024, 316, False),
])
def test_generate_in_place_matches_hstack_bitwise(d, p, u, m, n_per,
                                                  include_constant):
    spec = SyntheticSpec(d=d, p=p, u=u, m=m, n_per=n_per, seed=11,
                         include_constant=include_constant)
    X, labels = generate(spec)
    X_ref, labels_ref = _generate_by_hstack(spec)
    assert X.dtype == X_ref.dtype and labels.dtype == labels_ref.dtype
    assert np.array_equal(X.view(np.uint64), X_ref.view(np.uint64))
    assert np.array_equal(labels, labels_ref)


def test_generate_reproducible():
    spec = SyntheticSpec(d=2, p=2, u=2, m=10, n_per=20, seed=3)
    X1, _ = generate(spec)
    X2, _ = generate(spec)
    assert np.array_equal(X1, X2)


def test_twisted_cubic_structure():
    X = twisted_cubic(100, seed=0)
    assert X.shape == (3, 100)
    assert np.allclose(X[1], X[0] ** 2)
    assert np.allclose(X[2], X[0] ** 3)
    assert np.all(np.abs(X[0]) <= 1.0)
    assert numerical_rank(X, 1e-8) == 3


def test_twisted_cubic_validation():
    with pytest.raises(ValueError):
        twisted_cubic(0)


def test_random_mask_exact_count():
    mask = random_mask(30, 300, 0.3, seed=1)
    assert (mask.missing).sum() == 2700
    assert mask.observed.any(axis=0).all()


def test_random_mask_zero_rate_full():
    assert random_mask(4, 5, 0.0, seed=0).observed_fraction == 1.0


def test_random_mask_per_column_exact():
    mask = random_mask(3, 100, 0.0, seed=2, per_column_exact=1)
    assert mask.missing.sum() == 100
    assert np.all(mask.missing.sum(axis=0) == 1)


def test_random_mask_reproducible():
    m1 = random_mask(10, 20, 0.4, seed=9)
    m2 = random_mask(10, 20, 0.4, seed=9)
    assert m1 == m2


def test_random_mask_validation():
    with pytest.raises(ValueError):
        random_mask(3, 10, 0.0, per_column_exact=3)
    with pytest.raises(ValueError):
        random_mask(3, 10, 1.0)
    with pytest.raises(ValueError):
        random_mask(3, 10, 0.9)  # would exceed (m-1)*n missing


def test_continuous_mask_run_structure():
    mask = continuous_mask(5, 100, 0.1, n_seq=5, seed=4)
    missing = mask.missing
    assert np.all(missing.sum(axis=1) == 10)
    for i in range(5):
        row = missing[i]
        # runs of length exactly 2, non-overlapping
        starts = np.nonzero(np.diff(np.concatenate([[0], row.view(np.int8)])) == 1)[0]
        assert len(starts) == 5
        for s in starts:
            assert row[s:s + 2].all()


def test_continuous_mask_paper_scale():
    mask = continuous_mask(4, 3392, 0.5, n_seq=50, seed=5)
    per_row = mask.missing.sum(axis=1)
    assert np.all(per_row == 50 * 34)
    assert abs(per_row[0] - 0.5 * 3392) <= 50


def test_continuous_mask_zero_rate():
    assert continuous_mask(3, 40, 0.0, n_seq=4, seed=0).observed_fraction == 1.0


def test_continuous_mask_validation():
    # 12 runs of (rounded) length 1 cannot fit in a row of 10
    with pytest.raises(ValueError):
        continuous_mask(3, 10, 0.7, n_seq=12, seed=0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(d=0)
