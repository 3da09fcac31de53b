import numpy as np
import pytest

from kfmc import SyntheticSpec, generate, numerical_rank, relative_error


def test_relative_error_trivial_cases(rng):
    X = rng.standard_normal((4, 5))
    assert relative_error(X, X) == 0.0
    assert relative_error(np.zeros_like(X), X) == pytest.approx(1.0)
    assert relative_error(2 * X, X) == pytest.approx(1.0)


def test_relative_error_scale_covariant(rng):
    X = rng.standard_normal((4, 5))
    Y = rng.standard_normal((4, 5))
    assert relative_error(3.7 * Y, 3.7 * X) == pytest.approx(relative_error(Y, X))


def test_relative_error_errors(rng):
    X = rng.standard_normal((3, 3))
    with pytest.raises(ValueError):
        relative_error(X, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        relative_error(X, np.zeros((2, 3)))


def test_numerical_rank_basic(rng):
    assert numerical_rank(np.eye(5)) == 5
    u = rng.standard_normal(6)
    v = rng.standard_normal(8)
    assert numerical_rank(np.outer(u, v)) == 1
    with pytest.raises(ValueError):
        numerical_rank(np.eye(3), rel_tol=0.0)


def test_numerical_rank_generated_instance():
    X, _ = generate(SyntheticSpec(d=3, p=3, u=1, m=30, n_per=100, seed=0))
    assert numerical_rank(X, 1e-8) == 19


def test_numerical_rank_column_permutation_invariant(rng):
    X = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 10))
    perm = rng.permutation(10)
    assert numerical_rank(X) == numerical_rank(X[:, perm])

