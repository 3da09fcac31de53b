"""The code-solve operator S = (K_DD + beta I)^-1 shared by all three solvers,
and the kernel and curvature solves that sit next to it."""
import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from kfmc import (KernelSpec, NumericalError, SyntheticSpec, complete_new,
                  generate, mean_pairwise_distance)
from kfmc.kernels import column_sq_norms, kernel_matrix
from kfmc.offline import _solve_operator, dictionary_step, solve_codes
from kfmc.online import _code_system


def rbf_problem(m, r, n, seed=0):
    """Columns on a nonlinear variety, atoms drawn from them, and the RBF
    kernel at the mean pairwise distance: K_DD is far from the identity."""
    X, _ = generate(SyntheticSpec(d=3, p=3, u=1, m=m, n_per=n + r, seed=seed))
    X, D = X[:, :n], X[:, n:]
    spec = KernelSpec.rbf(mean_pairwise_distance(X, seed=seed))
    return spec, X, D


@pytest.mark.parametrize("m,r", [(30, 60), (1024, 256)])
def test_operator_is_exactly_symmetric(m, r):
    spec, _, D = rbf_problem(m, r, 10)
    S = _solve_operator(kernel_matrix(spec, D, D), 1e-4)
    assert np.array_equal(S, S.T)


@pytest.mark.parametrize("m,r,n", [(30, 60, 300), (1024, 256, 300)])
def test_solve_codes_matches_triangular_solves(m, r, n):
    spec, X, D = rbf_problem(m, r, n)
    beta = 1e-4
    K_XD, K_DD = kernel_matrix(spec, X, D), kernel_matrix(spec, D, D)
    reference = cho_solve(cho_factor(K_DD + beta * np.eye(r), lower=True),
                          K_XD.T)
    Z = solve_codes(spec, X, D, beta, (K_XD, K_DD))
    assert np.linalg.norm(Z - reference) <= 1e-9 * np.linalg.norm(reference)


@pytest.mark.parametrize("bad", ["nan", "indefinite"])
def test_bad_system_raises_numerical_error(bad):
    spec, X, D = rbf_problem(5, 4, 6)
    r = D.shape[1]
    K_XD, K_DD = kernel_matrix(spec, X, D), kernel_matrix(spec, D, D)
    # an RBF K_DD has eigenvalues in [0, r]; beta = -(r + 1) makes every
    # eigenvalue of the system negative
    beta = 1e-4 if bad == "nan" else -(r + 1.0)
    if bad == "nan":
        K_DD[0, 1] = K_DD[1, 0] = np.nan
        D = D.copy()
        D[0, 1] = np.nan
    with pytest.raises(NumericalError, match="code solve failed"):
        solve_codes(spec, X, D, beta, (K_XD, K_DD))
    with pytest.raises(NumericalError, match="code system factorization failed"):
        _code_system(spec, D, beta)
    if bad == "nan":
        # complete_new refuses a negative beta before any factorization
        # (tests/test_ose.py), so only the NaN system reaches it there
        with pytest.raises(NumericalError,
                           match="code system factorization failed"):
            complete_new(D, [(X[:, 0], np.arange(3))], spec, beta)


def test_rbf_dictionary_step_with_nan_data_raises(rng):
    spec, X, D = rbf_problem(6, 4, 8)
    X = X.copy()
    X[2, 3] = np.nan
    Z = rng.standard_normal((D.shape[1], X.shape[1]))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError):
            dictionary_step(spec, X, D, Z, alpha=0.1, tau=2.0)


@pytest.mark.parametrize("sigma", [0.3, 1.7, 25.0])
def test_rbf_kernel_matrix_bits_unchanged(sigma, rng):
    spec = KernelSpec.rbf(sigma)
    A = rng.standard_normal((7, 11))
    B = np.concatenate([A[:, :4], rng.standard_normal((7, 5))], axis=1)
    sq_A, sq_B = column_sq_norms(A), column_sq_norms(B)
    G = A.T @ B
    expected = np.exp(-np.maximum(sq_A[:, None] + sq_B[None, :] - 2.0 * G, 0)
                      / sigma**2)
    assert np.array_equal(kernel_matrix(spec, A, B), expected)
    assert np.array_equal(kernel_matrix(spec, A, B, sq_A), expected)
