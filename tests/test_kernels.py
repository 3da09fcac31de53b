import math

import numpy as np
import pytest

from kfmc import KernelSpec, eval_kernel, kernel_diag, kernel_matrix, power_weights


def test_poly_eval_hand_value():
    spec = KernelSpec.poly(degree=2, offset=1.0)
    assert eval_kernel(spec, [1.0, 2.0], [3.0, 4.0]) == pytest.approx(144.0)


def test_rbf_zero_distance_is_one():
    spec = KernelSpec.rbf(sigma=0.37)
    x = np.array([0.5, -2.0, 3.0])
    assert eval_kernel(spec, x, x) == pytest.approx(1.0)


def test_rbf_eval_hand_value():
    spec = KernelSpec.rbf(sigma=2.0)
    assert eval_kernel(spec, [0.0], [2.0]) == pytest.approx(math.exp(-1.0))


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError):
        eval_kernel(KernelSpec.poly(), [1.0, 2.0], [1.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec.poly(degree=0)
    with pytest.raises(ValueError):
        KernelSpec.poly(offset=-0.1)
    with pytest.raises(ValueError):
        KernelSpec.rbf(sigma=0.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="linear")


@pytest.mark.parametrize("kwargs", [
    {"kind": "rbf", "sigma": math.inf},
    {"kind": "rbf", "sigma": math.nan},
    {"kind": "rbf", "sigma": 1e300},  # sigma**2 overflows
    {"kind": "poly", "offset": math.inf},
    {"kind": "poly", "offset": math.nan},
])
def test_spec_rejects_non_finite_parameters(kwargs):
    with pytest.raises(ValueError):
        KernelSpec(**kwargs)


def test_spec_accepts_extreme_finite_sigma():
    # a sigma whose square underflows is valid input: it is a numerical
    # failure of the solvers, not a usage error
    assert KernelSpec.rbf(1e-300).sigma == 1e-300
    assert KernelSpec.rbf(1e150).sigma == 1e150


def test_poly_matrix_identity_columns():
    spec = KernelSpec.poly(degree=2, offset=1.0)
    A = np.eye(2)
    K = kernel_matrix(spec, A, A)
    assert np.allclose(K, [[4.0, 1.0], [1.0, 4.0]])


def test_rbf_matrix_unit_diagonal(rng):
    spec = KernelSpec.rbf(sigma=1.3)
    A = rng.standard_normal((4, 6))
    K = kernel_matrix(spec, A, A)
    assert np.allclose(np.diag(K), 1.0)
    assert np.allclose(kernel_diag(spec, A), 1.0)


@pytest.mark.parametrize("spec", [KernelSpec.poly(degree=3, offset=0.5),
                                  KernelSpec.rbf(sigma=0.8)])
def test_matrix_matches_entrywise_loop(spec, rng):
    A = rng.standard_normal((3, 4))
    B = rng.standard_normal((3, 2))
    K = kernel_matrix(spec, A, B)
    expected = np.array([[eval_kernel(spec, A[:, i], B[:, j]) for j in range(2)]
                         for i in range(4)])
    assert np.allclose(K, expected, rtol=1e-12)


def test_matrix_row_count_mismatch(rng):
    with pytest.raises(ValueError):
        kernel_matrix(KernelSpec.rbf(sigma=1.0), rng.standard_normal((3, 2)),
                      rng.standard_normal((4, 2)))


def test_poly_diag_values(rng):
    spec = KernelSpec.poly(degree=2, offset=0.7)
    A = rng.standard_normal((5, 3))
    K = kernel_matrix(spec, A, A)
    assert np.allclose(kernel_diag(spec, A), np.diag(K))


@pytest.mark.parametrize("spec", [KernelSpec.poly(degree=2, offset=1.0),
                                  KernelSpec.rbf(sigma=2.0)])
def test_symmetry(spec, rng):
    A = rng.standard_normal((6, 20))
    K = kernel_matrix(spec, A, A)
    assert np.max(np.abs(K - K.T)) <= 1e-12 * max(1.0, np.max(np.abs(K)))


@pytest.mark.parametrize("spec", [KernelSpec.poly(degree=2, offset=1.0),
                                  KernelSpec.poly(degree=3, offset=0.0),
                                  KernelSpec.rbf(sigma=0.7),
                                  KernelSpec.rbf(sigma=3.0)])
def test_positive_semidefinite(spec, rng):
    for n in (10, 50):
        A = rng.standard_normal((8, n))
        K = kernel_matrix(spec, A, A)
        w = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert w[0] >= -1e-8 * np.linalg.norm(K, 2)


def test_power_weights_values():
    spec = KernelSpec.poly(degree=2, offset=1.0)
    assert np.allclose(power_weights(spec, np.array([[3.0]])), [[4.0]])
    spec1 = KernelSpec.poly(degree=1, offset=5.0)
    G = np.array([[2.0, -7.0], [0.0, 1.0]])
    assert np.array_equal(power_weights(spec1, G), np.ones((2, 2)))
    spec3 = KernelSpec.poly(degree=3, offset=0.0)
    assert np.allclose(power_weights(spec3, np.array([[2.0, -1.0]])), [[4.0, 1.0]])


def test_power_weights_requires_poly():
    with pytest.raises(ValueError):
        power_weights(KernelSpec.rbf(sigma=1.0), np.eye(2))


def test_rbf_matches_truncated_exponential_series(rng):
    # exp(-|x-y|^2/s^2) = exp(-(|x|^2+|y|^2)/s^2) * sum_k (2<x,y>/s^2)^k / k!
    # with remainder O(c^(q+1)/(q+1)!) for c = max |2<x,y>|/s^2 < 1
    sigma = 6.0
    q = 4
    spec = KernelSpec.rbf(sigma=sigma)
    A = 0.5 * rng.standard_normal((4, 8))
    K = kernel_matrix(spec, A, A)
    G = A.T @ A
    sq = np.sum(A * A, axis=0)
    ratio = 2.0 * G / sigma**2
    c = np.max(np.abs(ratio))
    assert c < 1
    series = np.zeros_like(G)
    for k in range(q + 1):
        series += ratio**k / math.factorial(k)
    truncated = np.exp(-(sq[:, None] + sq[None, :]) / sigma**2) * series
    bound = c ** (q + 1) / math.factorial(q + 1) * math.e
    assert np.max(np.abs(K - truncated)) <= bound
