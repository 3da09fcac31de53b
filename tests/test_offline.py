import numpy as np
import pytest
from scipy.optimize import minimize

from kfmc import (KernelSpec, Mask, MaskedMatrix, NumericalError,
                  OfflineHyperparams, impute_init, relative_error,
                  twisted_cubic, random_mask, generate, SyntheticSpec,
                  mean_pairwise_distance)
from kfmc.kernels import kernel_matrix, power_weights
from kfmc.offline import (_dictionary_parts, completion_step, dictionary_step,
                          fit, objective, solve_codes)
from kfmc.online import _sample_step


def poly_feature_map(x, degree, offset):
    """Explicit feature map of the degree-2 polynomial kernel (oracle)."""
    assert degree == 2
    x = np.asarray(x, dtype=float)
    feats = [offset]
    feats.extend(np.sqrt(2 * offset) * x)
    feats.extend(x**2)
    m = len(x)
    for i in range(m):
        for j in range(i + 1, m):
            feats.append(np.sqrt(2) * x[i] * x[j])
    return np.array(feats)


def frozen_surrogate_D(spec, X, D, Z, alpha, W1, W2):
    """Reweighted dictionary objective with frozen power weights (oracle)."""
    t1 = -np.sum((W1 * (X.T @ D + spec.offset)) * Z.T)
    M2 = W2 * (D.T @ D + spec.offset)
    return t1 + 0.5 * np.sum(Z * (M2 @ Z)) + 0.5 * alpha * np.trace(M2)


def fd_grad(f, A, h=1e-6):
    G = np.zeros_like(A)
    for idx in np.ndindex(A.shape):
        Ap = A.copy()
        Ap[idx] += h
        Am = A.copy()
        Am[idx] -= h
        G[idx] = (f(Ap) - f(Am)) / (2 * h)
    return G


def completion_gradient(spec, X, D, Z, tau):
    """The completion gradient of :func:`objective` recovered from the
    shipped step: step * tau times the curvature it divides by."""
    step = completion_step(spec, X, D, Z, tau)
    if spec.is_poly:
        w1 = (np.sum(X * X, axis=0) + spec.offset) ** (spec.degree - 1)
        return step * tau * spec.degree * w1
    g = np.sum(Z * kernel_matrix(spec, D, X), axis=0)
    return step * tau * (2.0 / spec.sigma**2) * np.abs(g)


# ---------------------------------------------------------------- objective

def test_objective_zero_when_model_matches(rng):
    for spec in (KernelSpec.poly(2, 1.0), KernelSpec.rbf(1.5)):
        D = rng.standard_normal((4, 3))
        assert objective(spec, D, D, np.eye(3), 0.0, 0.0) == pytest.approx(0.0, abs=1e-10)


def test_objective_zero_codes(rng):
    X = rng.standard_normal((3, 5))
    D = rng.standard_normal((3, 2))
    spec = KernelSpec.poly(2, 0.5)
    Z = np.zeros((2, 5))
    expected = 0.5 * np.trace(kernel_matrix(spec, X, X))
    assert objective(spec, X, D, Z, 0.0, 0.0) == pytest.approx(expected)


def test_objective_matches_explicit_feature_map(rng):
    spec = KernelSpec.poly(2, 0.7)
    X = rng.standard_normal((3, 4))
    D = rng.standard_normal((3, 2))
    Z = rng.standard_normal((2, 4))
    alpha, beta = 0.3, 0.2
    phiX = np.column_stack([poly_feature_map(X[:, j], 2, 0.7) for j in range(4)])
    phiD = np.column_stack([poly_feature_map(D[:, j], 2, 0.7) for j in range(2)])
    expected = (0.5 * np.linalg.norm(phiX - phiD @ Z) ** 2
                + 0.5 * alpha * np.linalg.norm(phiD) ** 2
                + 0.5 * beta * np.linalg.norm(Z) ** 2)
    assert objective(spec, X, D, Z, alpha, beta) == pytest.approx(expected)


@pytest.mark.parametrize("spec", [KernelSpec.rbf(1.3), KernelSpec.poly(1, 0.4),
                                  KernelSpec.poly(2, 0.7),
                                  KernelSpec.poly(3, 0.5)],
                         ids=["rbf", "poly1", "poly2", "poly3"])
def test_objective_is_the_sum_of_column_objectives(spec, rng):
    X = rng.standard_normal((4, 6))
    D = rng.standard_normal((4, 3))
    Z = rng.standard_normal((3, 6))
    alpha, beta = 0.3, 0.2
    reg_d = np.trace(kernel_matrix(spec, D, D))
    expected = sum(objective(spec, X[:, [j]], D, Z[:, [j]], 0.0, beta)
                   for j in range(6)) + 0.5 * alpha * reg_d
    assert objective(spec, X, D, Z, alpha, beta) == pytest.approx(expected,
                                                                  rel=1e-12)


def test_objective_rbf_alpha_term_is_constant(rng):
    spec = KernelSpec.rbf(1.1)
    X = rng.standard_normal((3, 5))
    D = rng.standard_normal((3, 4))
    Z = rng.standard_normal((4, 5))
    base = objective(spec, X, D, Z, 0.0, 0.0)
    assert objective(spec, X, D, Z, 2.0, 0.0) == pytest.approx(base + 2.0 * 4 / 2)


# ---------------------------------------------------------------- codes

def test_codes_identity_limit(rng):
    spec = KernelSpec.poly(2, 1.0)
    D = rng.standard_normal((4, 3))
    Z = solve_codes(spec, D, D, 1e-12)
    assert np.allclose(Z, np.eye(3), atol=1e-6)


def test_codes_identity_gram_case(rng):
    # orthonormal, RBF-distant atoms: K_DD = I, so codes are K_XD'/2
    spec = KernelSpec.rbf(0.1)
    D = 100.0 * np.eye(4)[:, :3]
    X = rng.standard_normal((4, 5))
    K_XD = kernel_matrix(spec, X, D)
    Z = solve_codes(spec, X, D, 1.0)
    assert np.allclose(Z, K_XD.T / 2.0, atol=1e-10)


def test_codes_match_independent_minimizer(rng):
    spec = KernelSpec.rbf(1.4)
    X = rng.standard_normal((4, 6))
    D = rng.standard_normal((4, 3))
    beta = 0.05
    Z = solve_codes(spec, X, D, beta)

    K_XD = kernel_matrix(spec, X, D)
    K_DD = kernel_matrix(spec, D, D)

    def quad(zflat):
        Zc = zflat.reshape(3, 6)
        return (-np.sum(K_XD * Zc.T) + 0.5 * np.sum(Zc * (K_DD @ Zc))
                + 0.5 * beta * np.sum(Zc * Zc))

    res = minimize(quad, np.zeros(18), method="L-BFGS-B",
                   options={"gtol": 1e-12, "maxiter": 2000})
    assert np.allclose(Z, res.x.reshape(3, 6), atol=1e-6)


# ---------------------------------------------------------------- gradients

def test_rbf_dictionary_gradient_matches_fd(rng):
    spec = KernelSpec.rbf(1.7)
    X = rng.standard_normal((4, 5))
    D = rng.standard_normal((4, 3))
    Z = rng.standard_normal((3, 5))
    g = _dictionary_parts(spec, X, D, Z, 0.3)[0]
    g_fd = fd_grad(lambda DD: objective(spec, X, DD, Z, 0.3, 0.1), D)
    assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g_fd)


def test_rbf_completion_gradient_matches_fd(rng):
    spec = KernelSpec.rbf(1.3)
    X = rng.standard_normal((5, 4))
    D = rng.standard_normal((5, 3))
    Z = rng.standard_normal((3, 4))
    g = completion_gradient(spec, X, D, Z, 2.0)
    g_fd = fd_grad(lambda XX: objective(spec, XX, D, Z, 0.3, 0.1), X)
    assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g_fd)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_poly_completion_gradient_matches_fd(degree, rng):
    spec = KernelSpec.poly(degree, 0.6)
    X = rng.standard_normal((5, 4))
    D = rng.standard_normal((5, 3))
    Z = rng.standard_normal((3, 4))
    g = completion_gradient(spec, X, D, Z, 2.0)
    g_fd = fd_grad(lambda XX: objective(spec, XX, D, Z, 0.3, 0.1), X)
    assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g_fd)


def test_poly_frozen_gradient_matches_surrogate_fd(rng):
    spec = KernelSpec.poly(3, 0.8)
    X = rng.standard_normal((4, 5))
    D = rng.standard_normal((4, 3))
    Z = rng.standard_normal((3, 5))
    alpha = 0.4
    W1 = power_weights(spec, X.T @ D)
    W2 = power_weights(spec, D.T @ D)
    g = _dictionary_parts(spec, X, D, Z, alpha)[0]
    g_fd = fd_grad(lambda DD: frozen_surrogate_D(spec, X, DD, Z, alpha, W1, W2), D)
    assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g_fd)


# ---------------------------------------------------------------- steps

def test_dictionary_step_zero_gradient_cases(rng):
    spec = KernelSpec.poly(2, 1.0)
    X = rng.standard_normal((3, 4))
    D = rng.standard_normal((3, 2))
    Z = np.zeros((2, 4))
    assert np.array_equal(dictionary_step(spec, X, D, Z, 0.0, 2.0),
                          np.zeros_like(D))


def test_dictionary_step_sufficient_decrease_poly():
    # frozen-weight surrogate drops at least by the quadratic model amount
    tau = 2.0
    for trial in range(100):
        r = np.random.default_rng(trial)
        m, n, ra = 4, 6, 3
        X = r.standard_normal((m, n))
        D = r.standard_normal((m, ra))
        Z = r.standard_normal((ra, n))
        alpha = 0.2 + 0.5 * r.uniform()
        spec = KernelSpec.poly(int(r.integers(2, 4)), 0.3 + r.uniform())
        W1 = power_weights(spec, X.T @ D)
        W2 = power_weights(spec, D.T @ D)
        g = _dictionary_parts(spec, X, D, Z, alpha)[0]
        H = (Z @ Z.T) * W2 + alpha * np.diag(np.diag(W2))
        bound = -np.trace(g @ np.linalg.solve(H, g.T)) / (2 * tau)
        step = dictionary_step(spec, X, D, Z, alpha, tau)
        dec = (frozen_surrogate_D(spec, X, D - step, Z, alpha, W1, W2)
               - frozen_surrogate_D(spec, X, D, Z, alpha, W1, W2))
        assert dec <= bound + 1e-8


def test_rbf_dictionary_step_decreases_objective(rng):
    spec = KernelSpec.rbf(1.5)
    X = rng.standard_normal((5, 20))
    D = rng.standard_normal((5, 4))
    Z = solve_codes(spec, X, D, 0.01)
    before = objective(spec, X, D, Z, 0.1, 0.01)
    step = dictionary_step(spec, X, D, Z, 0.1, 2.0)
    after = objective(spec, X, D - step, Z, 0.1, 0.01)
    assert after <= before


def test_completion_step_stationary(rng):
    # a configuration with zero completion gradient stays put
    spec = KernelSpec.poly(2, 1.0)
    D = rng.standard_normal((3, 3))
    X = D.copy()
    Z = np.eye(3)
    g = 2 * (X * (np.sum(X * X, axis=0) + 1.0)) - 2 * (
        D @ (power_weights(spec, X.T @ D).T * Z))
    step = completion_step(spec, X, D, Z, 2.0)
    w = np.sum(X * X, axis=0) + 1.0
    assert np.allclose(step, g / (2.0 * w), atol=1e-12)


def test_completion_step_rbf_diagonal_scaling():
    # the RBF step divides by the magnitude of its curvature, so on a column
    # with sum(z * k(D, x)) < 0 the batch and the stream step still point
    # along the gradient (the signed curvature would reverse them)
    spec = KernelSpec.rbf(1.2)
    D = np.array([[0.0, 1.0, -0.5], [0.5, 0.0, 1.0], [1.0, -1.0, 0.0]])
    x = np.array([0.3, -0.2, 0.4])
    z = np.array([-1.0, -0.5, -0.8])
    k = kernel_matrix(spec, D, x[:, None])[:, 0]
    assert np.sum(z * k) < 0
    X, Z = x[:, None], z[:, None]
    g_fd = fd_grad(lambda XX: objective(spec, XX, D, Z, 0.1, 0.1), X)[:, 0]
    for step in (completion_step(spec, X, D, Z, 2.0)[:, 0],
                 _sample_step(spec, x, z, D, k, 2.0)):
        ratio = step / g_fd
        assert np.all(ratio > 0)
        assert np.allclose(ratio, ratio[0], rtol=1e-6)
        assert objective(spec, X - step[:, None], D, Z, 0.1, 0.1) < \
            objective(spec, X, D, Z, 0.1, 0.1)


def test_completion_step_frozen_decrease_poly():
    # the separable frozen-weight model of the completion objective drops
    for trial in range(100):
        r = np.random.default_rng(1000 + trial)
        m, n, ra = 4, 6, 3
        X = r.standard_normal((m, n))
        D = r.standard_normal((m, ra))
        spec = KernelSpec.poly(2, 1.0)
        Z = solve_codes(spec, X, D, 0.1)
        q = spec.degree
        w = (np.sum(X * X, axis=0) + spec.offset) ** (q - 1)
        W4 = power_weights(spec, X.T @ D)

        def frozen_x(Xc):
            return float(np.sum(0.5 * q * w * np.sum(Xc * Xc, axis=0)
                                - q * np.sum((D @ (W4.T * Z)) * Xc, axis=0)))

        step = completion_step(spec, X, D, Z, 2.0)
        assert frozen_x(X - step) <= frozen_x(X) + 1e-10


# ---------------------------------------------------------------- fit

def _masked_instance(rng, m=8, n=30, missing=0.3):
    X_true = rng.standard_normal((m, 2)) @ rng.standard_normal((2, n))
    mask = random_mask(m, n, missing, seed=int(rng.integers(1 << 31)))
    M = np.where(mask.observed, X_true, np.nan)
    return X_true, impute_init(M, mask)


def test_fit_fully_observed_returns_data(rng):
    X = rng.standard_normal((5, 12))
    mm = impute_init(X, Mask.full(5, 12))
    hp = OfflineHyperparams(r=4, alpha=0.1, beta=0.1, eta=0.0, t_max=10,
                            tol=0.0, seed=0)
    model = fit(mm, KernelSpec.rbf(2.0), hp)
    assert np.array_equal(model.completed, X)
    assert np.all(np.diff(model.objective_trace)
                  <= 1e-9 * np.maximum(np.abs(model.objective_trace[:-1]), 1e-30))


@pytest.mark.parametrize("spec,beta", [(KernelSpec.rbf(2.5), 1e-4),
                                       (KernelSpec.poly(2, 1.0), 0.1)])
def test_fit_monotone_trace_without_momentum(spec, beta, rng):
    _, mm = _masked_instance(rng)
    hp = OfflineHyperparams(r=8, alpha=0.1, beta=beta, eta=0.0, t_max=60,
                            tol=0.0, seed=1)
    model = fit(mm, spec, hp)
    tr = model.objective_trace
    assert np.all(np.diff(tr) <= 1e-9 * np.maximum(np.abs(tr[:-1]), 1e-30))


def test_fit_preserves_observed_entries(rng):
    X_true, mm = _masked_instance(rng)
    hp = OfflineHyperparams(r=6, alpha=0.1, beta=1e-3, eta=0.5, t_max=40,
                            tol=1e-8, seed=2)
    model = fit(mm, KernelSpec.rbf(2.0), hp)
    obs = mm.mask.observed
    assert np.array_equal(model.completed[obs], mm.values[obs])


def test_fit_momentum_reaches_final_objective_faster():
    X_true, _ = generate(SyntheticSpec(d=3, p=3, u=1, m=30, n_per=100, seed=1))
    mask = random_mask(30, 100, 0.3, seed=2)
    mm = impute_init(np.where(mask.observed, X_true, np.nan), mask)
    spec = KernelSpec.rbf(mean_pairwise_distance(mm.completion))
    base = dict(r=60, alpha=0.1, beta=1e-4, t_max=300, tol=1e-9, seed=3)
    plain = fit(mm, spec, OfflineHyperparams(eta=0.0, **base))
    target = plain.objective_trace[-1]
    momentum = fit(mm, spec, OfflineHyperparams(eta=0.5, **base))
    reached = np.nonzero(momentum.objective_trace <= target * (1 + 1e-9))[0]
    assert reached.size > 0
    assert reached[0] + 1 <= plain.iterations


def test_fit_reports_divergence():
    # the data of `kfmc gen --preset union-nonlinear --missing 0.3 --seed 1`
    # at the CLI's RBF defaults: eta = 0.9 ends above its first objective
    X_true, _ = generate(SyntheticSpec(d=3, p=3, u=3, m=30, n_per=100, seed=1))
    mask = random_mask(30, 300, 0.3, seed=2)
    mm = impute_init(np.where(mask.observed, X_true, np.nan), mask)
    spec = KernelSpec.rbf(mean_pairwise_distance(mm.completion))
    diverged = fit(mm, spec, OfflineHyperparams(r=60, beta=1e-4, eta=0.9))
    assert diverged.stop_reason == "diverged" and not diverged.converged
    assert diverged.objective_trace[-1] > diverged.objective_trace[0]
    default = fit(mm, spec, OfflineHyperparams(r=60, beta=1e-4))
    assert default.stop_reason == "tol" and default.converged
    assert default.iterations < OfflineHyperparams.t_max
    assert default.objective_trace[-1] < default.objective_trace[0]


def test_fit_twisted_cubic_recovery_and_failure():
    X = twisted_cubic(100, seed=5)
    mask1 = random_mask(3, 100, 0.0, seed=6, per_column_exact=1)
    mm1 = impute_init(np.where(mask1.observed, X, np.nan), mask1, strategy="zero")
    spec = KernelSpec.rbf(1.2)
    runs = [fit(mm1, spec, OfflineHyperparams(r=10, alpha=0.1, beta=1e-4,
                                              eta=0.5, t_max=3000, tol=1e-9,
                                              seed=s)) for s in (0, 1, 2)]
    best = min(runs, key=lambda mdl: mdl.objective_trace[-1])
    assert relative_error(best.completed, X) < 0.05

    mask2 = random_mask(3, 100, 0.0, seed=6, per_column_exact=2)
    mm2 = impute_init(np.where(mask2.observed, X, np.nan), mask2, strategy="zero")
    model2 = fit(mm2, spec, OfflineHyperparams(r=10, alpha=0.1, beta=1e-4,
                                               eta=0.5, t_max=3000, tol=1e-9,
                                               seed=0))
    assert relative_error(model2.completed, X) > 0.3


def test_fit_requires_observations(rng):
    M = np.full((3, 3), np.nan)
    mm = MaskedMatrix(M, Mask.from_dense(M), np.zeros((3, 3)))
    hp = OfflineHyperparams(r=2)
    with pytest.raises(ValueError):
        fit(mm, KernelSpec.rbf(1.0), hp)


def test_fit_numerical_error_carries_state(rng):
    # an explosive polynomial instance overflows; the error carries state
    X = 1e150 * np.ones((3, 8))
    mask = random_mask(3, 8, 0.4, seed=0)
    mm = impute_init(np.where(mask.observed, X, np.nan), mask)
    hp = OfflineHyperparams(r=2, alpha=0.1, beta=1e-8, tau=1.0001, eta=0.9,
                            t_max=50, tol=0.0, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as excinfo:
            fit(mm, KernelSpec.poly(3, 1.0), hp)
    err = excinfo.value
    assert err.model is not None
    assert err.trace is not None


def test_hyperparam_validation():
    with pytest.raises(ValueError):
        OfflineHyperparams(r=0)
    with pytest.raises(ValueError):
        OfflineHyperparams(r=2, tau=1.0)
    with pytest.raises(ValueError):
        OfflineHyperparams(r=2, eta=1.0)
    with pytest.raises(ValueError):
        OfflineHyperparams(r=2, beta=-0.1)
