"""Streaming completion: per-sample inference plus SGD dictionary updates.

Each incoming column is completed by alternating an exact code solve with a
relaxed Newton step on its unobserved entries, after which the dictionary
takes one gradient step scaled by the spectral norm of the local curvature.
Model state is O(m*r + r^2); nothing sized by the stream length is stored.
Each kernel is evaluated once per state and handed to every consumer: K_DD
once per sample, next to its Cholesky factor, and k_xD once per point x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .exceptions import NumericalError
from .kernels import (KernelSpec, eval_kernel, kernel_diag, kernel_matrix,
                      power_weights)
from .offline import (EPS_DIAG, _poly_dictionary_hessian, _rbf_dictionary_parts,
                      grad_dictionary_poly_frozen)

# Floor for the spectral-norm scaling of the dictionary update.
EPS_NORM = 1e-12


@dataclass
class OnlineHyperparams:
    """Streaming solver settings: as the batch solver, plus the number of
    inner iterations per sample and the number of passes over the stream."""

    r: int
    alpha: float = 0.1
    beta: float = 0.1
    tau: float = 2.0
    eta: float = 0.5
    n_iter: int = 30
    n_pass: int = 1
    tol: float = 1e-6
    seed: int | None = 0

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("dictionary size r must be >= 1")
        if not self.tau > 1:
            raise ValueError("tau must be > 1")
        if self.beta < 0 or self.alpha < 0:
            raise ValueError("alpha and beta must be >= 0")
        if not 0 <= self.eta < 1:
            raise ValueError("eta must lie in [0, 1)")
        if self.n_iter < 1 or self.n_pass < 1:
            raise ValueError("n_iter and n_pass must be >= 1")


class OnlineModel:
    """Dictionary plus momentum buffer and running diagnostics."""

    def __init__(self, dictionary: np.ndarray):
        self.dictionary = np.asarray(dictionary, dtype=float).copy()
        self.dict_momentum = np.zeros_like(self.dictionary)
        self.samples_seen = 0
        self.cost_trace: list[float] = []
        self.err_trace: list[float] = []

    @classmethod
    def init(cls, m: int, r: int, seed: int | None = 0) -> "OnlineModel":
        rng = np.random.default_rng(seed)
        return cls(rng.standard_normal((m, r)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.dictionary.shape


@dataclass(frozen=True)
class SampleInfo:
    """Outcome of one sample's inner loop."""

    converged: bool
    hit_iter_limit: bool
    iterations: int
    objective: float


def sample_objective(spec: KernelSpec, x: np.ndarray, z: np.ndarray,
                     D: np.ndarray, alpha: float, beta: float,
                     k_xD=None, K_DD=None) -> float:
    """Per-sample objective 0.5||phi(x) - phi(D) z||^2 + regularizers."""
    k_xx = eval_kernel(spec, x, x)
    if k_xD is None:
        k_xD = kernel_matrix(spec, x[:, None], D)[0]
    if K_DD is None:
        K_DD = kernel_matrix(spec, D, D)
    fit_term = 0.5 * k_xx - float(k_xD @ z) + 0.5 * float(z @ (K_DD @ z))
    reg_d = float(kernel_diag(spec, D).sum()) if spec.is_poly else D.shape[1]
    return fit_term + 0.5 * alpha * reg_d + 0.5 * beta * float(z @ z)


def _sample_step(spec: KernelSpec, x: np.ndarray, z: np.ndarray,
                 D: np.ndarray, k_xD: np.ndarray, tau: float) -> np.ndarray:
    """Relaxed Newton increment on a single column (x moves by -step)."""
    if spec.is_poly:
        w1 = (float(x @ x) + spec.offset) ** (spec.degree - 1)
        w2 = (x @ D + spec.offset) ** (spec.degree - 1)
        grad = w1 * x - D @ (w2 * z)
        return grad / (tau * max(w1, EPS_DIAG))
    qv = -(z * k_xD)
    gamma = float(qv.sum())
    # |gamma| is the curvature magnitude of the frozen-kernel model; using
    # the magnitude keeps the step pointed at the stationary point D q/gamma.
    denom = max(abs(gamma), EPS_DIAG)
    return (D @ qv - gamma * x) / (tau * denom)


def _code_system(spec: KernelSpec, D: np.ndarray, beta: float):
    """K_DD and the Cholesky factor of (K_DD + beta I)."""
    K_DD = kernel_matrix(spec, D, D)
    try:
        return K_DD, cho_factor(K_DD + beta * np.eye(D.shape[1]), lower=True)
    except (LinAlgError, ValueError) as exc:
        raise NumericalError(f"code system factorization failed: {exc}") from exc


def _complete_column(D: np.ndarray, K_DD: np.ndarray, chol, spec: KernelSpec,
                     x0: np.ndarray, miss_idx: np.ndarray, *, tau: float,
                     eta: float, n_iter: int, tol: float, alpha: float,
                     beta: float):
    """Inner loop: alternate exact code solves with Newton steps on the
    unobserved entries of one column.  ``chol`` is the prefactorized
    (K_DD + beta I); only entries in ``miss_idx`` are modified.  Returns the
    column, its code, a :class:`SampleInfo` and the column's k_xD."""
    x = x0.copy()
    momentum = np.zeros_like(x)
    converged = miss_idx.size == 0
    iterations = 0
    k_xD = kernel_matrix(spec, x[:, None], D)[0]
    for _ in range(n_iter):
        if converged:
            break
        iterations += 1
        z = cho_solve(chol, k_xD)
        step = _sample_step(spec, x, z, D, k_xD, tau)
        momentum = eta * momentum + step
        x_try = x.copy()
        x_try[miss_idx] -= momentum[miss_idx]
        if eta == 0.0:
            # guarded Newton: a step that raises the per-sample objective is
            # retried once at doubled relaxation, then rejected
            before = sample_objective(spec, x, z, D, alpha, beta, k_xD, K_DD)
            k_try = kernel_matrix(spec, x_try[:, None], D)[0]
            after = sample_objective(spec, x_try, z, D, alpha, beta, k_try, K_DD)
            if after > before:
                step = _sample_step(spec, x, z, D, k_xD, 2.0 * tau)
                x_try = x.copy()
                x_try[miss_idx] -= step[miss_idx]
                momentum = step
                k_try = kernel_matrix(spec, x_try[:, None], D)[0]
                after = sample_objective(spec, x_try, z, D, alpha, beta, k_try,
                                         K_DD)
                if after > before:
                    converged = True
                    break
        if not np.all(np.isfinite(x_try)):
            raise NumericalError("sample completion produced non-finite values")
        delta = np.linalg.norm(x_try[miss_idx] - x[miss_idx])
        ref = max(np.linalg.norm(x[miss_idx]), 1e-30)
        x = x_try
        # a trial point's kernel was evaluated for its objective
        k_xD = k_try if eta == 0.0 else kernel_matrix(spec, x[:, None], D)[0]
        if delta < tol * ref:
            converged = True
    z = cho_solve(chol, k_xD)
    obj = sample_objective(spec, x, z, D, alpha, beta, k_xD, K_DD)
    if not np.all(np.isfinite(z)) or not np.isfinite(obj):
        raise NumericalError("sample inference produced non-finite values")
    return x, z, SampleInfo(converged, iterations >= n_iter, iterations, obj), k_xD


def _check_indices(observed_idx, m: int) -> np.ndarray:
    observed_idx = np.asarray(observed_idx, dtype=int)
    if np.any((observed_idx < 0) | (observed_idx >= m)):
        raise ValueError(f"observed indices must lie in [0, {m})")
    return observed_idx


def _prepare_column(x: np.ndarray, observed_idx: np.ndarray, D: np.ndarray):
    """Split one sample into a working vector and its missing index set.

    Missing entries that are NaN get an initial value (mean of the observed
    entries, or the dictionary's column mean when nothing is observed);
    finite values at missing positions are kept as a warm start.
    """
    m = D.shape[0]
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise ValueError(f"sample length {x.shape} does not match dictionary rows {m}")
    observed_idx = _check_indices(observed_idx, m)
    mask = np.zeros(m, dtype=bool)
    mask[observed_idx] = True
    miss_idx = np.nonzero(~mask)[0]
    x0 = x.copy()
    need_init = ~mask & ~np.isfinite(x0)
    if need_init.any():
        if observed_idx.size:
            fill = float(np.mean(x0[observed_idx]))
        else:
            fill = float('nan')
        if not np.isfinite(fill):
            x0[need_init] = D.mean(axis=1)[need_init]
        else:
            x0[need_init] = fill
    if not np.all(np.isfinite(x0[observed_idx] if observed_idx.size else x0)):
        raise ValueError("observed entries must be finite")
    return x0, miss_idx


def complete_sample(model: OnlineModel, x: np.ndarray, observed_idx: np.ndarray,
                    spec: KernelSpec, hp: OnlineHyperparams,
                    return_kernels: bool = False):
    """Complete one column against the current dictionary.

    Returns the completed column, its code vector, a :class:`SampleInfo` and,
    with ``return_kernels``, the (K_XD, K_DD) of the completed column.  The
    factorization of (K_DD + beta I) is reused across the inner iterations.
    """
    D = model.dictionary
    x0, miss_idx = _prepare_column(x, observed_idx, D)
    K_DD, chol = _code_system(spec, D, hp.beta)
    x_hat, z, info, k_xD = _complete_column(
        D, K_DD, chol, spec, x0, miss_idx, tau=hp.tau, eta=hp.eta,
        n_iter=hp.n_iter, tol=hp.tol, alpha=hp.alpha, beta=hp.beta)
    if return_kernels:
        return x_hat, z, info, (k_xD[None, :], K_DD)
    return x_hat, z, info


def update_dictionary(model: OnlineModel, x_completed: np.ndarray,
                      z: np.ndarray, spec: KernelSpec,
                      hp: OnlineHyperparams, kernels=None) -> None:
    """One SGD step on the dictionary for a completed sample (in place): the
    batch gradient and curvature of one column, whose (K_XD, K_DD) are
    ``kernels`` when :func:`complete_sample` returned them."""
    D = model.dictionary
    X, Z = x_completed[:, None], z[:, None]
    if spec.is_poly:
        W1 = (x_completed @ D + spec.offset)[None, :] ** (spec.degree - 1)
        W2 = power_weights(spec, D.T @ D)
        grad = grad_dictionary_poly_frozen(spec, X, D, Z, hp.alpha, W1, W2)
        curvature = _poly_dictionary_hessian(Z, hp.alpha, W2)
    else:
        grad, curvature = _rbf_dictionary_parts(spec, X, D, Z, hp.alpha, kernels)
    step = grad / (hp.tau * max(np.linalg.norm(curvature, 2), EPS_NORM))
    model.dict_momentum = hp.eta * model.dict_momentum + step
    model.dictionary = D - model.dict_momentum
    if not np.all(np.isfinite(model.dictionary)):
        raise NumericalError("dictionary update diverged")


def run_stream(samples, spec: KernelSpec, hp: OnlineHyperparams,
               ground_truth: np.ndarray | None = None,
               model: OnlineModel | None = None):
    """Process a stream of (x, observed_idx) pairs, optionally multi-pass.

    Between passes each column keeps its latest completion as the warm
    start.  Tracks the running empirical cost (mean of each sample's most
    recent terminal objective) and, when ground truth is supplied, the
    running mean relative recovery error per visit.

    Returns the completed matrix in stream order and the model.
    """
    samples = [(np.asarray(x, dtype=float), idx) for x, idx in samples]
    if not samples:
        raise ValueError("empty sample stream")
    m = samples[0][0].shape[0]
    if any(x.shape != (m,) for x, _ in samples):
        raise ValueError("all samples must have the same length")
    samples = [(x, _check_indices(idx, m)) for x, idx in samples]
    if model is None:
        model = OnlineModel.init(m, hp.r, hp.seed)
    n = len(samples)
    work = np.full((m, n), np.nan)
    for j, (x, idx) in enumerate(samples):
        work[idx, j] = x[idx]
    last_cost = np.full(n, np.nan)
    cost_sum = 0.0
    seen = 0
    err_sum = 0.0
    visits = 0
    for _ in range(hp.n_pass):
        for j in range(n):
            _, obs_idx = samples[j]
            try:
                x_hat, z, info, kernels = complete_sample(
                    model, work[:, j], obs_idx, spec, hp, return_kernels=True)
                update_dictionary(model, x_hat, z, spec, hp, kernels)
            except NumericalError as exc:
                exc.sample_index = j
                exc.model = model
                raise
            work[:, j] = x_hat
            model.samples_seen += 1
            if np.isnan(last_cost[j]):
                seen += 1
                cost_sum += info.objective
            else:
                cost_sum += info.objective - last_cost[j]
            last_cost[j] = info.objective
            model.cost_trace.append(cost_sum / seen)
            if ground_truth is not None:
                truth = ground_truth[:, j]
                visits += 1
                err_sum += np.linalg.norm(truth - x_hat) / max(
                    np.linalg.norm(truth), 1e-30)
                model.err_trace.append(err_sum / visits)
    return work, model
