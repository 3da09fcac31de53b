"""Batch completion: alternating code / dictionary / completion updates.

The model factorizes the (implicit) feature image of the data as
phi(X) ~ phi(D) Z and minimizes

    0.5 Tr(K_XX - 2 K_XD Z + Z' K_DD Z) + 0.5 alpha Tr(K_DD) + 0.5 beta ||Z||_F^2

over Z (closed form), D, and the unobserved entries of X (relaxed Newton
steps with momentum), projecting X back onto the observed data after every
sweep.  For the RBF kernel the alpha term is a constant.
The kernels (K_XD, K_DD) of each (X, D) state are evaluated once and handed
to every consumer through its optional ``kernels`` argument.

All three solvers (batch, streaming and out-of-sample) share this module's
algebra.  Codes come from one operator, S = (K_DD + beta I)^-1, built by
:func:`_solve_operator` as L^-T L^-1 from the Cholesky factor L and applied
as one product (solves with the factor run several times slower).  All
linear algebra is numpy's.  A column's objective is
:func:`_column_objective`, which :func:`objective` sums over the columns
and the inner loop reports column by column.  The completion
update is the column-wise :func:`_sample_step`, a column's gradient over
the curvature of its frozen-weight model.  For poly both carry the factor
q = degree, which cancels.  RBF divides by the curvature's magnitude, so it
descends even where sum(z k(D, x)) < 0.  The batch and the stream
dictionary updates both scale the gradient of :func:`_dictionary_parts` by
its curvature.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NumericalError
from .kernels import (KernelSpec, block_product, kernel_diag, kernel_matrix,
                      power_weights)
from .masking import MaskedMatrix

# Floor for the diagonal Newton scalings of the completion update.
EPS_DIAG = 1e-12


def _check_settings(*, tau: float = 2.0, eta: float = 0.0, r: int = 1,
                    alpha: float = 0.0, beta: float = 0.0, n_iter: int = 1,
                    tol: float = 0.0) -> None:
    """Raise ValueError unless r >= 1, tau > 1, alpha, beta, tol >= 0, eta
    lies in [0, 1) and n_iter >= 1: the settings every solver shares.  A
    setting a solver does not have keeps its valid default."""
    if not r >= 1:
        raise ValueError("dictionary size r must be >= 1")
    if not tau > 1:
        raise ValueError("tau must be > 1")
    if not (alpha >= 0 and beta >= 0):
        raise ValueError("alpha and beta must be >= 0")
    if not 0 <= eta < 1:
        raise ValueError("eta must lie in [0, 1)")
    if not n_iter >= 1:
        raise ValueError("n_iter must be >= 1")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")


@dataclass
class OfflineHyperparams:
    """Batch solver settings.

    r is the dictionary size; alpha and beta regularize the dictionary image
    and the codes; tau > 1 relaxes the Newton steps; eta in [0, 1) is the
    momentum weight.  Iteration stops once one sweep changes the objective
    by less than tol relative to the previous sweep, or after t_max sweeps.
    On the union-nonlinear preset the change per sweep falls below the
    default 1e-4 after some 200-250 sweeps but reaches 1e-6 only near
    sweep 430-500, while the relative error hardly moves in between.
    """

    r: int
    alpha: float = 0.1
    beta: float = 0.1
    tau: float = 2.0
    eta: float = 0.5
    t_max: int = 500
    tol: float = 1e-4
    seed: int | None = 0

    def __post_init__(self):
        _check_settings(r=self.r, alpha=self.alpha, beta=self.beta,
                        tau=self.tau, eta=self.eta, tol=self.tol)
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")


@dataclass
class OfflineModel:
    """Fitted state: dictionary, codes, completed data, and diagnostics."""

    dictionary: np.ndarray
    codes: np.ndarray
    mm: MaskedMatrix
    objective_trace: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations: int = 0
    stop_reason: str = "t_max"  # see :func:`fit`; "numerical" if it raised

    @property
    def converged(self) -> bool:
        """Whether :func:`fit` stopped by ``tol``."""
        return self.stop_reason == "tol"

    @property
    def completed(self) -> np.ndarray:
        return self.mm.completion


def _state_kernels(spec: KernelSpec, X: np.ndarray, D: np.ndarray, kernels=None):
    """(K_XD, K_DD) of the state (X, D): ``kernels`` if given, else evaluated."""
    if kernels is None:
        kernels = (kernel_matrix(spec, X, D), kernel_matrix(spec, D, D))
    return kernels


def _dictionary_reg(spec: KernelSpec, D: np.ndarray) -> float:
    """Tr K_DD, the dictionary regularizer: r for RBF, whose k(d, d) = 1."""
    return float(kernel_diag(spec, D).sum()) if spec.is_poly else D.shape[1]


def _column_objective(spec: KernelSpec, X: np.ndarray, Z: np.ndarray,
                      K: np.ndarray, K_DD: np.ndarray, alpha: float,
                      beta: float, reg_d: float,
                      block: int | None = None) -> np.ndarray:
    """Per-column objective (b,) of the columns X (m, b) with codes Z (r, b)
    and K = k(D, X) (r, b): 0.5 k(x, x) - k(D, x)'z + 0.5 z'K_DD z
    + 0.5 alpha reg_d + 0.5 beta ||z||^2, added in that order, with
    reg_d = Tr K_DD.  ``block`` is the layout of :func:`block_product`."""
    # k(x, x) = 1 for RBF
    self_term = 0.5 * kernel_diag(spec, X) if spec.is_poly else 0.5
    return (self_term - np.add.reduce(K * Z, axis=0)
            + 0.5 * np.add.reduce(Z * block_product(K_DD, Z, block), axis=0)
            + 0.5 * alpha * reg_d + 0.5 * beta * np.add.reduce(Z * Z, axis=0))


def objective(spec: KernelSpec, X: np.ndarray, D: np.ndarray, Z: np.ndarray,
              alpha: float, beta: float, kernels=None) -> float:
    """Value of the kernelized factorization objective at (X, D, Z): the
    per-column objective without its dictionary term, summed over the
    columns, plus the dictionary term once."""
    K_XD, K_DD = _state_kernels(spec, X, D, kernels)
    columns = _column_objective(spec, X, Z, K_XD.T, K_DD, 0.0, beta, 0.0)
    return float(columns.sum()) + 0.5 * alpha * _dictionary_reg(spec, D)


def _solve_operator(K_DD: np.ndarray, beta: float,
                    what: str = "code solve") -> np.ndarray:
    """The code-solve operator (K_DD + beta I)^-1, exactly symmetric.

    S = L^-T L^-1 from the Cholesky factor L, with the strict upper triangle
    mirrored from the lower one.  The LU inverse of K_DD + beta I is faster,
    but its codes miss the Cholesky solve's by 3e-9 relative at r = 256,
    against 1.2e-10.  Cholesky is the positive-definiteness check; it does
    not reject NaN, so finiteness is checked first.  A failure raises
    :class:`NumericalError` with a message starting ``what``.
    """
    r = K_DD.shape[0]
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(
            np.asarray_chkfinite(K_DD + beta * np.eye(r))))
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"{what} failed: {exc}") from exc
    S = L_inv.T @ L_inv
    np.copyto(S, S.T, where=~np.tri(r, dtype=bool))
    return S


def solve_codes(spec: KernelSpec, X: np.ndarray, D: np.ndarray,
                beta: float, kernels=None) -> np.ndarray:
    """Exact minimizer over the codes: (K_DD + beta I) \\ K_XD'.

    Computed as ``S @ K_XD'`` with the operator of :func:`_solve_operator`,
    the same one the streaming and out-of-sample inner loop applies.
    """
    K_XD, K_DD = _state_kernels(spec, X, D, kernels)
    Z = _solve_operator(K_DD, beta) @ K_XD.T
    if not np.all(np.isfinite(Z)):
        raise NumericalError("code solve produced non-finite values")
    return Z


def _dictionary_parts(spec: KernelSpec, X: np.ndarray, D: np.ndarray,
                      Z: np.ndarray, alpha: float, kernels=None):
    """Dictionary gradient and symmetric curvature (r, r) of X with codes Z.

    RBF: the exact gradient of :func:`objective` and its curvature,
    symmetrized.  Poly: those of the surrogate with the power weights
    W1 = (X'D + c)^(q-1) and W2 = (D'D + c)^(q-1) held fixed; the true
    gradient is ``degree`` times this one.
    """
    r = D.shape[1]
    if spec.is_poly:
        W1 = power_weights(spec, X.T @ D)
        W2 = power_weights(spec, D.T @ D)
        ZZ = Z @ Z.T
        g = -X @ (W1 * Z.T) + D @ ((ZZ + alpha * np.eye(r)) * W2)
        H = ZZ * W2
        H[np.diag_indices_from(H)] += alpha * np.diag(W2)
        return g, H
    s2 = spec.sigma**2
    K_XD, K_DD = _state_kernels(spec, X, D, kernels)
    Q1 = -(Z.T * K_XD)
    Q2 = (0.5 * (Z @ Z.T) + 0.5 * alpha * np.eye(r)) * K_DD
    g1 = Q1.sum(axis=0)
    g2 = Q2.sum(axis=0)
    g = (2.0 / s2) * (X @ Q1 - D * g1) + (4.0 / s2) * (D @ Q2 - D * g2)
    H = (2.0 / s2) * (2.0 * Q2 - np.diag(g1) - 2.0 * np.diag(g2))
    return g, 0.5 * (H + H.T)


def dictionary_step(spec: KernelSpec, X: np.ndarray, D: np.ndarray,
                    Z: np.ndarray, alpha: float, tau: float,
                    kernels=None) -> np.ndarray:
    """Relaxed Newton increment for the dictionary (D moves by -step): the
    gradient of :func:`_dictionary_parts` over its damped curvature H, by LU
    (numpy runs the triangular solves of a Cholesky factor as general ones,
    so they are no faster).  The poly H must be positive definite."""
    r = D.shape[1]
    g, H = _dictionary_parts(spec, X, D, Z, alpha, kernels)
    if not np.any(g):
        return np.zeros_like(D)
    H = H + (1e-8 * abs(np.trace(H)) / r) * np.eye(r)
    try:
        H, g = np.asarray_chkfinite(H), np.asarray_chkfinite(g)
        if spec.is_poly:
            np.linalg.cholesky(H)  # raises unless H is positive definite
        step = (1.0 / tau) * np.linalg.solve(H, g.T).T
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"Newton scaling solve failed: {exc}") from exc
    if not np.all(np.isfinite(step)):
        raise NumericalError("dictionary step produced non-finite values")
    return step


def _sample_step(spec: KernelSpec, x: np.ndarray, z: np.ndarray,
                 D: np.ndarray, k_xD: np.ndarray, tau: float,
                 block: int | None = None) -> np.ndarray:
    """Relaxed Newton increment (x moves by -step) on one column (m,), or
    column-wise on a block (m, b) with codes and k(D, x) of shape (r, b).
    ``block`` is the layout of :func:`block_product`."""
    # column sums kept as rows, which broadcast against x
    if spec.is_poly:
        w1 = (np.add.reduce(x * x, axis=0, keepdims=True)
              + spec.offset) ** (spec.degree - 1)
        w2 = (block_product(D.T, x, block) + spec.offset) ** (spec.degree - 1)
        grad = w1 * x - block_product(D, w2 * z, block)
        return grad / (tau * np.maximum(w1, EPS_DIAG))
    # (g x - D P) / (tau |g|) with P = z k(D, x) and g = sum(P).  |g| is the
    # curvature magnitude of the frozen-kernel model; using the magnitude
    # keeps the step pointed at the stationary point D P / g.
    P = z * k_xD
    g = np.add.reduce(P, axis=0, keepdims=True)
    step = g * x
    step -= block_product(D, P, block)
    step /= tau * np.maximum(np.abs(g), EPS_DIAG)
    return step


def completion_step(spec: KernelSpec, X: np.ndarray, D: np.ndarray,
                    Z: np.ndarray, tau: float, kernels=None) -> np.ndarray:
    """Relaxed Newton increment for the completion (X moves by -step): the
    column-wise step of :func:`_sample_step` on every column of X.

    The scaling is diagonal per column, so the step restricted to the
    unobserved entries is itself a valid step.
    """
    K = None
    if spec.is_rbf:
        K = kernel_matrix(spec, D, X) if kernels is None else kernels[0].T
    step = _sample_step(spec, X, Z, D, K, tau)
    if not np.all(np.isfinite(step)):
        raise NumericalError("completion step produced non-finite values")
    return step


def fit(mm: MaskedMatrix, spec: KernelSpec,
        hp: OfflineHyperparams) -> OfflineModel:
    """Run the batch solver and return the completed model.

    Each sweep solves the codes in closed form, moves the dictionary and
    then, at the new dictionary, the completion by -mom, ``mom = eta * mom
    + step`` for the relaxed Newton step, and evaluates the objective at
    that end point, whose kernels the state keeps.  With no entry missing
    the completion update is skipped; it saves a kernel and changes no bit.
    Every ``eta`` takes this one path: eta = 0 means no momentum, plain
    relaxed Newton steps.  With momentum, transient rises help the
    iteration escape poor joint configurations.  ``stop_reason`` is
    "tol" once a sweep changes the objective by less than ``hp.tol``
    relative to the previous sweep (``converged``), else "t_max";
    "diverged" if the last objective ends above the first.  Stopping by
    ``tol`` only cuts the run short: the result equals that of the same
    settings with ``t_max`` set to the sweeps run and ``tol = 0``, bit for
    bit.
    """
    if mm.mask.n_observed < 1:
        raise ValueError("at least one observed entry is required")
    m, n = mm.shape
    D = np.random.default_rng(hp.seed).standard_normal((m, hp.r))
    mom_D = np.zeros_like(D)
    mom_X = np.zeros((m, n))
    X = mm.completion.copy()
    obs = mm.mask.observed
    has_missing = not obs.all()
    trace: list[float] = []
    Z = np.zeros((hp.r, n))
    stop_reason = "t_max"
    t = 0

    def partial_model():
        result = mm.copy()
        result.completion[:] = X
        return OfflineModel(D, Z, result, np.asarray(trace), t, stop_reason)

    kernels = _state_kernels(spec, X, D)  # of the current (X, D)
    try:
        for t in range(1, hp.t_max + 1):
            Z = solve_codes(spec, X, D, hp.beta, kernels)
            mom_D = hp.eta * mom_D + dictionary_step(spec, X, D, Z, hp.alpha,
                                                     hp.tau, kernels)
            D_new = D - mom_D
            if not np.all(np.isfinite(D_new)):
                raise NumericalError("dictionary update diverged")
            K_DD = kernel_matrix(spec, D_new, D_new)
            X_new = X
            if has_missing:
                # only the RBF completion step reads K_XD of (X, D_new)
                K_XD = kernel_matrix(spec, X, D_new) if spec.is_rbf else None
                mom_X = hp.eta * mom_X + completion_step(
                    spec, X, D_new, Z, hp.tau, (K_XD, K_DD))
                X_new = np.where(obs, X, X - mom_X)
                if not np.all(np.isfinite(X_new)):
                    raise NumericalError("completion update diverged")
            kernels = (kernel_matrix(spec, X_new, D_new), K_DD)
            X, D = X_new, D_new
            trace.append(objective(spec, X, D, Z, hp.alpha, hp.beta, kernels))
            if len(trace) >= 2:
                prev = trace[-2]
                if abs(trace[-1] - prev) < hp.tol * max(abs(prev), 1e-30):
                    stop_reason = "tol"
                    break
    except NumericalError as exc:
        stop_reason = "numerical"
        exc.model = partial_model()
        exc.trace = np.asarray(trace)
        raise

    if trace[-1] > trace[0]:
        stop_reason = "diverged"
    return partial_model()
