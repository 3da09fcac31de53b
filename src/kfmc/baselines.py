"""Low-rank comparators: alternating least squares completion and the
SVD-basis out-of-sample formula."""
from __future__ import annotations

import numpy as np

from .masking import MaskedMatrix


def _ridge_rows(target_rows, factor, obs, ridge, out):
    """Solve one ALS half-sweep: for each row i of ``out``, ridge-regress the
    observed entries of ``target_rows[i]`` onto the rows of ``factor``."""
    r = factor.shape[1]
    eye = ridge * np.eye(r)
    for i in range(out.shape[0]):
        sel = obs[i]
        if not sel.any():
            out[i] = 0.0
            continue
        F = factor[sel]
        out[i] = np.linalg.solve(F.T @ F + eye, F.T @ target_rows[i, sel])


def _lrf_objective(values, obs, U, V, ridge):
    resid = values - U @ V.T
    return float(np.sum(resid[obs] ** 2)
                 + ridge * (np.sum(U * U) + np.sum(V * V)))


def lrf_complete(mm: MaskedMatrix, rank: int, ridge: float = 1e-4,
                 iters: int = 100, seed: int | None = 0,
                 return_trace: bool = False):
    """Low-rank factorization completion by alternating ridge least squares.

    Fits U V' to the observed entries, sweeping rows of U then rows of V
    ``iters`` >= 1 times; rows or columns with no observations fall back to
    zero.  The completion is U V' with the observed entries overwritten by
    the data.  ``ridge`` must be >= 0.
    """
    m, n = mm.shape
    if not 1 <= rank <= min(m, n):
        raise ValueError(f"rank must lie in [1, {min(m, n)}]")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if not ridge >= 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    obs = mm.mask.observed
    values = np.where(obs, mm.values, 0.0)
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((m, rank))
    V = rng.standard_normal((n, rank))
    trace = []
    for _ in range(iters):
        _ridge_rows(values, V, obs, ridge, U)
        trace.append(_lrf_objective(values, obs, U, V, ridge))
        _ridge_rows(values.T, U, obs.T, ridge, V)
        trace.append(_lrf_objective(values, obs, U, V, ridge))
    X = U @ V.T
    X[obs] = mm.values[obs]
    if return_trace:
        return X, np.asarray(trace)
    return X


def svd_basis(X_train: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the leading left singular subspace."""
    X_train = np.asarray(X_train, dtype=float)
    if not 1 <= rank <= min(X_train.shape):
        raise ValueError(f"rank must lie in [1, {min(X_train.shape)}]")
    U, _, _ = np.linalg.svd(X_train, full_matrices=False)
    return U[:, :rank]


def ose_lrf(U: np.ndarray, x: np.ndarray, observed_idx: np.ndarray,
            ridge: float = 0.0) -> np.ndarray:
    """Complete one column against an orthonormal basis U.

    Missing entries are U_miss (U_obs' U_obs + ridge I)^{-1} U_obs' x_obs;
    observed entries are returned untouched.  ``ridge`` must be >= 0; with
    ``ridge == 0`` and fewer observed entries than the rank of U that system
    is singular, and a ValueError is raised before solving.
    """
    if not ridge >= 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    U = np.asarray(U, dtype=float)
    x = np.asarray(x, dtype=float)
    observed_idx = np.asarray(observed_idx, dtype=int)
    if observed_idx.size == 0:
        raise ValueError("at least one observed entry is required")
    m, r = U.shape
    if ridge == 0 and observed_idx.size < r:
        raise ValueError(f"{observed_idx.size} observed entries are fewer than "
                         f"the basis rank {r}: the fit is singular without a "
                         "ridge > 0")
    mask = np.zeros(m, dtype=bool)
    mask[observed_idx] = True
    Uo = U[mask]
    coef = np.linalg.solve(Uo.T @ Uo + ridge * np.eye(r), Uo.T @ x[mask])
    x_hat = x.copy()
    x_hat[~mask] = U[~mask] @ coef
    return x_hat
