"""Evaluation metrics: relative error and numerical rank."""
from __future__ import annotations

import numpy as np


def relative_error(X_hat: np.ndarray, X_true: np.ndarray) -> float:
    """Frobenius-norm ratio ||X_hat - X_true||_F / ||X_true||_F."""
    X_hat = np.asarray(X_hat, dtype=float)
    X_true = np.asarray(X_true, dtype=float)
    if X_hat.shape != X_true.shape:
        raise ValueError(f"shape mismatch: {X_hat.shape} vs {X_true.shape}")
    denom = np.linalg.norm(X_true)
    if denom == 0:
        raise ValueError("reference matrix has zero norm")
    return float(np.linalg.norm(X_hat - X_true) / denom)


def numerical_rank(X: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Number of singular values above rel_tol times the largest."""
    if not 0 < rel_tol < 1:
        raise ValueError("rel_tol must lie in (0, 1)")
    s = np.linalg.svd(np.asarray(X, dtype=float), compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))
