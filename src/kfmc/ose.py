"""Out-of-sample extension: complete new columns against a frozen dictionary."""
from __future__ import annotations

import numpy as np

from .exceptions import NumericalError
from .kernels import KernelSpec
from .masking import Mask, impute_init
from .offline import OfflineHyperparams, fit
from .online import SampleInfo, _code_system, _complete_column, _prepare_column


def train_dictionary(X_train: np.ndarray, spec: KernelSpec,
                     hp: OfflineHyperparams) -> np.ndarray:
    """Learn a dictionary from fully observed training data.

    Runs the batch solver with the completion update skipped (the data is
    already complete, so only the code and dictionary updates are needed).
    """
    X_train = np.asarray(X_train, dtype=float)
    if not np.all(np.isfinite(X_train)):
        raise ValueError("training data must be fully observed")
    mm = impute_init(X_train, Mask.full(*X_train.shape), strategy="zero")
    model = fit(mm, spec, hp, update_completion=False)
    return model.dictionary


def complete_new(D: np.ndarray, samples, spec: KernelSpec, beta: float,
                 n_iter: int = 30, eta: float = 0.5, tau: float = 2.0,
                 tol: float = 1e-6,
                 return_info: bool = False):
    """Complete a batch of (x, observed_idx) samples without touching D.

    The factorization of (K_DD + beta I) is computed once for the whole
    batch; each sample then runs the same inner loop as the streaming
    solver, minus any dictionary update.  Results are independent of batch
    composition and order.
    """
    D = np.asarray(D, dtype=float)
    K_DD, chol = _code_system(spec, D, beta)
    completed = []
    infos: list[SampleInfo] = []
    for j, (x, idx) in enumerate(samples):
        x0, miss_idx = _prepare_column(np.asarray(x, dtype=float),
                                       np.asarray(idx, dtype=int), D)
        try:
            x_hat, _, info, _ = _complete_column(
                D, K_DD, chol, spec, x0, miss_idx, tau=tau, eta=eta,
                n_iter=n_iter, tol=tol, alpha=0.0, beta=beta)
        except NumericalError as exc:
            exc.sample_index = j
            raise
        completed.append(x_hat)
        infos.append(info)
    out = np.column_stack(completed) if completed else np.empty((D.shape[0], 0))
    if return_info:
        return out, infos
    return out
