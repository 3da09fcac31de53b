"""Out-of-sample extension: complete new columns against a frozen dictionary.

New columns run the streaming solver's inner loop in blocks of a fixed width
:data:`BLOCK`; the last block is padded with zero columns, which have
nothing to move and are frozen from the start.  Every product in the loop
therefore has the same shape, so BLAS computes each column of it by the
same kernel and summation order whatever the column's position, its
neighbours or the number of columns in the call: a column's output is
bitwise the same alone, in bulk, or in any order.  Products of varying
width do not guarantee that.
"""
from __future__ import annotations

import numpy as np

from .exceptions import NumericalError
from .kernels import KernelSpec
from .masking import Mask, impute_init
from .offline import OfflineHyperparams, _check_settings, fit
from .online import SampleInfo, _code_system, _complete_block, _prepare_column

# Columns per block.  Wider blocks make a single-column request, padded to
# one block, slower.
BLOCK = 8


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

    The code system of D is built once for the whole batch; the samples
    then run the streaming solver's inner loop, minus any dictionary update,
    in zero-padded blocks of :data:`BLOCK` columns.  Results are bitwise
    independent of batch composition and order.  A bad tau, eta or n_iter
    raises ValueError.  A :class:`NumericalError` names a failing sample in
    ``sample_index``; an indefinite K_DD + beta I raises one up front.
    """
    D = np.asarray(D, dtype=float)
    _check_settings(tau=tau, eta=eta, n_iter=n_iter)
    system = _code_system(spec, D, beta)
    columns = [_prepare_column(x, idx, D) for x, idx in samples]
    m, n = D.shape[0], len(columns)
    out = np.empty((m, n))
    infos: list[SampleInfo] = []
    for j0 in range(0, n, BLOCK):
        block = columns[j0:j0 + BLOCK]
        X0 = np.zeros((m, BLOCK))
        missing = np.zeros((m, BLOCK), dtype=bool)
        for i, (x0, miss) in enumerate(block):
            X0[:, i], missing[:, i] = x0, miss
        try:
            X, _, _, block_infos = _complete_block(
                spec, D, system, X0, missing, tau=tau, eta=eta, n_iter=n_iter,
                tol=tol, alpha=0.0, beta=beta)
        except NumericalError as exc:
            exc.sample_index += j0
            raise
        out[:, j0:j0 + len(block)] = X[:, :len(block)]
        infos += block_infos[:len(block)]
    if return_info:
        return out, infos
    return out
