"""Out-of-sample extension: complete new columns against a frozen dictionary.

New columns are cut into blocks of a fixed width :data:`BLOCK`; the last
block is padded with zero columns, which have nothing to move and are
frozen from the start.  The blocks sit side by side in one (m, n) array,
and one run of the streaming solver's inner loop completes them all, so
each iteration's Python cost is paid once per :data:`STACK` columns, not
once per block.
Every product in the loop is still one product per block at the block's
fixed shape (:func:`kfmc.kernels.block_product`), and every sum runs down
the columns, so each column is computed by the same kernel and summation
order whatever its position, its block, its neighbours or the number of
columns in the call: a column's output is bitwise the same alone, in bulk,
or in any order.  Products of varying width do not guarantee that.  A
stack iterates until its slowest column stops; a one-block call (a single
request) runs the loop on that block alone.
"""
from __future__ import annotations

import numpy as np

from .exceptions import NumericalError
from .kernels import KernelSpec
from .masking import Mask, impute_init
from .offline import OfflineHyperparams, _check_settings, fit
from .online import (OnlineHyperparams, SampleInfo, _code_system,
                     _complete_block, _prepare_columns)

# Columns per block.  Wider blocks make a single-column request, padded to
# one block, slower.
BLOCK = 8
# Most columns per stack (a multiple of BLOCK); a longer call runs one stack
# after another, so the loop's temporaries (m or r by STACK) stay bounded.
# At m = 30, r = 60, a 1024-column call took 0.026-0.031 ms per column with
# stacks of 64, 0.022-0.026 with 128, 0.020-0.026 with 256, 0.020-0.027 with
# 512 and 0.020-0.035 with 2048, and a 150-column call was fastest at 256
# (CPU time, best of 5 runs of 9 calls, 6 datasets, 2-vCPU x86 host,
# single-threaded OpenBLAS): a stack runs until its slowest column stops.
STACK = 256
# (spec, beta, D.shape), a read-only copy of D and its code system; stored
# after the loop, so the copy does not add to the loop's peak memory
_frozen = None


def train_dictionary(X_train: np.ndarray, spec: KernelSpec,
                     hp: OfflineHyperparams) -> np.ndarray:
    """Learn a dictionary from fully observed training data.

    Runs the batch solver, which skips the completion update when no entry
    is missing, so only the code and dictionary updates run.
    """
    X_train = np.asarray(X_train, dtype=float)
    if not np.all(np.isfinite(X_train)):
        raise ValueError("training data must be fully observed")
    mm = impute_init(X_train, Mask.full(*X_train.shape), strategy="zero")
    model = fit(mm, spec, hp)
    return model.dictionary


def complete_new(D: np.ndarray, samples, spec: KernelSpec, beta: float,
                 n_iter: int = OnlineHyperparams.n_iter,
                 tol: float = OnlineHyperparams.tol,
                 return_info: bool = False):
    """Complete a batch of (x, observed_idx) samples without touching D.

    The code system of D is kept for the next call: one entry per process,
    reused while spec, beta and the bits of D stay the same, else rebuilt
    and stored once the call has finished (never if it raised).  A call
    reads the entry once and replaces it in one assignment, so threads can
    share it.  The samples are prepared together.  A missing entry given
    as NaN starts at D's mean column, a finite one is a warm start.  They
    then run the streaming solver's inner loop, minus any dictionary
    update, on zero-padded blocks of :data:`BLOCK` columns side by side (per
    :data:`STACK` columns).  Each product in the loop is one BLOCK-wide
    product per block, so results are bitwise independent of batch
    composition, size and order.  The defaults of n_iter and tol are those
    of :class:`kfmc.online.OnlineHyperparams`: a column stops once one
    iteration changes its missing entries by less than tol relative to their
    norm.  Anderson mixing of full Newton steps takes a column of the
    benchmark's cases (m = 30, r = 60, 30% missing) to tol = 1e-3 in about
    6.7 of the 30 iterations.  A stack iterates until its slowest column
    stops.  ``return_info`` adds one :class:`SampleInfo` per sample.  A bad
    beta, n_iter or tol, index or observed value raises ValueError; indices
    must be distinct integers.  A :class:`NumericalError` names a failing sample
    in ``sample_index``; an indefinite K_DD + beta I raises one up front.
    """
    global _frozen
    D = np.asarray(D, dtype=float)
    _check_settings(beta=beta, n_iter=n_iter, tol=tol)
    key, entry = (spec, float(beta), D.shape), _frozen
    if entry is not None and entry[0] == key and np.array_equal(
            entry[1].view(np.uint64), D.view(np.uint64)):
        system = entry[2]
    else:
        _frozen = entry = None  # free the old system before building one
        system = _code_system(spec, D, beta)
    X0, missing = _prepare_columns(samples, D)
    m, n = X0.shape
    # zero-padded to whole blocks, which sit side by side
    width = -(-n // BLOCK) * BLOCK
    X = np.zeros((m, width))
    X[:, :n] = X0
    padded_missing = np.zeros((m, width), dtype=bool)
    padded_missing[:, :n] = missing
    del X0, missing  # not needed in the loop, whose peak memory they raise
    stats = []  # per stack: converged, iterations, objective
    for j0 in range(0, width, STACK):
        cols = slice(j0, j0 + STACK)
        try:
            X_stack, _, _, *stack_stats = _complete_block(
                spec, D, system, np.ascontiguousarray(X[:, cols]),
                np.ascontiguousarray(padded_missing[:, cols]), n_iter=n_iter,
                tol=tol, alpha=0.0, beta=beta, block=BLOCK)
        except NumericalError as exc:
            exc.sample_index += j0
            raise
        X[:, cols] = X_stack
        stats.append(stack_stats)
    if entry is None:
        entry = (key, D.copy(), system)
        for a in (entry[1], *system):
            a.flags.writeable = False
        _frozen = entry
    out = np.ascontiguousarray(X[:, :n])
    if return_info:
        # one SampleInfo per sample, none for the padding columns
        fields = (np.concatenate(a)[:n].tolist() for a in zip(*stats))
        return out, [SampleInfo(*f) for f in zip(*fields)]
    return out
