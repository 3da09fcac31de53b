"""Streaming completion: block inference plus SGD dictionary updates.

Each block of :data:`BATCH` columns is completed by alternating an exact
code solve with a full Newton step on its unobserved entries, mixed by
Anderson acceleration; then the dictionary takes one gradient step over tau
times the spectral norm of the block's curvature divided by sqrt(b)
(mini-batches as in arXiv:0908.0050, the sqrt(b) rule of arXiv:1404.5997).
The step, the per-column objective and the code solve are the batch solver's
(:mod:`kfmc.offline`), so all three solvers share one algebra.  Model state
is O(m*r + r^2), except ``cost_trace`` / ``err_trace``, which gain one entry
per visit; :func:`run_stream` also holds the (m, n) stream.

One inner loop, :func:`_complete_block`, serves the streaming and the
out-of-sample solvers.  It works on an (m, n) array of columns, taken as
one block or as blocks of a fixed width side by side: the stream calls it
with one block of at most BATCH columns, :func:`kfmc.ose.complete_new` with
zero-padded blocks of a fixed width.  Each step is a column-wise array
operation, a product that runs once per block at the block's fixed shape
(:func:`kfmc.kernels.block_product`), or a small system solved per column,
and a finished column is frozen, so with a fixed width a column's bits
depend on neither its position, its block nor its neighbours.  The kernels
and codes of an iteration span every column, stopped or not; with Anderson
mixing the blocks of a call stop within a few iterations of each other.
Each kernel is evaluated once per state and handed to every consumer: K_DD
once per dictionary, next to the solve operator, and K(D, X) once per state
of the columns, so an iteration costs one kernel, of its new point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalError
from .kernels import (KernelSpec, block_product, column_sq_norms,
                      kernel_diag, kernel_matrix)
from .offline import (_check_settings, _column_objective, _dictionary_parts,
                      _dictionary_reg, _sample_step, _solve_operator)

# Floor for the spectral-norm scaling of the dictionary update.
EPS_NORM = 1e-12
# Columns per block of the stream, which runs one inner loop and one step.
BATCH = 2
# Step differences each column's Anderson mixing remembers, and the ridge,
# relative to its trace, added to their Gram matrix.
MEMORY = 3
RIDGE = 1e-12
# Added to that ridge, so that a zero Gram matrix stays solvable.
FLOOR = np.finfo(float).tiny


@dataclass
class OnlineHyperparams:
    """Streaming solver settings: as the batch solver, plus the number of
    inner iterations per sample and the number of passes over the stream.

    tau relaxes and eta gives momentum to the dictionary step only: the
    inner loop takes full Newton steps, mixed by Anderson acceleration.  The
    inner loop stops a column once one iteration changes its missing
    entries by less than tol relative to their norm, or after n_iter
    iterations.  At the default tol = 1e-3 a column of the union-nonlinear
    preset (m = 30, r = 60) takes about 7 iterations and hardly ever
    reaches the n_iter = 30 cap; tol = 1e-6 takes about 12.  The defaults
    of n_iter and tol are also those of :func:`kfmc.ose.complete_new`.
    """

    r: int
    alpha: float = 0.1
    beta: float = 0.1
    tau: float = 2.0
    eta: float = 0.5
    n_iter: int = 30
    n_pass: int = 1
    tol: float = 1e-3
    seed: int | None = 0

    def __post_init__(self):
        _check_settings(r=self.r, alpha=self.alpha, beta=self.beta,
                        tau=self.tau, eta=self.eta, n_iter=self.n_iter,
                        tol=self.tol)
        if self.n_pass < 1:
            raise ValueError("n_pass must be >= 1")


class OnlineModel:
    """Dictionary plus momentum buffer and running diagnostics.

    ``inner_iterations`` and ``samples_hit_iter_limit`` total the inner
    loops this model ran; checkpoints do not store them.
    ``samples_seen`` is stored, and a resumed model counts on from it.
    """

    def __init__(self, dictionary: np.ndarray, samples_seen: int = 0):
        self.dictionary = np.asarray(dictionary, dtype=float).copy()
        self.dict_momentum = np.zeros_like(self.dictionary)
        self.samples_seen = samples_seen
        self.inner_iterations = 0
        self.samples_hit_iter_limit = 0
        self.cost_trace: list[float] = []
        self.err_trace: list[float] = []


@dataclass(frozen=True)
class SampleInfo:
    """Outcome of one sample's inner loop, stopped by tol or at n_iter."""

    converged: bool
    iterations: int
    objective: float

    @property
    def hit_iter_limit(self) -> bool:
        """Whether the loop reached n_iter without meeting tol: a column
        that has not converged has run all n_iter iterations."""
        return not self.converged


def _code_system(spec: KernelSpec, D: np.ndarray, beta: float):
    """What the inner loop needs of a fixed D: K_DD, the solve operator
    (K_DD + beta I)^-1 and the squared column norms of D.  The operator is
    the batch solver's (:func:`kfmc.offline._solve_operator`): codes are one
    product with it, since a triangular solve per iteration costs several
    times more than the product on a block."""
    K_DD = kernel_matrix(spec, D, D)
    solve_op = _solve_operator(K_DD, beta, "code system factorization")
    return K_DD, solve_op, column_sq_norms(D)


def _complete_block(spec: KernelSpec, D: np.ndarray, system, X: np.ndarray,
                    missing: np.ndarray, *, n_iter: int, tol: float,
                    alpha: float, beta: float, block: int | None = None):
    """Inner loop on the columns of X (m, n): alternate exact code solves
    with full Newton steps on the entries where ``missing`` is True, mixed
    by Anderson acceleration.

    ``system`` comes from :func:`_code_system`.  ``X`` is completed in
    place, so the caller passes an array of its own.  A column with nothing
    missing never moves.  The plain iteration is g(x) = x - step(x) on a
    column's missing entries x, the step of :func:`kfmc.offline._sample_step`
    unrelaxed: the mixing needs no damping, and relaxing by tau = 2 took a
    fourth more iterations.  Anderson mixing (Anderson, J. ACM 12, 1965;
    Walker & Ni, SIAM J. Numer. Anal. 49, 2011) keeps the last
    :data:`MEMORY` differences of a column's steps and of its g, fits the
    step by the step differences in least squares, and moves to g minus the
    same combination of the g differences.  A mixed iterate that raises its
    column's objective is dropped for the plain step from the iterate before
    it, and the column's history starts afresh.  A column stops when
    one iteration changes its missing entries by less than ``tol`` relative
    to their norm, or after ``n_iter`` iterations, and from then on keeps
    its values and kernel.  With ``block``, X holds blocks of that width
    side by side: every product runs once per block (see
    :func:`kfmc.kernels.block_product`), every sum runs down the rows of one
    column and each column solves its own system, so a block gets the bits
    it gets alone.  Returns the completed X, the codes and k(D, x) of each
    column (r, n), and per column (n,) whether it met tol, its iterations
    and its terminal objective, the fields of :class:`SampleInfo`.  Raises
    :class:`NumericalError` naming the first non-finite column in
    ``sample_index``; a non-finite entry stays non-finite, so checking once
    at the end finds every column that failed on the way.
    """
    K_DD, solve_op, sq_D = system
    tol2 = tol * tol
    n = X.shape[1]
    counts = np.count_nonzero(missing, axis=0)
    done = counts == 0
    iterations = np.zeros(n, dtype=int)
    K = kernel_matrix(spec, D, X, sq_D, block)
    # the running columns ``who``, and their missing entries column by
    # column: ``counts`` of them from ``starts``, at flat indices ``at``
    # into X, with values ``x``
    who = np.flatnonzero(counts)
    counts = counts[who]
    starts = np.cumsum(counts) - counts
    at = np.ravel_multi_index(np.nonzero(missing.T)[::-1], missing.shape)
    x = X.take(at)
    # hist[0] holds the step and g at those entries, and hist[1:] a ring of
    # the last MEMORY differences of both
    hist = np.zeros((MEMORY + 1, 2, x.size))
    # each column's objective at its last accepted iterate, as
    # k(D, x)'z - k(x, x), minus twice the objective at the exact code up to
    # a constant (-inf: accept the next iterate as it comes)
    last = np.full(n, -np.inf)
    k = 0
    while who.size and k < n_iter:
        Z = block_product(solve_op, K, block)
        step, g = hist[0]
        _sample_step(spec, X, Z, D, K, 1.0, block).take(at, out=step)
        np.subtract(x, step, out=g)
        if k:
            level = np.add.reduce(K * Z, axis=0)
            if spec.is_poly:
                level -= kernel_diag(spec, X)
            worse = level < last
            last = level
            # the newest differences: their slot held minus the last step
            # and g
            newest = hist[(k - 1) % MEMORY + 1]
            if np.count_nonzero(worse):
                # a mixed iterate that raised its column's objective is
                # dropped: the column takes the plain step from the iterate
                # before it, with an empty history
                back = np.repeat(worse.take(who), counts)
                before = -newest[:, back]
                newest += hist[0]
                hist[0][:, back] = before
                hist[1:, :, back] = 0.0
                last[worse] = -np.inf
            else:
                newest += hist[0]
            # sums down each column's rows give the Gram matrix of its step
            # differences next to their products with its step
            gram = np.add.reduceat(hist[1:, None, 0] * hist[None, :, 0],
                                   starts, axis=2)
            diag = gram.reshape(-1, who.size)[1::MEMORY + 2]
            diag += RIDGE * np.add.reduce(diag, axis=0) + FLOOR
            # one small system per column, stacked
            gamma = np.linalg.solve(gram[:, 1:].transpose(2, 0, 1),
                                    gram[:, :1].transpose(2, 0, 1))
            mix = gamma[:, :, 0].T.repeat(counts, axis=1)
            mix *= hist[1:, 1]
            x_new = g - np.add.reduce(mix, axis=0)
        else:
            x_new = g.copy()  # g lives in hist, which the next step rewrites
        np.negative(hist[0], out=hist[k % MEMORY + 1])
        k += 1
        X.put(at, x_new)
        K = kernel_matrix(spec, D, X, sq_D, block)
        # each column's squared change and squared norm
        sq = np.add.reduceat(np.square([x - x_new, x]), starts, axis=1)
        stop = sq[0] < tol2 * np.maximum(sq[1], 1e-60)
        x = x_new
        stopped = np.count_nonzero(stop)
        if stopped:
            done[who[stop]] = True
            iterations[who[stop]] = k
            if stopped < who.size:  # else the loop ends
                keep = np.flatnonzero(np.repeat(~stop, counts))
                hist, x, at = (a.take(keep, axis=-1) for a in (hist, x, at))
                counts = counts[~stop]
                starts = np.cumsum(counts) - counts
            who = who[~stop]
    iterations[who] = k
    Z = block_product(solve_op, K, block)
    objective = _column_objective(spec, X, Z, K, K_DD, alpha, beta,
                                  _dictionary_reg(spec, D), block)
    failed = ~(np.isfinite(X).all(axis=0) & np.isfinite(Z).all(axis=0)
               & np.isfinite(objective))
    if failed.any():
        raise NumericalError("sample completion produced non-finite values",
                             sample_index=int(np.argmax(failed)))
    return X, Z, K, done, iterations, objective


def _prepare_columns(samples, D: np.ndarray, prior: bool = True):
    """Split (x, observed_idx) samples into working columns X0 (m, n) and
    their missing-entry mask (m, n).

    Missing entries that are NaN get an initial value: the mean of the
    column's observed entries, summed in row order, or the dictionary's
    row means (with ``prior``, else NaN) when nothing is observed or the
    mean overflows.  Finite values at missing positions are kept as a warm
    start.  The lengths and indices of all samples are checked at once,
    and so is the finiteness of the observed values.  Indices must be
    integers (an empty list passes), in [0, m), and distinct within a
    sample.
    """
    m = D.shape[0]
    xs, idxs = [], []
    for x, idx in samples:
        x = np.asarray(x, dtype=float)
        if x.shape != (m,):
            raise ValueError(
                f"sample length {x.shape} does not match dictionary rows {m}")
        idx = np.asarray(idx)
        if idx.dtype.kind not in "iu" and idx.size:
            raise ValueError("observed indices must be integers, "
                             f"not {idx.dtype}")
        xs.append(x)
        idxs.append(idx.astype(np.intp, copy=False))
    n = len(xs)
    X0 = np.ascontiguousarray(np.array(xs).T) if xs else np.empty((m, 0))
    every = np.concatenate(idxs) if idxs else np.empty(0, dtype=np.intp)
    # one max: as unsigned, a negative index is too large
    if every.size and every.view(np.uintp).max() >= m:
        raise ValueError(f"observed indices must lie in [0, {m})")
    counts = np.array([idx.size for idx in idxs], dtype=int)
    missing = np.ones((m, n), dtype=bool)
    missing[every, np.arange(n).repeat(counts)] = False
    if m * n - np.count_nonzero(missing) != every.size:
        j = np.flatnonzero(m - np.count_nonzero(missing, axis=0) != counts)[0]
        raise ValueError(f"observed indices of sample {j} repeat")
    bad = ~np.isfinite(X0)
    # count_nonzero costs a fraction of .any() on short arrays
    if np.count_nonzero(bad):
        if np.count_nonzero(bad & ~missing):
            raise ValueError("observed entries must be finite")
        # every non-finite entry is missing: fill it with its column's
        # mean, one reduction per distinct observed count
        values = X0.T[~missing.T]  # column by column, in row order
        fill = np.full(n, np.nan)
        for c in set(counts.tolist()) - {0, m}:
            cols = counts == c
            fill[cols] = np.add.reduce(
                values[cols.repeat(counts)].reshape(-1, c), axis=1) / c
        np.copyto(X0, fill, where=bad)
        bad = ~np.isfinite(X0)
        if prior and np.count_nonzero(bad):
            np.copyto(X0, D.mean(axis=1)[:, None], where=bad)
    return X0, missing


def update_dictionary(model: OnlineModel, X: np.ndarray, Z: np.ndarray,
                      spec: KernelSpec, hp: OnlineHyperparams,
                      kernels=None) -> None:
    """One SGD step on the dictionary (in place) for a block of completed
    columns X (m, b) with their codes Z (r, b), whose (K_XD, K_DD) are
    ``kernels`` if given: the batch gradient over tau ||H||_2 / sqrt(b), H
    the batch curvature (at b = 1, dividing by 1.0 is exact)."""
    D = model.dictionary
    grad, curvature = _dictionary_parts(spec, X, D, Z, hp.alpha, kernels)
    # ||H||_2 of the symmetric curvature is its largest |eigenvalue|; an
    # eigvalsh costs less than the SVD behind np.linalg.norm(H, 2)
    eigs = np.linalg.eigvalsh(curvature)
    step = grad / (hp.tau * max(-eigs[0], eigs[-1], EPS_NORM)
                   / np.sqrt(X.shape[1]))
    model.dict_momentum = hp.eta * model.dict_momentum + step
    model.dictionary = D - model.dict_momentum
    if not np.all(np.isfinite(model.dictionary)):
        raise NumericalError("dictionary update diverged")


def run_stream(samples, spec: KernelSpec, hp: OnlineHyperparams,
               ground_truth: np.ndarray | None = None,
               model: OnlineModel | None = None):
    """Process a stream of (x, observed_idx) pairs, optionally multi-pass,
    in blocks of :data:`BATCH` columns (the last may be narrower).

    Between passes each column keeps its latest completion as the warm
    start.  Tracks the running empirical cost (mean of each sample's most
    recent terminal objective) and, when ground truth is supplied, the
    running mean relative recovery error per visit.  The model totals the
    inner-loop iterations and the samples that hit ``n_iter``.

    The whole stream and ``ground_truth`` (shape (m, n), finite) are
    checked before the first update, so bad input raises ValueError with
    ``model`` untouched.  A column with nothing observed is filled on its
    first visit, from the dictionary of that time.  A NumericalError
    carries ``model`` and names the failed column (the block's first when
    the dictionary step failed).

    Returns the completed matrix in stream order and the model.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty sample stream")
    if model is None:
        rng = np.random.default_rng(hp.seed)
        model = OnlineModel(rng.standard_normal((np.size(samples[0][0]), hp.r)))
    work, missing = _prepare_columns(samples, model.dictionary, prior=False)
    if ground_truth is not None and np.shape(ground_truth) != work.shape:
        raise ValueError(f"ground_truth shape {np.shape(ground_truth)} does "
                         f"not match the stream's {work.shape}")
    if ground_truth is not None and not np.all(np.isfinite(ground_truth)):
        raise ValueError("ground_truth must be finite")
    last_cost = np.full(len(samples), np.nan)
    cost_sum = 0.0
    seen = 0
    err_sum = 0.0
    visits = 0
    for _ in range(hp.n_pass):
        for start in range(0, len(samples), BATCH):
            cols = slice(start, start + BATCH)
            D = model.dictionary
            X = np.ascontiguousarray(work[:, cols])
            bad = ~np.isfinite(X)  # only before a column's first visit
            if np.count_nonzero(bad):
                np.copyto(X, D.mean(axis=1)[:, None], where=bad)
            try:
                system = _code_system(spec, D, hp.beta)
                X, Z, K, converged, iterations, objective = _complete_block(
                    spec, D, system, X, missing[:, cols], n_iter=hp.n_iter,
                    tol=hp.tol, alpha=hp.alpha, beta=hp.beta)
                update_dictionary(model, X, Z, spec, hp, (K.T, system[0]))
            except NumericalError as exc:
                exc.sample_index = start + (exc.sample_index or 0)
                exc.model = model
                raise
            work[:, cols] = X
            model.samples_seen += X.shape[1]
            model.inner_iterations += int(iterations.sum())
            model.samples_hit_iter_limit += int(np.count_nonzero(~converged))
            for j, cost in enumerate(objective.tolist(), start):
                if np.isnan(last_cost[j]):
                    seen += 1
                    cost_sum += cost
                else:
                    cost_sum += cost - last_cost[j]
                last_cost[j] = cost
                model.cost_trace.append(cost_sum / seen)
                if ground_truth is not None:
                    truth = ground_truth[:, j]
                    visits += 1
                    err_sum += np.linalg.norm(truth - X[:, j - start]) / max(
                        np.linalg.norm(truth), 1e-30)
                    model.err_trace.append(err_sum / visits)
    return work, model
