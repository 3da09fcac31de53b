"""Candidate hyperparameter grids and the bandwidth heuristic.

The grids mirror the benchmark settings this library ships with: polynomial
kernel of order 2 with unit offset and regularizers in {0.01, 0.1}; RBF
bandwidth as a multiple {0.5, 1, 3} of the mean pairwise column distance
with beta in {1e-3, 1e-4}; dictionary sizes {m/2, m, 2m}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec
from .masking import MaskedMatrix
from .metrics import relative_error
from .offline import OfflineHyperparams, OfflineModel, fit


PAIR_BLOCK = 64


def mean_pairwise_distance(X: np.ndarray, max_pairs: int = 1000,
                           seed: int | None = 0) -> float:
    """Mean Euclidean distance between random column pairs.

    Exhaustive for small matrices; otherwise a seeded sample of at most
    ``max_pairs`` pairs.  Callers should pass an imputed (NaN-free) matrix:
    a mean that is not finite raises ``ValueError``.

    The distances are taken ``PAIR_BLOCK`` pairs at a time, so the memory is
    O(m * PAIR_BLOCK).  The block does not change the bits: each distance is
    ``sqrt(add.reduce(diff * diff, axis=0))`` of its own column, as
    ``np.linalg.norm(diff, axis=0)`` computes it, whatever its neighbours.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-d, got {X.ndim}-d")
    if (isinstance(max_pairs, bool) or not isinstance(max_pairs, (int, np.integer))
            or max_pairs < 1):
        raise ValueError(f"max_pairs must be an integer >= 1, got {max_pairs!r}")
    n = X.shape[1]
    if n < 2:
        raise ValueError("need at least two columns")
    total = n * (n - 1) // 2
    if total <= max_pairs:
        i, j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=max_pairs)
        j = rng.integers(0, n, size=max_pairs)
        clash = i == j
        while clash.any():
            j[clash] = rng.integers(0, n, size=int(clash.sum()))
            clash = i == j
    dist = np.empty(i.size)
    for b in range(0, i.size, PAIR_BLOCK):
        diff = X[:, i[b:b + PAIR_BLOCK]] - X[:, j[b:b + PAIR_BLOCK]]
        dist[b:b + PAIR_BLOCK] = np.sqrt(np.add.reduce(diff * diff, axis=0))
    mean = float(np.mean(dist))
    if not np.isfinite(mean):
        raise ValueError(f"mean pairwise distance is not finite ({mean}): "
                         "pass an imputed, finite X")
    return mean


def dictionary_sizes(m: int) -> list[int]:
    return sorted({max(1, round(0.5 * m)), m, 2 * m})


def poly_candidates(m: int) -> list[tuple[KernelSpec, dict]]:
    spec = KernelSpec.poly(degree=2, offset=1.0)
    out = []
    for r in dictionary_sizes(m):
        for alpha in (0.01, 0.1):
            for beta in (0.01, 0.1):
                out.append((spec, {"r": r, "alpha": alpha, "beta": beta}))
    return out


def rbf_candidates(m: int, dbar: float) -> list[tuple[KernelSpec, dict]]:
    out = []
    for mult in (0.5, 1.0, 3.0):
        spec = KernelSpec.rbf(sigma=mult * dbar)
        for r in dictionary_sizes(m):
            for beta in (1e-3, 1e-4):
                out.append((spec, {"r": r, "alpha": 0.1, "beta": beta}))
    return out


@dataclass
class GridEntry:
    spec: KernelSpec
    hp: OfflineHyperparams
    model: OfflineModel
    relative_error: float


def best_offline(mm: MaskedMatrix, X_true: np.ndarray,
                 candidates: list[tuple[KernelSpec, dict]],
                 seed: int | None = 0) -> tuple[GridEntry, list[GridEntry]]:
    """Fit every candidate at the default solver settings and return the
    lowest relative-error entry."""
    entries = []
    for spec, overrides in candidates:
        hp = OfflineHyperparams(seed=seed, **overrides)
        model = fit(mm, spec, hp)
        entries.append(GridEntry(spec, hp, model,
                                 relative_error(model.completed, X_true)))
    best = min(entries, key=lambda e: e.relative_error)
    return best, entries
