"""Synthetic data generators and missing-entry mask patterns.

Columns are polynomial images x = P @ features(s) of latent draws
s ~ U(0,1)^d, one random P per subspace.  Masks come in two flavors:
uniformly random (exact missing counts) and continuous runs per row.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .masking import Mask


@dataclass(frozen=True)
class SyntheticSpec:
    """Generative parameters for union-of-polynomial-subspace data."""

    d: int = 3
    p: int = 3
    u: int = 1
    m: int = 30
    n_per: int = 100
    seed: int = 0
    include_constant: bool = False

    def __post_init__(self):
        for name in ("d", "p", "u", "m", "n_per"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def n(self) -> int:
        return self.u * self.n_per


def feature_count(d: int, p: int, include_constant: bool) -> int:
    """Number of monomials of total degree <= p in d variables."""
    total = comb(d + p, p)
    return total if include_constant else total - 1


def poly_features(s: np.ndarray, p: int, include_constant: bool = True) -> np.ndarray:
    """All monomials of total degree <= p, graded-lexicographic order.

    Accepts a single d-vector or a (d, n) batch of columns; returns a vector
    of length feature_count(d, p, include_constant) or the matching matrix.
    """
    s = np.asarray(s, dtype=float)
    single = s.ndim == 1
    S = s[:, None] if single else s
    d = S.shape[0]
    feats = []
    start = 0 if include_constant else 1
    for total in range(start, p + 1):
        if total == 0:
            feats.append(np.ones(S.shape[1]))
            continue
        for idx in combinations_with_replacement(range(d), total):
            feats.append(np.prod(S[list(idx), :], axis=0))
    F = np.array(feats)
    return F[:, 0] if single else F


def generate(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Draw the synthetic matrix and per-column subspace labels.

    Per subspace k: P ~ N(0,1) of shape (m, n_features); each column is
    P @ poly_features(s) for an independent s ~ U(0,1)^d.
    """
    rng = np.random.default_rng(spec.seed)
    nf = feature_count(spec.d, spec.p, spec.include_constant)
    # each block is written in place, so the matrix is held once
    X = np.empty((spec.m, spec.n))
    for k in range(spec.u):
        P = rng.standard_normal((spec.m, nf))
        S = rng.uniform(0.0, 1.0, size=(spec.d, spec.n_per))
        cols = slice(k * spec.n_per, (k + 1) * spec.n_per)
        np.matmul(P, poly_features(S, spec.p, spec.include_constant), out=X[:, cols])
    return X, np.repeat(np.arange(spec.u), spec.n_per)


def twisted_cubic(n: int, seed: int = 0) -> np.ndarray:
    """3-by-n matrix with columns (s, s^2, s^3), s ~ U(-1, 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    s = rng.uniform(-1.0, 1.0, size=n)
    return np.vstack([s, s**2, s**3])


def random_mask(m: int, n: int, missing_rate: float, seed: int = 0,
                per_column_exact: int | None = None) -> Mask:
    """Uniform random mask with an exact missing count.

    Default mode removes exactly floor(missing_rate * m * n) entries sampled
    without replacement, re-drawing (up to a cap) if any column would lose
    all its entries.  ``per_column_exact=k`` instead removes exactly k
    uniformly chosen entries from every column and ignores ``missing_rate``.
    """
    rng = np.random.default_rng(seed)
    if per_column_exact is not None:
        k = int(per_column_exact)
        if not 0 <= k < m:
            raise ValueError(f"per-column missing count must lie in [0, {m})")
        observed = np.ones((m, n), dtype=bool)
        for j in range(n):
            observed[rng.choice(m, size=k, replace=False), j] = False
        return Mask(observed)

    if not 0 <= missing_rate < 1:
        raise ValueError("missing_rate must lie in [0, 1)")
    n_missing = int(missing_rate * m * n)
    if n_missing > (m - 1) * n:
        raise ValueError("missing_rate too high to keep one observation per column")
    for _ in range(200):
        flat = rng.choice(m * n, size=n_missing, replace=False)
        observed = np.ones(m * n, dtype=bool)
        observed[flat] = False
        observed = observed.reshape(m, n)
        if observed.any(axis=0).all():
            return Mask(observed)
    raise ValueError("could not draw a mask keeping one observation per column")


def continuous_mask(m: int, n: int, missing_rate: float, n_seq: int,
                    seed: int = 0) -> Mask:
    """Mask with n_seq missing runs per row, with a gap between runs.

    Each run has length L = round(missing_rate * n / n_seq), so the per-row
    missing total is within n_seq of missing_rate * n.  Each row draws
    n_seq distinct slots from range(n - n_seq L + 1) and starts its i-th
    run at the i-th smallest slot plus i L: a uniform draw among all
    placements that keep at least one observed entry between two runs,
    which exist when n_seq L + n_seq - 1 <= n.
    """
    if n_seq < 1:
        raise ValueError("n_seq must be >= 1")
    if not 0 <= missing_rate < 1:
        raise ValueError("missing_rate must lie in [0, 1)")
    run_len = round(missing_rate * n / n_seq)
    room = n - n_seq * run_len + 1
    if room < n_seq:
        raise ValueError(f"{n_seq} runs of length {run_len} with gaps "
                         f"between them do not fit in a row of {n}")
    rng = np.random.default_rng(seed)
    observed = np.ones((m, n), dtype=bool)
    for row in observed:
        slots = np.sort(rng.choice(room, n_seq, replace=False))
        for start in slots + run_len * np.arange(n_seq):
            row[start:start + run_len] = False
    return Mask(observed)
