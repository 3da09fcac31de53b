"""Partially observed matrices: mask bookkeeping, imputation, projection.

The mask is authoritative: values stored at unobserved positions are never
used in arithmetic.  A :class:`MaskedMatrix` starts out agreeing with the
observed data (:func:`project_observed`); the solvers move missing entries only.
"""
from __future__ import annotations

import numpy as np


class Mask:
    """Observed-entry set of an m-by-n matrix, stored as a boolean array."""

    def __init__(self, observed: np.ndarray):
        observed = np.asarray(observed, dtype=bool)
        if observed.ndim != 2:
            raise ValueError("mask must be a 2-d boolean array")
        self._observed = observed.copy()
        self._observed.setflags(write=False)

    @classmethod
    def from_dense(cls, M: np.ndarray) -> "Mask":
        """Observed wherever M is not NaN (an inf stays observed)."""
        return cls(~np.isnan(np.asarray(M, dtype=float)))

    @classmethod
    def full(cls, m: int, n: int) -> "Mask":
        return cls(np.ones((m, n), dtype=bool))

    @property
    def observed(self) -> np.ndarray:
        return self._observed

    @property
    def missing(self) -> np.ndarray:
        return ~self._observed

    @property
    def shape(self) -> tuple[int, int]:
        return self._observed.shape

    @property
    def n(self) -> int:
        return self._observed.shape[1]

    @property
    def n_observed(self) -> int:
        return int(self._observed.sum())

    @property
    def observed_fraction(self) -> float:
        return self.n_observed / self._observed.size

    def column_split(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Observed and missing row indices of column j (a partition of range(m))."""
        if not 0 <= j < self.n:
            raise ValueError(f"column {j} out of range [0, {self.n})")
        col = self._observed[:, j]
        return np.nonzero(col)[0], np.nonzero(~col)[0]

    def __eq__(self, other):
        return isinstance(other, Mask) and np.array_equal(self._observed, other._observed)


class MaskedMatrix:
    """Observed data plus a working completion that agrees with it on the mask.

    ``values`` holds the observed entries (NaN elsewhere); ``completion`` is
    the dense working matrix the solvers update.
    """

    def __init__(self, values: np.ndarray, mask: Mask, completion: np.ndarray):
        values = np.asarray(values, dtype=float)
        completion = np.asarray(completion, dtype=float)
        if values.shape != mask.shape or completion.shape != mask.shape:
            raise ValueError("values, mask, and completion shapes must agree")
        self.values = np.where(mask.observed, values, np.nan)
        self.mask = mask
        self.completion = completion.copy()
        project_observed(self)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mask.shape

    def copy(self) -> "MaskedMatrix":
        return MaskedMatrix(self.values, self.mask, self.completion)


def impute_init(M: np.ndarray, mask: Mask, strategy: str = "row_mean") -> MaskedMatrix:
    """Build a MaskedMatrix with missing entries filled per ``strategy``.

    ``row_mean`` fills each missing entry with the mean of its row's observed
    entries (0 for rows with no observations); ``zero`` fills with 0.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != mask.shape:
        raise ValueError(f"data shape {M.shape} != mask shape {mask.shape}")
    if strategy not in ("row_mean", "zero"):
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    X = np.where(mask.observed, M, 0.0)
    if strategy == "row_mean":
        counts = mask.observed.sum(axis=1)
        sums = X.sum(axis=1)
        means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
        X = np.where(mask.observed, X, means[:, None])
    return MaskedMatrix(M, mask, X)


def project_observed(mm: MaskedMatrix) -> MaskedMatrix:
    """Reset the completion to the observed data on the mask; idempotent."""
    obs = mm.mask.observed
    mm.completion[obs] = mm.values[obs]
    return mm
