"""Kernel evaluation, kernel-matrix assembly, and elementwise power weights.

Two kernels are supported: the polynomial kernel ``(x.T y + offset)**degree``
and the RBF kernel ``exp(-||x - y||^2 / sigma^2)``.  Columns are samples
throughout: an (m, n) array holds n points in R^m, and a stack (nb, m, b)
holds nb blocks of b points each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

POLY = "poly"
RBF = "rbf"


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to use plus its hyperparameters.

    ``degree`` and ``offset`` apply to the polynomial kernel, ``sigma`` to
    the RBF kernel; the irrelevant fields are ignored for the other kind.
    """

    kind: str
    degree: int = 2
    offset: float = 1.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in (POLY, RBF):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == POLY:
            if int(self.degree) != self.degree or self.degree < 1:
                raise ValueError("polynomial degree must be an integer >= 1")
            if not 0 <= self.offset < math.inf:
                raise ValueError("polynomial offset must be finite and >= 0")
        else:
            if not 0 < self.sigma < math.inf:
                raise ValueError("rbf sigma must be finite and > 0")
            if math.isinf(self.sigma * self.sigma):
                raise ValueError("rbf sigma is too large: sigma^2 overflows")

    @classmethod
    def poly(cls, degree: int = 2, offset: float = 1.0) -> "KernelSpec":
        return cls(kind=POLY, degree=int(degree), offset=float(offset))

    @classmethod
    def rbf(cls, sigma: float) -> "KernelSpec":
        return cls(kind=RBF, sigma=float(sigma))

    @property
    def is_poly(self) -> bool:
        return self.kind == POLY

    @property
    def is_rbf(self) -> bool:
        return self.kind == RBF


def eval_kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate k(x, y) for two vectors of equal length."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError(f"vector length mismatch: {x.shape} vs {y.shape}")
    if spec.is_poly:
        return float((x @ y + spec.offset) ** spec.degree)
    d2 = float(np.sum((x - y) ** 2))
    return float(np.exp(-d2 / spec.sigma**2))


def column_sq_norms(A: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the columns of A, or of each block of a
    stack (nb, m, b).  Sums run down axis -2, so a block in a stack sums in
    the order it sums alone and gets the same bits."""
    return np.add.reduce(A * A, axis=-2)


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray,
                  sq_A: np.ndarray | None = None) -> np.ndarray:
    """Dense kernel matrix with entry (i, j) = k(A[:, i], B[:, j]).

    ``B`` may be a stack (nb, m, b) of blocks, giving one matrix per block
    (nb, r, b) with the bits of each block evaluated alone.  ``sq_A`` may
    hold ``column_sq_norms(A)``, computed once by a caller that evaluates
    many kernels against the same A; the result has the same bits.
    """
    A = np.asarray(A, dtype=float)  # no copy for float64 arrays
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim not in (2, 3):
        raise ValueError("kernel matrix inputs must be 2-d arrays of columns "
                         "(B may be a 3-d stack of them)")
    if A.shape[0] != B.shape[-2]:
        raise ValueError(f"row-count mismatch: {A.shape[0]} vs {B.shape[-2]}")
    G = A.T @ B
    if spec.is_poly:
        return (G + spec.offset) ** spec.degree
    if sq_A is None:
        sq_A = column_sq_norms(A)
    # exp(-max(|a|^2 + |b|^2 - 2 a'b, 0) / sigma^2), evaluated in place in
    # that order; dividing by -sigma^2 rounds exactly like negating first
    sq = sq_A[:, None] + column_sq_norms(B)[..., None, :]
    G *= 2.0
    np.subtract(sq, G, out=sq)
    np.maximum(sq, 0.0, out=sq)
    sq /= -(spec.sigma**2)
    return np.exp(sq, out=sq)


def kernel_diag(spec: KernelSpec, A: np.ndarray) -> np.ndarray:
    """Vector of self-similarities k(A[:, j], A[:, j]) without the full matrix."""
    A = np.asarray(A, dtype=float)
    if spec.is_poly:
        return (column_sq_norms(A) + spec.offset) ** spec.degree
    return np.ones(A.shape[1])


def power_weights(spec: KernelSpec, G: np.ndarray) -> np.ndarray:
    """Elementwise (G + offset)**(degree - 1), the reweighting matrices.

    Only defined for the polynomial kernel; ``degree`` is an integer so the
    power never involves fractional exponents of negative bases.
    """
    if not spec.is_poly:
        raise ValueError("power weights are only defined for the polynomial kernel")
    G = np.asarray(G, dtype=float)
    return (G + spec.offset) ** (spec.degree - 1)
