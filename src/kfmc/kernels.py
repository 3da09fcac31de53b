"""Kernel evaluation, kernel-matrix assembly, and elementwise power weights.

Two kernels are supported: the polynomial kernel ``(x.T y + offset)**degree``
and the RBF kernel ``exp(-||x - y||^2 / sigma^2)``.  Columns are samples
throughout: an (m, n) array holds n points in R^m.  A caller may ask for
the columns to be taken in blocks of a fixed width, side by side in one
array; each block then gets the bits it gets alone.
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
    """Squared Euclidean norms of the columns of A.  Sums run down the
    columns, so a column gets the same bits whatever its neighbours."""
    return np.add.reduce(A * A, axis=0)


def block_product(A: np.ndarray, B: np.ndarray,
                  block: int | None = None) -> np.ndarray:
    """A @ B, as one product per ``block``-wide column block of B (one
    product when ``block`` is None or B is one block).

    B (k, n) holds its blocks side by side, so n is a multiple of ``block``.
    numpy's matmul hands BLAS each block in place, as a strided view, and
    writes each result block into its place in the output: a block gets
    the bits it gets as a product of its own.
    """
    if block is None or B.shape[-1] == block:
        return A @ B
    k, n = B.shape
    out = np.empty((A.shape[0], n))
    np.matmul(A, B.reshape(k, -1, block).transpose(1, 0, 2),
              out=out.reshape(-1, n // block, block).transpose(1, 0, 2))
    return out


def kernel_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray,
                  sq_A: np.ndarray | None = None,
                  block: int | None = None) -> np.ndarray:
    """Dense kernel matrix with entry (i, j) = k(A[:, i], B[:, j]).

    ``sq_A`` may hold ``column_sq_norms(A)``, computed once by a caller that
    evaluates many kernels against the same A; the result has the same
    bits.  With ``block``, the Gram product runs once per block of B (see
    :func:`block_product`), so each block gets the bits it gets alone.
    """
    A = np.asarray(A, dtype=float)  # no copy for float64 arrays
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("kernel matrix inputs must be 2-d arrays of columns")
    if A.shape[0] != B.shape[0]:
        raise ValueError(f"row-count mismatch: {A.shape[0]} vs {B.shape[0]}")
    G = block_product(A.T, B, block)
    if spec.is_poly:
        return (G + spec.offset) ** spec.degree
    if sq_A is None:
        sq_A = column_sq_norms(A)
    # exp(-max(|a|^2 + |b|^2 - 2 a'b, 0) / sigma^2), evaluated in place in
    # that order; dividing by -sigma^2 rounds exactly like negating first
    sq = sq_A[:, None] + column_sq_norms(B)
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
