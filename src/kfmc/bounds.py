"""Closed-form recoverability heuristics.

Rank predictions and sampling-rate thresholds for data whose columns are
p-order polynomial images of a d-dimensional latent variable, drawn from a
union of u such maps, completed through a q-order polynomial feature space.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, sqrt


@dataclass(frozen=True)
class ProblemShape:
    """Dimensions of a completion problem: ambient m-by-n data, latent
    dimension d, generator order p, kernel order q, u subspaces."""

    m: int
    n: int
    d: int
    p: int
    q: int
    u: int

    def __post_init__(self):
        for name in ("m", "n", "d", "p", "q", "u"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


def feature_space_rows(shape: ProblemShape) -> int:
    """Row count of the q-order feature image, C(m+q, q)."""
    return comb(shape.m + shape.q, shape.q)


def feature_space_rank(shape: ProblemShape) -> int:
    """Generic rank bound of the feature image, u * C(d+pq, pq)."""
    return shape.u * comb(shape.d + shape.p * shape.q, shape.p * shape.q)


def expected_rank_X(shape: ProblemShape) -> int:
    """Generic rank of the data matrix: min{m, n, u*C(d+p, p)}."""
    return min(shape.m, shape.n, shape.u * comb(shape.d + shape.p, shape.p))


def expected_rank_phi(shape: ProblemShape) -> int:
    """Generic rank of the feature image: min{C(m+q,q), n, u*C(d+pq, pq)}."""
    return min(feature_space_rows(shape), shape.n, feature_space_rank(shape))


def dof_observed_per_column(rho: float, m: int, q: int) -> float:
    """Generalized binomial C(rho*m + q, q) via the product formula.

    Counts degrees of freedom observed per feature-space column when a
    fraction rho of each data column is observed; rho*m need not be integral.
    """
    if not 0 <= rho <= 1:
        raise ValueError("rho must lie in [0, 1]")
    value = 1.0
    for i in range(1, q + 1):
        value *= (rho * m + i) / i
    return value


def rho_kfmc_raw(shape: ProblemShape) -> float:
    """Unclamped kernelized sampling-rate threshold (r/n + r/mq - r^2/(n*mq))^(1/q)."""
    r = feature_space_rank(shape)
    mq = feature_space_rows(shape)
    base = r / shape.n + r / mq - r * r / (shape.n * mq)
    if base <= 0:
        return 0.0
    return base ** (1.0 / shape.q)


def rho_kfmc(shape: ProblemShape) -> float:
    """Kernelized sampling-rate threshold, clamped to 1 when vacuous."""
    return min(rho_kfmc_raw(shape), 1.0)


def rho_lrmc_raw(shape: ProblemShape) -> float:
    """Unclamped low-rank sampling-rate threshold ((m+n)r - r^2)/(m*n)."""
    r = expected_rank_X(shape)
    return ((shape.m + shape.n) * r - r * r) / (shape.m * shape.n)


def rho_lrmc(shape: ProblemShape) -> float:
    """Low-rank sampling-rate threshold, clamped to 1 when vacuous."""
    return min(rho_lrmc_raw(shape), 1.0)


def rbf_poly_truncation_error(c_bound: float, q: int) -> float:
    """Error scale sqrt(c^(q+1) / (q+1)!) of reading the RBF kernel through a
    q-order polynomial truncation; c_bound is the series ratio bound in (0, 1)."""
    if not 0 < c_bound < 1:
        raise ValueError("c_bound must lie in (0, 1)")
    if int(q) != q or q < 1:
        raise ValueError("q must be a positive integer")
    return sqrt(c_bound ** (q + 1) / factorial(q + 1))


def sampling_report(shape: ProblemShape) -> dict:
    """All bounds for one shape, with raw values and vacuousness flags."""
    kf_raw = rho_kfmc_raw(shape)
    lr_raw = rho_lrmc_raw(shape)
    return {
        "shape": {k: getattr(shape, k) for k in ("m", "n", "d", "p", "q", "u")},
        "rank_X": expected_rank_X(shape),
        "rank_phi": expected_rank_phi(shape),
        "feature_rows": feature_space_rows(shape),
        "rho_kfmc": min(kf_raw, 1.0),
        "rho_kfmc_raw": kf_raw,
        "rho_kfmc_vacuous": kf_raw > 1.0,
        "rho_lrmc": min(lr_raw, 1.0),
        "rho_lrmc_raw": lr_raw,
        "rho_lrmc_vacuous": lr_raw >= 1.0,
    }
