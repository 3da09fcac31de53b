#!/usr/bin/env python3
"""Recover a full-rank 3x100 matrix sampled from a twisted cubic curve.

Each column is (s, s^2, s^3) with s ~ U(-1, 1), so the matrix has full rank 3
and classical low-rank completion has nothing to work with.  Removing one
entry per column leaves a problem the kernelized solver handles easily; a
low-rank factorization baseline fails outright, and removing two entries per
column breaks the kernelized solver too (one observation per column is less
than the one-dimensional latent structure needs).
"""
import os

os.environ.setdefault("KFMC_THREADS", "1")

# kfmc before numpy, so that KFMC_THREADS reaches numpy's BLAS
import kfmc

import numpy as np

X = kfmc.twisted_cubic(100, seed=5)
print(f"data: 3x100 twisted cubic, numerical rank {kfmc.numerical_rank(X)}")

spec = kfmc.KernelSpec.rbf(sigma=1.2)


def complete_kfmc(mask):
    mm = kfmc.impute_init(np.where(mask.observed, X, np.nan), mask,
                          strategy="zero")
    # a few dictionary seeds; keep the run with the lowest objective
    runs = [kfmc.fit(mm, spec, kfmc.OfflineHyperparams(
        r=10, alpha=0.1, beta=1e-4, eta=0.5, t_max=3000, tol=1e-9, seed=s))
        for s in (0, 1, 2)]
    best = min(runs, key=lambda m: m.objective_trace[-1])
    return kfmc.relative_error(best.completed, X)


mask1 = kfmc.random_mask(3, 100, 0.0, seed=6, per_column_exact=1)
print(f"\none missing entry per column ({mask1.observed_fraction:.0%} observed)")
print(f"  KFMC (RBF kernel): relative error {complete_kfmc(mask1):.4f}")

mm1 = kfmc.impute_init(np.where(mask1.observed, X, np.nan), mask1)
lrf = min(kfmc.relative_error(
    kfmc.lrf_complete(mm1, r, ridge=1e-4, iters=200, seed=0), X)
    for r in (1, 2, 3))
print(f"  low-rank factorization (best rank of 1..3): relative error {lrf:.4f}")

mask2 = kfmc.random_mask(3, 100, 0.0, seed=6, per_column_exact=2)
print(f"\ntwo missing entries per column ({mask2.observed_fraction:.0%} observed)")
print(f"  KFMC (RBF kernel): relative error {complete_kfmc(mask2):.4f}"
      "  <- unrecoverable, as expected")
