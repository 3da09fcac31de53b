#!/usr/bin/env python3
"""Streaming completion in blocks of two columns, model state O(m*r + r^2).

The dictionary learns as columns arrive, one step per block of two
consecutive columns; re-passing the stream refines both the dictionary and
the stored completions.  The running empirical cost and recovery error drop
pass over pass.
"""
import os

os.environ.setdefault("KFMC_THREADS", "1")

# kfmc before numpy, so that KFMC_THREADS reaches numpy's BLAS
import kfmc

import numpy as np

X_true, _ = kfmc.generate(kfmc.SyntheticSpec(d=3, p=3, u=3, m=30, n_per=100,
                                             seed=1))
mask = kfmc.random_mask(30, 300, 0.3, seed=2)
masked = np.where(mask.observed, X_true, np.nan)
samples = [(masked[:, j], mask.column_split(j)[0]) for j in range(300)]

dbar = kfmc.mean_pairwise_distance(
    kfmc.impute_init(masked, mask).completion)
spec = kfmc.KernelSpec.rbf(dbar)

n_pass = 10
hp = kfmc.OnlineHyperparams(r=60, alpha=0.1, beta=1e-4, eta=0.5, n_iter=30,
                            n_pass=n_pass, tol=1e-6, seed=0)
X_hat, model = kfmc.run_stream(samples, spec, hp, ground_truth=X_true)

print(f"stream: 300 columns x {n_pass} passes, dictionary 30x{hp.r}")
print(f"{'pass':>4} {'empirical cost':>15} {'running error':>14}")
cost = np.asarray(model.cost_trace)
err = np.asarray(model.err_trace)
for p in range(n_pass):
    end = (p + 1) * 300 - 1
    print(f"{p + 1:>4} {cost[end]:>15.4f} {err[end]:>14.4f}")

print(f"\nfinal relative error of the completed stream: "
      f"{kfmc.relative_error(X_hat, X_true):.4f}")
