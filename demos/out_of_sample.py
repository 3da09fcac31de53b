#!/usr/bin/env python3
"""Out-of-sample completion: train a dictionary once, complete new columns.

Training data is fully observed, so the fit skips the completion update and
only learns the dictionary.  New incomplete columns are then completed
against the frozen dictionary in O(m*r) per column; the SVD-basis baseline
is shown for contrast.
"""
import os

os.environ.setdefault("KFMC_THREADS", "1")

# kfmc before numpy, so that KFMC_THREADS reaches numpy's BLAS
import kfmc

import numpy as np

X_all, _ = kfmc.generate(kfmc.SyntheticSpec(d=3, p=3, u=1, m=30, n_per=150,
                                            seed=4))
train, new = X_all[:, :100], X_all[:, 100:]
mask = kfmc.random_mask(30, 50, 0.3, seed=5)
masked = np.where(mask.observed, new, np.nan)
samples = [(masked[:, j], mask.column_split(j)[0]) for j in range(50)]

spec = kfmc.KernelSpec.rbf(kfmc.mean_pairwise_distance(train))
hp = kfmc.OfflineHyperparams(r=60, alpha=0.1, beta=1e-4, eta=0.5, t_max=300,
                             tol=1e-7, seed=0)
D = kfmc.train_dictionary(train, spec, hp)
print(f"trained dictionary: {D.shape[0]}x{D.shape[1]} "
      f"from fully observed 30x100 data")

X_ose = kfmc.complete_new(D, samples, spec, beta=1e-4, n_iter=60)
print(f"\nKFMC out-of-sample on 50 new columns at 30% missing: "
      f"relative error {kfmc.relative_error(X_ose, new):.4f}")

U = kfmc.svd_basis(train, 19)
X_lrf = np.column_stack([
    kfmc.ose_lrf(U, np.where(np.isfinite(x), x, 0.0), idx, ridge=1e-6)
    for x, idx in samples])
print(f"SVD-basis baseline (rank 19):                    "
      f"relative error {kfmc.relative_error(X_lrf, new):.4f}")
