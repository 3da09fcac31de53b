"""High-rank matrix completion via kernelized factorization.

Batch, streaming, and out-of-sample completion of matrices whose columns
live on a low-dimensional nonlinear variety, plus low-rank baselines,
synthetic benchmark generators, and sampling-rate calculators.
"""
import os as _os
import sys as _sys

# Honor KFMC_THREADS before numpy (and its BLAS) is loaded.  BLAS reads its
# variable once, so warn if numpy came first with other thread counts.
_threads = _os.environ.get("KFMC_THREADS")
if _threads:
    _blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    _late = [_var for _var in _blas if _os.environ.get(_var) != _threads]
    if _late and "numpy" in _sys.modules:
        import warnings as _warnings
        _warnings.warn(f"KFMC_THREADS={_threads} has no effect: numpy was "
                       f"imported before kfmc with {', '.join(_late)} unset "
                       "or different", RuntimeWarning, stacklevel=2)
    for _var in _blas + ("NUMEXPR_NUM_THREADS",):
        _os.environ.setdefault(_var, _threads)
del _os, _sys, _threads

from .exceptions import NumericalError
from .kernels import KernelSpec, eval_kernel, kernel_diag, kernel_matrix, power_weights
from .masking import Mask, MaskedMatrix, impute_init, project_observed
from .metrics import numerical_rank, relative_error
from .bounds import (ProblemShape, dof_observed_per_column, expected_rank_X,
                     expected_rank_phi, rbf_poly_truncation_error, rho_kfmc,
                     rho_kfmc_raw, rho_lrmc, rho_lrmc_raw, sampling_report)
from .synth import (SyntheticSpec, continuous_mask, feature_count, generate,
                    poly_features, random_mask, twisted_cubic)
from .offline import (OfflineHyperparams, OfflineModel, completion_step,
                      dictionary_step, fit, objective, solve_codes)
from .online import OnlineHyperparams, OnlineModel, SampleInfo, run_stream
from .ose import complete_new, train_dictionary
from .baselines import lrf_complete, ose_lrf, svd_basis
from .tuning import mean_pairwise_distance

__version__ = "0.1.0"

__all__ = [
    "NumericalError",
    "KernelSpec", "eval_kernel", "kernel_diag", "kernel_matrix", "power_weights",
    "Mask", "MaskedMatrix", "impute_init", "project_observed",
    "numerical_rank", "relative_error",
    "ProblemShape", "dof_observed_per_column", "expected_rank_X",
    "expected_rank_phi", "rbf_poly_truncation_error", "rho_kfmc",
    "rho_kfmc_raw", "rho_lrmc", "rho_lrmc_raw", "sampling_report",
    "SyntheticSpec", "continuous_mask", "feature_count", "generate",
    "poly_features", "random_mask", "twisted_cubic",
    "OfflineHyperparams", "OfflineModel", "completion_step",
    "dictionary_step", "fit", "objective", "solve_codes",
    "OnlineHyperparams", "OnlineModel", "SampleInfo", "run_stream",
    "complete_new", "train_dictionary",
    "lrf_complete", "ose_lrf", "svd_basis",
    "mean_pairwise_distance",
]
