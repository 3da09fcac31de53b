import os

# Cap BLAS threads before numpy loads: the solvers work on small matrices
# where threaded BLAS is dramatically slower, and single-threaded runs are
# bitwise reproducible.  OpenBLAS reads its variable once, when numpy loads
# it, which is before any kfmc import could map KFMC_THREADS onto it.
os.environ.setdefault("KFMC_THREADS", "1")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
