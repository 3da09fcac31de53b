"""The test suite runs its BLAS single-threaded (see conftest.py)."""
import ctypes
import glob
import os

import numpy as np
import pytest
import scipy


def _openblas_thread_counts():
    """Thread count reported by each OpenBLAS bundled with numpy or scipy."""
    counts = []
    paths = []
    for pkg in (np, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                            pkg.__name__ + ".libs")
        paths += glob.glob(os.path.join(libs, "*openblas*"))
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, name):
                query = getattr(lib, name)
                query.argtypes, query.restype = [], ctypes.c_int
                counts.append(query())
                break
    return counts


def test_openblas_runs_one_thread():
    counts = _openblas_thread_counts()
    if not counts:
        pytest.skip("no OpenBLAS thread-count query found")
    assert counts == [1] * len(counts)
