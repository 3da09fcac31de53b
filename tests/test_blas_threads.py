"""The test suite runs its BLAS single-threaded (see conftest.py)."""
import ctypes
import glob
import json
import os
import subprocess
import sys

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


# Import the named modules in order and print the RuntimeWarnings raised.
IMPORT_SCRIPT = """
import json, sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    for name in sys.argv[1:]:
        __import__(name)
print(json.dumps([str(w.message) for w in caught
                  if issubclass(w.category, RuntimeWarning)]))
"""


@pytest.mark.parametrize("order,blas_env,warns", [
    (("kfmc", "numpy"), {}, False),
    (("numpy", "kfmc"), {}, True),
    (("numpy", "kfmc"), {"OPENBLAS_NUM_THREADS": "2"}, True),
    # the suite's own set-up: conftest.py sets these before numpy loads
    (("numpy", "kfmc"), dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS"), "1"), False),
], ids=["kfmc-first", "numpy-first", "numpy-first-openblas-2",
        "numpy-first-blas-pinned"])
def test_kfmc_threads_after_numpy_warns(order, blas_env, warns):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env.update(blas_env, KFMC_THREADS="1", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT, *order],
                          env=env, capture_output=True, text=True, timeout=60,
                          check=True)
    messages = json.loads(proc.stdout)
    if warns:
        assert len(messages) == 1
        assert "KFMC_THREADS" in messages[0]
        assert "OPENBLAS_NUM_THREADS" in messages[0]
    else:
        assert messages == []
