"""Round-trip properties of the checkpoint and CSV formats on drawn data.

A checkpoint stores the dictionary's raw float64 bytes, so every drawn
value comes back with its bits: -0.0, subnormals, the extreme exponents,
infinities and NaN payloads alike.  A matrix CSV writes 17 significant
digits, so every finite entry comes back with its bits, and a non-finite
entry is written as the missing-entry token and comes back as NaN.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kfmc import KernelSpec
from kfmc.checkpoint import load_checkpoint, save_checkpoint
from kfmc.dataio import read_matrix_csv, write_matrix_csv

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)
# values that random draws rarely hit, mixed into every array
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
         2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 1e-300, -1e300]


def _matrices(**floats):
    """Float64 matrices of 1-6 rows and 1-5 columns."""
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 5))
    elements = st.one_of(st.floats(**floats), st.sampled_from(EDGES))
    return shapes.flatmap(lambda s: arrays(np.float64, s, elements=elements))


def _bits(X):
    return np.ascontiguousarray(X, dtype=np.float64).view(np.uint64)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


@SETTINGS
@given(_matrices(), st.sampled_from([KernelSpec.rbf(1.5),
                                     KernelSpec.poly(3, 0.5)]))
def test_checkpoint_returns_every_dictionary_bitwise(folder, D, spec):
    save_checkpoint(folder / "model.ckpt", D, spec, metadata={"beta": 0.1})
    loaded, loaded_spec, header = load_checkpoint(folder / "model.ckpt")
    assert loaded.dtype == np.float64 and loaded.shape == D.shape
    assert np.array_equal(_bits(loaded), _bits(D))
    assert loaded_spec == spec
    assert header["metadata"] == {"beta": 0.1}


@SETTINGS
@given(_matrices())
def test_matrix_csv_returns_finite_entries_bitwise(folder, X):
    write_matrix_csv(folder / "matrix.csv", X)
    read = read_matrix_csv(folder / "matrix.csv")
    assert read.shape == X.shape
    finite = np.isfinite(X)
    assert np.array_equal(_bits(read[finite]), _bits(X[finite]))
    assert np.isnan(read[~finite]).all()
