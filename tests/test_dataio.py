import numpy as np
import pytest

from kfmc import KernelSpec, Mask
from kfmc.checkpoint import load_checkpoint, save_checkpoint
from kfmc.dataio import (read_mask_csv, read_matrix_csv, write_mask_csv,
                         write_matrix_csv, write_trace_csv)


def test_matrix_roundtrip_exact(tmp_path, rng):
    X = rng.standard_normal((5, 7))
    X[1, 2] = np.nan
    path = tmp_path / "x.csv"
    write_matrix_csv(path, X)
    Y = read_matrix_csv(path)
    assert Y.shape == X.shape
    assert np.isnan(Y[1, 2])
    finite = np.isfinite(X)
    assert np.array_equal(Y[finite], X[finite])


def test_matrix_write_bytes(tmp_path):
    # a non-finite value is written as NaN, -0.0 as -0, the rest in %.17g
    X = np.array([[0.1, np.nan, -0.0],
                  [np.inf, -np.inf, 1 / 3],
                  [1e300, 5e-324, -2.5]])
    path = tmp_path / "x.csv"
    write_matrix_csv(path, X)
    assert path.read_bytes() == (
        b"0.10000000000000001,NaN,-0\n"
        b"NaN,NaN,0.33333333333333331\n"
        b"1.0000000000000001e+300,4.9406564584124654e-324,-2.5\n")


def test_matrix_read_tokens(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.5,NaN,2\nnan,,3\n")
    X = read_matrix_csv(path)
    assert X.shape == (2, 3)
    assert np.isnan(X[0, 1]) and np.isnan(X[1, 0]) and np.isnan(X[1, 1])
    assert X[0, 0] == 1.5 and X[1, 2] == 3.0


def test_matrix_read_ragged_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError):
        read_matrix_csv(path)


def test_mask_roundtrip(tmp_path, rng):
    mask = Mask(rng.uniform(size=(4, 6)) < 0.5)
    path = tmp_path / "mask.csv"
    write_mask_csv(path, mask)
    assert read_mask_csv(path) == mask


def test_mask_requires_binary(tmp_path):
    path = tmp_path / "mask.csv"
    path.write_text("1,0\n0,2\n")
    with pytest.raises(ValueError):
        read_mask_csv(path)


def test_trace_csv_padded_columns(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, {"a": np.array([1.0, 2.0, 3.0]),
                           "b": np.array([4.0])})
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1,4"
    assert lines[3] == "3,"


def test_checkpoint_roundtrip(tmp_path, rng):
    D = rng.standard_normal((7, 4))
    spec = KernelSpec.rbf(sigma=1.75)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, D, spec, metadata={"beta": 1e-4, "samples_seen": 12})
    D2, spec2, header = load_checkpoint(path)
    assert np.array_equal(D, D2)
    assert spec2 == spec
    assert header["metadata"]["samples_seen"] == 12


def test_checkpoint_poly_kernel_roundtrip(tmp_path, rng):
    D = rng.standard_normal((3, 2))
    spec = KernelSpec.poly(degree=3, offset=0.5)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, D, spec)
    _, spec2, _ = load_checkpoint(path)
    assert spec2 == spec


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\x00\x01\x02not json\n1234")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated(tmp_path, rng):
    D = rng.standard_normal((4, 3))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, D, KernelSpec.rbf(1.0))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        load_checkpoint(path)
