"""Dictionary checkpoints: a one-line JSON header followed by raw float64.

The header carries the format version, kernel settings, shape, and whatever
run metadata the caller supplies; the dictionary follows as row-major
little-endian 64-bit floats, so the file is trivially parseable anywhere.
"""
from __future__ import annotations

import json

import numpy as np

from .kernels import POLY, KernelSpec

FORMAT_NAME = "kfmc-checkpoint"
FORMAT_VERSION = 1


def kernel_to_dict(spec: KernelSpec) -> dict:
    if spec.is_poly:
        return {"kind": spec.kind, "degree": spec.degree, "offset": spec.offset}
    return {"kind": spec.kind, "sigma": spec.sigma}


def kernel_from_dict(d: dict) -> KernelSpec:
    """Inverse of :func:`kernel_to_dict`; KernelSpec checks the values."""
    if d["kind"] == POLY:
        return KernelSpec(kind=POLY, degree=d["degree"],
                          offset=float(d["offset"]))
    return KernelSpec(kind=d["kind"], sigma=float(d["sigma"]))


def save_checkpoint(path, D: np.ndarray, spec: KernelSpec,
                    metadata: dict | None = None) -> None:
    D = np.ascontiguousarray(np.asarray(D, dtype="<f8"))
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kernel": kernel_to_dict(spec),
        "m": int(D.shape[0]),
        "r": int(D.shape[1]),
    }
    if metadata:
        header["metadata"] = metadata
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(D.tobytes(order="C"))


def load_checkpoint(path) -> tuple[np.ndarray, KernelSpec, dict]:
    """Return (dictionary, kernel spec, header dict).  A file that is not a
    well-formed checkpoint raises ValueError naming ``path``."""
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: not a checkpoint file") from exc
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise ValueError(f"{path}: not a checkpoint file")
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version "
                             f"{header.get('version')}")
        m, r = header.get("m"), header.get("r")
        if not all(type(v) is int and v >= 1 for v in (m, r)):
            raise ValueError(f"{path}: header needs integers m, r >= 1, "
                             f"got m={m!r}, r={r!r}")
        if not isinstance(header.get("metadata", {}), dict):
            raise ValueError(f"{path}: header metadata must be an object")
        try:
            spec = kernel_from_dict(header["kernel"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad kernel {header.get('kernel')!r} "
                             f"({type(exc).__name__}: {exc})") from exc
        payload = fh.read()
    expected = m * r * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, "
                         f"got {len(payload)}")
    D = np.frombuffer(payload, dtype="<f8").reshape(m, r).astype(float)
    return D, spec, header
