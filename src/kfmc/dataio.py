"""CSV matrix I/O and dataset manifests.

Matrices are plain comma-separated rows; a missing entry is the token
``NaN`` (any case) or an empty field.  Masks are 0/1 CSVs of the same shape
(1 = observed).  Float formatting uses 17 significant digits so files
round-trip exactly.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .masking import Mask

_FLOAT_FMT = "%.17g"


def _parse_cell(token: str) -> float:
    token = token.strip()
    if token == "" or token.lower() == "nan":
        return float("nan")
    return float(token)


def read_matrix_csv(path) -> np.ndarray:
    """Read a dense matrix; NaN or empty fields become NaN.  Any other token
    that is not a float raises ValueError naming the file and its line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                rows.append([_parse_cell(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return np.array(rows, dtype=float)


def write_matrix_csv(path, X: np.ndarray) -> None:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for row, row_finite in zip(X.tolist(), np.isfinite(X).tolist()):
            fh.write(",".join(_FLOAT_FMT % v if ok else "NaN"
                              for v, ok in zip(row, row_finite)))
            fh.write("\n")


def read_mask_csv(path) -> Mask:
    """Read a 0/1 observation mask (1 = observed)."""
    M = read_matrix_csv(path)
    if not np.all(np.isin(M, (0.0, 1.0))):
        raise ValueError(f"{path}: mask entries must be 0 or 1")
    return Mask(M.astype(bool))


def write_mask_csv(path, mask: Mask) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in mask.observed:
            fh.write(",".join("1" if v else "0" for v in row))
            fh.write("\n")


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_trace_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named columns as a tidy CSV with a header row."""
    names = list(columns)
    arrays = [np.asarray(columns[k]) for k in names]
    length = max((a.size for a in arrays), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(length):
            cells = []
            for a in arrays:
                cells.append(_FLOAT_FMT % a[i] if i < a.size else "")
            fh.write(",".join(cells) + "\n")


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
