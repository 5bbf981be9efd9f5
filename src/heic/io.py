"""File formats: whitespace edge lists and dense CSV matrices.

Edge list: a header line ``n=<count>`` followed by one ``i j`` pair per
edge (0-based, i < j, unique, whitespace separated).  Dense CSV: one row per line,
comma separated, 17 significant digits so float64 values round-trip.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ValidationError
from .model import require_adjacency


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_edge_list(path, adj) -> None:
    adj, _ = require_adjacency(adj)
    n = adj.shape[0]
    rows, cols = np.nonzero(np.triu(adj, k=1))
    lines = [f"n={n}"]
    lines.extend(f"{i} {j}" for i, j in zip(rows.tolist(), cols.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path) -> np.ndarray:
    header, _, body = Path(path).read_text().strip().partition("\n")
    if not header.startswith("n="):
        raise ValidationError(f"{path}: missing 'n=<count>' header")
    try:
        n = int(header[2:])
    except ValueError as exc:
        raise ValidationError(f"{path}: bad node count {header!r}") from exc
    if n < 1:
        raise ValidationError(f"{path}: node count must be >= 1")
    edges = np.empty((0, 2), dtype=np.int64)
    if body.strip():
        try:
            edges = np.loadtxt(body.splitlines(), dtype=np.int64, ndmin=2, comments=None)
        except ValueError as exc:
            raise ValidationError(f"{path}: expected 'i j' integer pairs ({exc})") from exc
    if edges.shape[1] != 2:
        raise ValidationError(f"{path}: expected 'i j', got {edges.shape[1]} columns")
    i, j = edges.T
    bad = np.flatnonzero((i < 0) | (i >= j) | (j >= n))
    if bad.size:
        raise ValidationError(f"{path}: edge ({i[bad[0]]}, {j[bad[0]]}) out of range for n={n}")
    keys = np.sort(i * n + j)
    repeated = keys[1:][keys[1:] == keys[:-1]]
    if repeated.size:
        raise ValidationError(f"{path}: duplicate edge {divmod(int(repeated[0]), n)}")
    adj = np.zeros((n, n))
    adj[i, j] = adj[j, i] = 1.0
    return adj


def write_matrix_csv(path, m) -> None:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("dense CSV export expects a 2-d matrix")
    # %.17g formats each value exactly as format_float does.
    np.savetxt(path, arr, fmt="%.17g", delimiter=",")


def read_matrix_csv(path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    # Checked here: numpy would warn on a file without rows and return an empty array.
    if not any(line.strip() for line in lines):
        raise ValidationError(f"{path}: dense CSV has no rows")
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed dense CSV ({exc})") from exc
