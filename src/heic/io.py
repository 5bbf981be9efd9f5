"""File formats: whitespace edge lists, dense CSV matrices and CSV tables.

Edge list: a header line ``n=<count>`` followed by one ``i j`` pair per
edge (0-based, i < j, unique, whitespace separated); read_edge_list
returns it as a symmetric uint8 0/1 adjacency.  Dense CSV: one row per line,
comma separated, 17 significant digits so float64 values round-trip.
Table: a header line, then one comma-separated line per row, floats with
17 significant digits and every other cell as ``str`` gives it.  Every
writer writes to standard output when its path is "-".
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

import numpy as np

from .errors import ValidationError, require_integer
from .model import require_adjacency, require_memory


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _text_out(path):
    """Where to write text: path, or standard output when path is "-" (a str or a Path)."""
    return contextlib.nullcontext(sys.stdout) if str(path) == "-" else open(path, "w")


def write_table(path, header: str, rows) -> None:
    """Write a CSV table to path, or to stdout when path is "-"."""
    lines = [header]
    lines.extend(
        ",".join(format_float(cell) if isinstance(cell, float) else str(cell) for cell in row)
        for row in rows
    )
    with _text_out(path) as out:
        out.write("\n".join(lines) + "\n")


def write_edge_list(path, adj) -> None:
    """Write the graph's edge list row by row, holding no more than one row's lines."""
    adj, _ = require_adjacency(adj)
    n = adj.shape[0]
    with _text_out(path) as out:
        out.write(f"n={n}\n")
        for i in range(n - 1):
            if neighbours := (np.flatnonzero(adj[i, i + 1 :]) + (i + 1)).tolist():
                out.write(f"{i} " + f"\n{i} ".join(map(str, neighbours)) + "\n")


def read_edge_list(path) -> np.ndarray:
    """The graph of an edge-list file as a symmetric uint8 0/1 matrix with zero diagonal."""
    with open(path) as f:  # the body is parsed from the open file, with no copy of its text
        header = next((line for line in iter(f.readline, "") if line.strip()), "")
        start = f.tell()
        has_body = any(line.strip() for line in iter(f.readline, ""))
        f.seek(start)
        # The header line as .strip() of the whole text leaves it.
        header = header.lstrip().removesuffix("\n") if has_body else header.strip()
        if not header.startswith("n="):
            raise ValidationError(f"{path}: missing 'n=<count>' header")
        try:
            n = int(header[2:])
        except ValueError as exc:
            raise ValidationError(f"{path}: bad node count {header!r}") from exc
        require_memory(require_integer(n, f"{path}: node count", 1), str(path))
        edges = np.empty((0, 2), dtype=np.int64)
        if has_body:
            try:
                edges = np.loadtxt(f, dtype=np.int64, ndmin=2, comments=None)
            except ValueError as exc:
                raise ValidationError(f"{path}: expected 'i j' integer pairs ({exc})") from exc
    if edges.shape[1] != 2:
        raise ValidationError(f"{path}: expected 'i j', got {edges.shape[1]} columns")
    i, j = edges.T
    bad = np.flatnonzero((i < 0) | (i >= j) | (j >= n))
    if bad.size:
        raise ValidationError(f"{path}: edge ({i[bad[0]]}, {j[bad[0]]}) out of range for n={n}")
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[i, j] = 1
    if np.count_nonzero(adj) < i.size:  # a repeated edge sets its entry twice
        keys = np.sort(i * n + j)
        repeated = keys[1:][keys[1:] == keys[:-1]]
        raise ValidationError(f"{path}: duplicate edge {divmod(int(repeated[0]), n)}")
    adj[j, i] = 1
    return adj


def write_matrix_csv(path, m) -> None:
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2:
        raise ValidationError("dense CSV export expects a 2-d matrix")
    # %.17g formats each value exactly as format_float does.
    np.savetxt(sys.stdout if str(path) == "-" else path, arr, fmt="%.17g", delimiter=",")


def read_matrix_csv(path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    # Checked here: numpy would warn on a file without rows and return an empty array.
    if not any(line.strip() for line in lines):
        raise ValidationError(f"{path}: dense CSV has no rows")
    try:
        return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed dense CSV ({exc})") from exc
