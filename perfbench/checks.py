"""Output checks, written apart from the library they check.

Nothing here calls ``heic``: the cluster scan, the matching distance and
the Gram error are re-derived with plain numpy from eigenvalues and latent
points that the benchmark computed itself.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Eigenvalues from LAPACK with and without eigenvectors agree to a few ulps
# of the spectral norm (<= 1 for A/n); gaps and scores are compared to this.
SCORE_TOL = 1e-9


def window_gaps(values: np.ndarray, d: int) -> np.ndarray:
    """Separation of each window of d consecutive decreasing eigenvalues, starts 1 .. n-d.

    Entry s-1 is min(|v[s] - v[s-1]|, |v[s+d] - v[s+d-1]|); the right term is
    dropped for the window that ends at the last eigenvalue.
    """
    v = np.sort(np.asarray(values, dtype=float))[::-1]
    steps = np.abs(np.diff(v))
    starts = np.arange(1, v.size - d + 1)
    right = np.full(starts.size, np.inf)
    inner = starts + d <= v.size - 1
    right[inner] = steps[starts[inner] + d - 1]
    return np.minimum(steps[starts - 1], right)


def cluster(values: np.ndarray, d: int) -> tuple[int, float, float]:
    """(start, best gap, runner-up gap) of the size-d window scan; ties pick the first."""
    gaps = window_gaps(values, d)
    best = int(np.argmax(gaps))
    runner = float(np.max(np.delete(gaps, best))) if gaps.size > 1 else 0.0
    return best + 1, float(gaps[best]), runner


def scan_scores(values: np.ndarray, d_max: int) -> np.ndarray:
    return np.array([window_gaps(values, d).max() for d in range(1, d_max + 1)])


def matching_distance(a, b) -> float:
    """Minimal L2 distance over pairings, both sequences padded with zeros."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    pa = np.zeros(a.size + b.size)
    pb = np.zeros(a.size + b.size)
    pa[: a.size] = a
    pb[: b.size] = b
    return float(np.linalg.norm(np.sort(pa)[::-1] - np.sort(pb)[::-1]))


def gram_norm(x: np.ndarray) -> float:
    """||X X^T / n||_F from the n x d latent points, without an n x n matrix."""
    return float(np.linalg.norm(x.T @ x)) / x.shape[0]


def projector_gram_error(v: np.ndarray, x: np.ndarray) -> float:
    """gram_error of V V^T / d for orthonormal n x d columns V, in O(n d^2)."""
    n, d = v.shape
    g2 = gram_norm(x) ** 2
    sq = 1.0 / d - 2.0 * float(np.linalg.norm(v.T @ x)) ** 2 / (d * n) + g2
    return math.sqrt(max(sq, 0.0) / g2)


def threshold_spectrum(k_max: int) -> np.ndarray:
    """Levels 0 .. k_max of threshold(0) on S^2: lambda_k = (1/2) int_{-1}^{0} P_k(t) dt."""
    legendre = np.polynomial.legendre.Legendre
    return np.array([0.5 * legendre.basis(k).integ(lbnd=-1.0)(0.0) for k in range(k_max + 1)])


def gram_error(estimate: np.ndarray, x: np.ndarray) -> float:
    """||G_hat - X X^T/n||_F / ||X X^T/n||_F, with O(n d) extra memory."""
    n = x.shape[0]
    cross = float(np.sum(x * (estimate @ x))) / n
    g2 = gram_norm(x) ** 2
    sq = float(np.vdot(estimate, estimate)) - 2.0 * cross + g2
    return math.sqrt(max(sq, 0.0) / g2)


def csv_problems(path: Path, header: str, rows: int) -> list[str]:
    """Header, row count and NaN cells of a study CSV."""
    lines = Path(path).read_text().splitlines()
    problems = []
    if not lines or lines[0] != header:
        problems.append(f"{path.name}: header {lines[:1]} != {header!r}")
    if len(lines) - 1 != rows:
        problems.append(f"{path.name}: {len(lines) - 1} rows, expected {rows}")
    if any("nan" in line.lower() for line in lines[1:]):
        problems.append(f"{path.name}: NaN rows")
    return problems


def graph_problems(
    *, spectrum, scan, diag, gram_err: float, gram_gate: float, d: int, d_max: int,
    start: int, event_e: bool,
) -> list[str]:
    """Check one graph's `estimate_dimension` and `heic` outputs against its eigenvalues."""
    problems = []
    want_start, want_gap, _ = cluster(spectrum, d)
    if diag.cluster_start != start or want_start != start:
        problems.append(f"cluster start {diag.cluster_start} (scan {want_start}), expected {start}")
    if abs(diag.gap - want_gap) > SCORE_TOL:
        problems.append(f"gap {diag.gap!r} != {want_gap!r}")
    scores = scan_scores(spectrum, d_max)
    if np.max(np.abs(np.asarray(scan.scores) - scores)) > SCORE_TOL:
        problems.append("dimension scores differ from the eigenvalue scan")
    if scan.chosen != d:
        problems.append(f"chosen dimension {scan.chosen}, expected {d}")
    if event_e and not (diag.event_e is not None and diag.event_e.ok):
        problems.append("event E does not hold")
    if not gram_err < gram_gate:
        problems.append(f"gram error {gram_err:.4g} not under {gram_gate}")
    return problems
