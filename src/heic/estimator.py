"""Eigenvalue-cluster search and Gram matrix reconstruction.

Given the adjacency matrix of a graph sampled from an inner-product kernel
on S^{d-1}, the d eigenvalues tied to the degree-1 spherical harmonics form
a tight cluster that is well separated from the rest of the spectrum (the
top eigenvalue tracks the mean connectivity and is excluded).  The search
scans every window of d consecutive sorted eigenvalues starting at sorted
position 1 and picks the window with the largest separation from the
eigenvalues outside it.  Its n x d eigenvectors V are the estimate: the
projector (1/d) V V^T, whose entries scaled by n estimate the latent inner
products <X_i, X_j>, is built only when GramEstimate.matrix is read, and
sqrt(n/d) V estimates the latent positions up to an orthogonal transform.

The scan is scale free, so the edge-density parameter rho is never needed
for estimation; it only enters the simulation-side diagnostics
(event_e_check, noise_bound).

heic() validates its adjacency once, at the top (square, finite, symmetric,
0/1 entries, room for a window of size d), and then trusts it through one
solve (spectral.window_eigh): every eigenvalue for the scan, then the
eigenvectors of the chosen window, which from PARTIAL_SOLVE_MIN_N nodes on
are the only ones computed.  It runs the public stages (find_cluster,
gram_estimate, event_e_check) on the solver's result as it is; they read
only its values and window_vectors, check only their scalar arguments and
the window's fit, and never a matrix.  noise_bound validates its matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError
from .model import require_adjacency, require_symmetric
from .spectral import Spectrum, window_eigh


@dataclass(frozen=True)
class ClusterSelection:
    """A window of d consecutive sorted eigenvalue positions (never position 0).

    values holds the window's eigenvalues, largest first.
    """

    d: int
    start: int
    indices: tuple[int, ...]
    gap: float
    diameter: float
    values: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class GramEstimate:
    """Rank-d projector estimate (1/d) V V^T of the population Gram matrix.

    vectors is the n x d window basis V, orthonormal columns;
    sqrt(n/d) V estimates the latent positions up to an orthogonal transform.
    """

    vectors: np.ndarray
    cluster: ClusterSelection

    @property
    def matrix(self) -> np.ndarray:
        """The n x n projector (1/d) V V^T, built on each access; trace 1, PSD, rank <= d."""
        # v @ v.T is a symmetric rank-d update (BLAS syrk), so exactly symmetric.
        return self.vectors @ self.vectors.T / self.cluster.d


@dataclass(frozen=True)
class EventEReport:
    """Cluster-quality check: diameter below and separation above rho*gap/2."""

    ok: bool
    diameter: float
    gap: float
    threshold: float


@dataclass(frozen=True)
class HeicDiagnostics:
    gap: float
    diameter: float
    cluster_start: int
    top_eigenvalue: float
    edge_density: float
    degenerate: bool
    event_e: Optional[EventEReport] = None


def _require_window(n: int, d: int) -> None:
    if d < 1:
        raise ValidationError(f"cluster size must be >= 1, got {d}")
    if n < d + 2:
        raise ValidationError(f"need at least d + 2 = {d + 2} eigenvalues, got {n}")


def window_gaps(values, d: int) -> np.ndarray:
    """Separation of every window {i, ..., i+d-1}, i = 1 .. n-d, from the rest.

    values must be sorted decreasingly and 1 <= d <= n - 1.  Entry i-1 is
    the smaller of the steps |values[i] - values[i-1]| and
    |values[i+d] - values[i+d-1]|; the window ending at the last position
    has only the first.  Windows never contain sorted position 0 (the top
    eigenvalue tracks the mean connectivity, not the degree-1 harmonics).
    """
    steps = np.abs(np.diff(values))  # steps[j] = |values[j+1] - values[j]|
    return np.minimum(steps[: len(values) - d], np.append(steps[d:], np.inf))


def find_cluster(spec: Spectrum, d: int) -> ClusterSelection:
    """Window of d consecutive sorted eigenvalues with the largest separation.

    Ties return the smallest start index.  The achieved gap is the
    spectrum's size-d cluster score.
    """
    _require_window(len(spec.values), d)
    gaps = window_gaps(spec.values, d)
    start = int(np.argmax(gaps)) + 1
    window = spec.values[start : start + d]
    return ClusterSelection(
        d=d,
        start=start,
        indices=tuple(range(start, start + d)),
        gap=float(gaps[start - 1]),
        diameter=float(window[0] - window[-1]),
        values=window,
    )


def gram_estimate(spec: Spectrum, cluster: ClusterSelection) -> GramEstimate:
    """The estimate over the selected window's eigenvectors."""
    if cluster.indices[-1] >= len(spec.values) or cluster.start < 1:
        raise ValidationError("cluster does not fit the spectrum")
    return GramEstimate(spec.window_vectors(cluster.start, cluster.start + cluster.d), cluster)


def event_e_check(
    spec: Spectrum, cluster: ClusterSelection, gap_analytic: float, rho: float
) -> EventEReport:
    """Simulation-side check that the selected cluster looks like the true one.

    Requires the analytic spectral gap of the generating link, so it is
    only available when the model is known: diameter < rho*gap/2 and
    separation >= rho*gap/2.
    """
    if gap_analytic <= 0:
        raise ValidationError("analytic gap must be positive for the cluster check")
    threshold = rho * gap_analytic / 2.0
    ok = cluster.diameter < threshold and cluster.gap >= threshold
    return EventEReport(ok=ok, diameter=cluster.diameter, gap=cluster.gap, threshold=threshold)


def noise_bound(theta, alpha: float) -> float:
    """Heuristic high-probability bound on ||observed/n - theta/n||_op.

    3*sqrt(2*D0)/n + sqrt(log(n/alpha))/n with D0 the largest row sum of
    theta*(1-theta).  The universal constant on the second term is not
    pinned by theory; it is fixed to 1 here, so treat the value as a
    diagnostic scale, not a certified bound.
    """
    arr = require_symmetric(theta, "probability matrix")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    n = arr.shape[0]
    d0 = float((arr * (1.0 - arr)).sum(axis=1).max())
    return 3.0 * math.sqrt(2.0 * d0) / n + math.sqrt(math.log(n / alpha)) / n


def heic(
    adjacency,
    d: int,
    *,
    rho: Optional[float] = None,
    analytic_gap: Optional[float] = None,
) -> tuple[GramEstimate, HeicDiagnostics]:
    """Full pipeline: validate, normalize, solve, locate the cluster, keep its eigenvectors.

    No n x n projector is built: the estimate holds the n x d window basis V,
    and its matrix property builds (1/d) V V^T on request.  When both rho
    and the analytic gap of the generating link are supplied (simulation
    studies), the diagnostics carry the cluster-quality check.  A zero
    separation score marks the estimate as degenerate (e.g. the empty
    graph), signalled in the diagnostics rather than raised.
    """
    adjacency, density = require_adjacency(adjacency)
    n = adjacency.shape[0]
    _require_window(n, d)
    solved = window_eigh(adjacency / n)
    cluster = find_cluster(solved, d)
    estimate = gram_estimate(solved, cluster)
    event_e = None
    if rho is not None and analytic_gap is not None:
        event_e = event_e_check(solved, cluster, analytic_gap, rho)
    diagnostics = HeicDiagnostics(
        gap=cluster.gap,
        diameter=cluster.diameter,
        cluster_start=cluster.start,
        top_eigenvalue=float(solved.values[0]),
        edge_density=density,
        degenerate=cluster.gap <= 0.0,
        event_e=event_e,
    )
    return estimate, diagnostics
