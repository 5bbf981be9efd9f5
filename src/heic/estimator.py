"""Eigenvalue-cluster search, Gram matrix reconstruction and dimension recovery.

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

The latent dimension is a byproduct of the same scan: each candidate d
scores the best separation of any d consecutive sorted eigenvalues, and
the candidate whose score is largest is the estimate.  Ties pick the
smallest d, because np.argmax returns the first maximum and the default
candidates 1 .. d_max increase.  The scores read eigenvalues only, so one
eigenvalue-only solve serves every candidate: spectral.descending_eigvalsh,
a tridiagonal reduction and dsterf.  From spectral.PARTIAL_SOLVE_MIN_N
nodes on that is the in-place reduction heic()'s partial solve makes, so
heic(adjacency, d) reports the score of candidate d as its gap.  Below, it
is numpy's eigvalsh, whose values match the reduction's bit for bit;
heic() takes the full eigh there, whose eigenvalues may differ in the last
digit.

The scan is scale free, so the edge-density parameter rho is never needed
for estimation; it only enters the simulation-side check event_e_check.

heic() and estimate_dimension validate their adjacency once, at the top,
with model.require_adjacency (square, finite, symmetric, 0/1 entries, no
self-loops), so both accept and reject the same graphs with the same
messages, and check their window sizes against n with _require_window.
heic() checks its scalars rho and analytic_gap before that, so bad ones
cost no solve.  A uint8 or bool adjacency, which the samplers and the
edge-list reader produce, is checked where it lies, without a copy.  Each
command then divides it into its one n x n float64 array, the working copy
A/n that the solver overwrites; A/n has the same bits whether the
adjacency came as uint8, bool or float64, so every output does too.  They
then trust it through one solve.  heic() solves with
spectral.window_eigh: every eigenvalue for the scan, then the eigenvectors
of the chosen window, which from PARTIAL_SOLVE_MIN_N nodes on are the only
ones computed.  It runs the public stages (find_cluster, gram_estimate,
event_e_check) on the solver's result as it is; they read only its values
and window_vectors, check only their scalar arguments and the window's
fit, and never a matrix.  scan_spectrum validates only the candidates
against the spectrum it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError
from .model import require_adjacency
from .spectral import Spectrum, descending_eigvalsh, window_eigh

DEFAULT_D_MAX = 15


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
    """Cluster-quality check: diameter below and separation above threshold = rho*gap/2."""

    ok: bool
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


@dataclass(frozen=True)
class DimensionScan:
    candidates: tuple[int, ...]
    scores: np.ndarray
    chosen: int


def _working_copy(adjacency: np.ndarray) -> np.ndarray:
    """A/n as a new float64 array, the only n x n array a graph command makes."""
    n = adjacency.shape[0]
    return np.divide(adjacency, n, out=np.empty((n, n)))


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


def _require_check_scalars(gap_analytic: float, rho: float) -> None:
    if not gap_analytic > 0:  # NaN fails both checks
        raise ValidationError(f"analytic gap must be positive for the cluster check, got {gap_analytic}")
    if not 0.0 < rho <= 1.0:
        raise ValidationError(f"rho must lie in (0, 1], got {rho}")


def event_e_check(
    spec: Spectrum, cluster: ClusterSelection, gap_analytic: float, rho: float
) -> EventEReport:
    """Simulation-side check that the selected cluster looks like the true one.

    Requires the analytic spectral gap of the generating link, so it is
    only available when the model is known: diameter < rho*gap/2 and
    separation >= rho*gap/2.
    """
    _require_check_scalars(gap_analytic, rho)
    threshold = rho * gap_analytic / 2.0
    return EventEReport(cluster.diameter < threshold and cluster.gap >= threshold, threshold)


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
    studies), the diagnostics carry the cluster-quality check, and both
    are checked before the adjacency.  A zero separation score marks the
    estimate as degenerate (e.g. the empty graph), signalled in the
    diagnostics rather than raised.
    """
    with_event_e = rho is not None and analytic_gap is not None
    if with_event_e:
        _require_check_scalars(analytic_gap, rho)
    adjacency, density = require_adjacency(adjacency)
    _require_window(adjacency.shape[0], d)
    solved = window_eigh(_working_copy(adjacency))
    cluster = find_cluster(solved, d)
    estimate = gram_estimate(solved, cluster)
    event_e = None
    if with_event_e:
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


def _require_candidates(candidates, n: int) -> tuple[int, ...]:
    candidates = tuple(int(d) for d in candidates)
    if not candidates:
        raise ValidationError("candidate set must not be empty")
    for d in candidates:
        _require_window(n, d)
    return candidates


def _scan(values: np.ndarray, candidates: tuple[int, ...]) -> DimensionScan:
    scores = np.array([window_gaps(values, d).max() for d in candidates])
    chosen = candidates[int(np.argmax(scores))]
    return DimensionScan(candidates=candidates, scores=scores, chosen=chosen)


def scan_spectrum(spec: Spectrum, candidates) -> DimensionScan:
    """Score each candidate d on an already-computed sorted spectrum."""
    return _scan(spec.values, _require_candidates(candidates, len(spec.values)))


def estimate_dimension(adjacency, d_max: int = DEFAULT_D_MAX) -> DimensionScan:
    """Scan candidate dimensions 1 .. d_max on an adjacency matrix."""
    if d_max < 1:
        raise ValidationError(f"d_max must be >= 1, got {d_max}")
    adjacency, _ = require_adjacency(adjacency)
    candidates = _require_candidates(range(1, d_max + 1), adjacency.shape[0])
    return _scan(descending_eigvalsh(_working_copy(adjacency)), candidates)
