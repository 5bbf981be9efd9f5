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
eigenvalue-only solve serves every candidate: the values of
spectral.tridiagonalize, a tridiagonal reduction and dsterf, which are
numpy's eigvalsh bit for bit.  The dimension scan always takes this full
reduction: its small candidates score windows inside the bulk, with gaps
far below the bulk's width, which no partial spectrum can certify.

heic() has two solver routes (see spectral.py), at every n, and names the
one it took in HeicDiagnostics.solver:

- "certified" when the edge density is at least CERTIFIED_MIN_DENSITY: a
  few eigenpairs at each end, proved to be the extremes by two Cholesky
  factorizations of the shifted matrix with those pairs deflated, and
  every other eigenvalue bounded to an interval.  certify_window then
  proves from these alone which window the full scan would pick (the rule
  is in its docstring).  The gap is the same score, from Ritz values
  within a few ulps;
- "tridiagonal" otherwise, and whenever the certified route fails or
  declines (ARPACK's Krylov basis too large for n, ARPACK past its budget,
  a factorization that breaks down, or a window rule that does not
  certify): the reduction, every eigenvalue, and the window's eigenvectors
  alone.  Its eigenvalues are the dimension scan's bit for bit, so
  heic(adjacency, d) then reports the score of candidate d as its gap
  exactly.

Both routes, and the dimension scan, run every BLAS and LAPACK call on
scipy's thread pool, so numpy's pool stays idle (see spectral.py).

The scan is scale free, so the edge-density parameter rho is never needed
for estimation; it only enters the simulation-side check event_e_check.

heic() and estimate_dimension validate their adjacency once, at the top,
with model.require_adjacency (square, finite, symmetric, 0/1 entries, no
self-loops), so both accept and reject the same graphs with the same
messages, and check their window sizes (integers, against n) with
_require_window.  heic() checks its scalars rho and analytic_gap before
that, so bad ones cost no solve.  A uint8 or bool adjacency, which the
samplers and the edge-list reader produce, is checked where it lies,
without a copy.  Each command then divides it into its one n x n float64
array, the working copy A/n that the solvers read and overwrite; the
certified route writes A/n back into it before it falls back.  A/n has the
same bits whether the adjacency came as uint8, bool or float64, so every
output does too.  They then trust it through the solve.  heic() picks its
window as find_cluster does and reports the margin over the runner-up, then
keeps the window's eigenvectors and runs event_e_check, which reads only
the window.  scan_spectrum validates only the candidates against the
spectrum it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import spectral
from .errors import ValidationError
from .model import require_adjacency
from .spectral import Spectrum, extreme_pairs

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
    """How heic() chose its window.

    solver names the route: "tridiagonal" or "certified".  margin is the
    chosen window's gap minus the largest gap of any other window: the
    selection margin over the runner-up on the reduction, and on the
    certified route the certificate margin, against the largest bound on
    another window's gap.
    """

    gap: float
    diameter: float
    cluster_start: int
    top_eigenvalue: float
    edge_density: float
    degenerate: bool
    solver: str
    margin: float
    event_e: Optional[EventEReport] = None


@dataclass(frozen=True)
class DimensionScan:
    """Each candidate d's score, and the d chosen.

    margin is the selection margin, the best score over the second best:
    inf when the runner-up scores 0 or there is none, 1 when all score 0.
    """

    candidates: tuple[int, ...]
    scores: np.ndarray
    chosen: int
    margin: float


def _working_copy(adjacency: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """A/n as float64, the only n x n array a graph command makes; into out when given."""
    n = adjacency.shape[0]
    return np.divide(adjacency, n, out=np.empty((n, n)) if out is None else out)


def _require_integer(value, name: str) -> None:
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _require_window(n: int, d: int) -> None:
    _require_integer(d, "cluster size")
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


def _selection(window: np.ndarray, start: int, gap: float) -> ClusterSelection:
    d = window.size
    return ClusterSelection(
        d=d,
        start=start,
        indices=tuple(range(start, start + d)),
        gap=gap,
        diameter=float(window[0] - window[-1]),
        values=window,
    )


def _best_window(values: np.ndarray, d: int) -> tuple[ClusterSelection, float]:
    """The best window, as find_cluster picks it, and its margin over the runner-up."""
    gaps = window_gaps(values, d)
    best = int(np.argmax(gaps))
    gap = float(gaps[best])
    gaps[best] = -np.inf
    return _selection(values[best + 1 : best + 1 + d], best + 1, gap), gap - float(gaps.max())


def find_cluster(spec: Spectrum, d: int) -> ClusterSelection:
    """Window of d consecutive sorted eigenvalues with the largest separation.

    Ties return the smallest start index.  The achieved gap is the
    spectrum's size-d cluster score.
    """
    _require_window(len(spec.values), d)
    return _best_window(spec.values, d)[0]


def certify_window(
    top, bottom, lower: float, upper: float, n: int, d: int, slack: float
) -> Optional[tuple[int, float, float]]:
    """The window find_cluster would pick on a spectrum known only at its ends, or None.

    The n sorted eigenvalues are known at the top (the decreasing values
    top, at positions 0 .. t-1) and the bottom (bottom, decreasing, at
    positions n-b .. n-1), each within slack; every other eigenvalue lies
    in [lower, upper].  Returns (start, gap, margin) when one window is
    proved best, else None.

    The rule.  A step between two known eigenvalues is exact: its computed
    value is within 2 slack of the true one.  A step that touches the
    middle is bounded by the middle's range: at most the upper end of the
    value above it minus the lower end of the value below it.  A window's
    gap is the smaller of its two steps (one for the window that ends at
    position n-1), so it is exact when its steps are, and otherwise at most
    the smaller of their bounds.  Let the best exact window have computed
    gap G, and every other window a bound U_i (for an exact window, its
    computed gap plus 2 slack).  If G - 2 slack > U_i for every other i,
    the best window's true gap exceeds every other window's true gap, so
    the full scan's argmax is unique and is this window, whatever the
    middle holds, and G is its score within 2 slack.  margin is
    G - max U_i, and the rule certifies when margin > 2 slack.
    """
    top = np.asarray(top, dtype=float)
    bottom = np.asarray(bottom, dtype=float)
    middle = n - top.size - bottom.size
    known = np.concatenate([top, np.full(middle, np.nan), bottom])
    high = np.concatenate([top + slack, np.full(middle, upper), bottom + slack])
    low = np.concatenate([top - slack, np.full(middle, lower), bottom - slack])
    steps = known[:-1] - known[1:]  # NaN where a step touches the middle
    bounds = np.where(np.isnan(steps), high[:-1] - low[1:], steps + 2.0 * slack)
    exact = np.minimum(steps[: n - d], np.append(steps[d:], np.inf))
    bound = np.minimum(bounds[: n - d], np.append(bounds[d:], np.inf))
    if np.isnan(exact).all():
        return None
    best = int(np.nanargmax(exact))
    gap = float(exact[best])
    bound[best] = -np.inf
    margin = gap - float(bound.max())
    if not margin > 2.0 * slack:
        return None
    return best + 1, gap, margin


def gram_estimate(spec: Spectrum, cluster: ClusterSelection) -> GramEstimate:
    """The estimate over the selected window's eigenvectors."""
    if cluster.indices[-1] >= len(spec.values) or cluster.start < 1:
        raise ValidationError("cluster does not fit the spectrum")
    return GramEstimate(spec.window_vectors(cluster.start, cluster.start + cluster.d), cluster)


def _require_gap(gap_analytic: float) -> None:
    if not gap_analytic > 0:  # NaN fails both checks
        raise ValidationError(f"analytic gap must be positive for the cluster check, got {gap_analytic}")


def _require_rho(rho: float) -> None:
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
    _require_gap(gap_analytic)
    _require_rho(rho)
    threshold = rho * gap_analytic / 2.0
    return EventEReport(cluster.diameter < threshold and cluster.gap >= threshold, threshold)


# The certified route is tried, at every n, when the edge density is at
# least CERTIFIED_MIN_DENSITY.  Measured with threshold(0) graphs, d=3, on
# 2 cores, at rho = 1, 40 ln n/n and 8 ln n/n (capped at 1):
# - n=3000, densities 0.5, 0.053, 0.011: at 0.5 ARPACK converged in 71-80
#   products and heic() certified in 0.7-0.9 s, against 1.5-1.7 s for the
#   reduction; at 0.053 it needed 224-254 products, past the budget of 120,
#   so routing it would cost about 0.2 s more; at 0.011 it converged after
#   316 products, but the window's gap of 0.002 did not certify.
# - n=1200, densities 0.5, 0.118, 0.024: 71-88 products and certified;
#   157 products; 235 products and no certificate.
# - n=1000, densities 0.5, 0.14, 0.028: certified in 32-39 ms against
#   69-73 ms for the reduction; past the budget, 88-95 ms in all.
# - n=500, densities 0.5, 0.25, 0.05: certified in 9-10 and 10-11 ms
#   against 14-16 ms; past the budget, 22-23 ms against 16-17 ms.
# - n=200, densities 0.5 and 0.1: certified in 3-4 ms, as fast as the
#   reduction; no certificate after 116 products, 8 ms against 3 ms.
CERTIFIED_MIN_DENSITY = 0.25


def _certified_window(adjacency: np.ndarray, work: np.ndarray, d: int):
    """(pairs, cluster, margin) from the certified route, or None with work holding A/n."""
    pairs = extreme_pairs(work, 2 * d + 5)
    if pairs is None:
        return None
    n = work.shape[0]
    window = certify_window(pairs.top, pairs.bottom, pairs.lower, pairs.upper, n, d, pairs.slack)
    if window is None or not pairs.confirm(work, lambda: _working_copy(adjacency, out=work)):
        return None
    start, gap, margin = window
    return pairs, _selection(pairs.window(start, start + d)[0], start, gap), margin


def _require_event_e_scalars(rho, analytic_gap) -> bool:
    """Range-check whichever is given; True when both are, so heic() runs the check."""
    if analytic_gap is not None:
        _require_gap(analytic_gap)
    if rho is not None:
        _require_rho(rho)
    if (rho is None) != (analytic_gap is None):
        raise ValidationError("rho and analytic_gap must be given together")
    return rho is not None


def heic(
    adjacency,
    d: int,
    *,
    rho: Optional[float] = None,
    analytic_gap: Optional[float] = None,
) -> tuple[GramEstimate, HeicDiagnostics]:
    """Full pipeline: validate, normalize, solve, locate the cluster, keep its eigenvectors.

    No n x n projector is built: the estimate holds the n x d window basis V,
    and its matrix property builds (1/d) V V^T on request.  When rho and
    the analytic gap of the generating link are supplied (simulation
    studies), the diagnostics carry the cluster-quality check; they must
    come together, and are checked before the adjacency.  A zero separation
    score marks the estimate as degenerate (e.g. the empty graph), signalled
    in the diagnostics rather than raised.
    """
    with_event_e = _require_event_e_scalars(rho, analytic_gap)
    adjacency, density = require_adjacency(adjacency)
    n = adjacency.shape[0]
    _require_window(n, d)
    work = _working_copy(adjacency)
    certified = None
    if density >= CERTIFIED_MIN_DENSITY:
        certified = _certified_window(adjacency, work, d)
    if certified is not None:
        solved, cluster, margin = certified
        top = float(solved.top[0])
    else:
        solved = spectral.tridiagonalize(work)
        cluster, margin = _best_window(solved.values, d)
        top = float(solved.values[0])
    estimate = GramEstimate(solved.window_vectors(cluster.start, cluster.start + d), cluster)
    event_e = None
    if with_event_e:
        event_e = event_e_check(solved, cluster, analytic_gap, rho)
    diagnostics = HeicDiagnostics(
        gap=cluster.gap,
        diameter=cluster.diameter,
        cluster_start=cluster.start,
        top_eigenvalue=top,
        edge_density=density,
        degenerate=cluster.gap <= 0.0,
        solver=solved.solver,
        margin=margin,
        event_e=event_e,
    )
    return estimate, diagnostics


def _require_candidates(candidates, n: int) -> tuple[int, ...]:
    candidates = tuple(candidates)
    if not candidates:
        raise ValidationError("candidate set must not be empty")
    for d in candidates:
        _require_window(n, d)
    return tuple(int(d) for d in candidates)


def _scan(values: np.ndarray, candidates: tuple[int, ...]) -> DimensionScan:
    scores = np.array([window_gaps(values, d).max() for d in candidates])
    best = int(np.argmax(scores))
    top = float(scores[best])
    runner_up = float(np.delete(scores, best).max(initial=0.0))
    margin = top / runner_up if runner_up > 0.0 else (np.inf if top > 0.0 else 1.0)
    return DimensionScan(candidates=candidates, scores=scores, chosen=candidates[best], margin=margin)


def scan_spectrum(spec: Spectrum, candidates) -> DimensionScan:
    """Score each candidate d on an already-computed sorted spectrum."""
    return _scan(spec.values, _require_candidates(candidates, len(spec.values)))


def estimate_dimension(adjacency, d_max: int = DEFAULT_D_MAX) -> DimensionScan:
    """Scan candidate dimensions 1 .. d_max on an adjacency matrix."""
    _require_integer(d_max, "d_max")
    if d_max < 1:
        raise ValidationError(f"d_max must be >= 1, got {d_max}")
    adjacency, _ = require_adjacency(adjacency)
    candidates = _require_candidates(range(1, d_max + 1), adjacency.shape[0])
    return _scan(spectral.tridiagonalize(_working_copy(adjacency)).values, candidates)
