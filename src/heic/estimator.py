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
spectral.reduce, a reduction and dsterf.  Below spectral.TWO_STAGE_MIN_N
they are numpy's eigvalsh bit for bit; from there on the reduction is
LAPACK's two-stage one, whose values differ from those in the last bits.
The dimension scan always takes this full reduction: its small candidates
score windows inside the bulk, with gaps far below the bulk's width, which
no partial spectrum can certify.  It needs n >= d_max + 2.

heic() has three solver routes (see spectral.py), tried in this order, and
names the one it took in HeicDiagnostics.solver:

- "certified" when the edge density is at least CERTIFIED_MIN_DENSITY: a
  few eigenpairs at each end, proved to be the extremes by two Cholesky
  factorizations of the shifted matrix with those pairs deflated, and
  every other eigenvalue bounded to an interval.  certify_window then
  proves from these alone which window the full scan would pick (the rule
  is in its docstring).  The gap is the same score, from Ritz values
  within a few ulps;
- "two-stage" from spectral.TWO_STAGE_MIN_N on, when the certified route
  is not tried or fails or declines (ARPACK's Krylov basis too large for
  n, ARPACK past its budget, a factorization that breaks down, or a window
  rule that does not certify): spectral.reduce, the dimension scan's
  reduction and eigenvalues, and the window's eigenvectors from the band
  matrix its first stage leaves, accepted only under a bound of 1e-10 on
  their projector's error (spectral.Banded.window_vectors);
- "tridiagonal" in its place below spectral.TWO_STAGE_MIN_N: the one-stage
  reduction by dsytrd, every eigenvalue, and the window's eigenvectors
  alone.  Its eigenvalues are the dimension scan's bit for bit.  When the
  two-stage certificate fails, dsytrd serves for the window's eigenvectors
  alone: heic() writes A/n back, reduces it by dsytrd, with the two-stage
  values in place of a second dsterf, and takes the eigenvectors of the
  window those values placed.

solver names where the window's eigenvectors came from.  The window is
picked once, on the values the dimension scan scores, so on the two
reduction routes, at every n, heic(adjacency, d) reports the dimension
scan's score of candidate d as its gap exactly, with the margin, top
eigenvalue and degenerate flag of the same values.

Every route, and the dimension scan, runs every BLAS and LAPACK call on
scipy's thread pool, so numpy's pool stays idle (see spectral.py).

The scan is scale free, so the edge-density parameter rho is never needed
for estimation; it only enters the simulation-side check event_e_check.

heic() and estimate_dimension validate their adjacency once, at the top,
with model.require_adjacency (square, finite, symmetric, 0/1 entries, no
self-loops), and then trust it through the solve, so both accept and
reject the same graphs with the same messages; they check their window
sizes (integers, against n) with _require_window.  heic() checks its
scalars rho and analytic_gap before that, so bad ones cost no solve.  A
uint8 or bool adjacency, which the samplers and the edge-list reader
produce, is checked where it lies, without a copy.  Each command then
divides it into its one n x n float64 array, the working copy A/n that the
solvers read and overwrite; heic() writes A/n back after a route that
overwrote it fails (a refused proof or a failed band certificate).  A/n
has the same bits whether the adjacency came as uint8, bool or float64, so
every output does too.
heic() reads whichever route it took through one interface (see
spectral.py): its sorted values, solver, slack and window_vectors.  One
window rule, _pick, places the window on every route and returns it as a
ClusterSelection: on a reduction heic() calls find_cluster, whose margin
is over the runner-up, and on the certified route certify_window, whose
margin is over every other window's bound.  The estimate is degenerate
when its gap is within the route's slack, so that it cannot be told from
0; a certified one never is, as the proof gives a gap above 2 slack.
heic() then keeps the window's eigenvectors and runs event_e_check, which
reads only the window.  estimate_dimension scores its reduction's values
as scan_spectrum scores a spectrum's, validating only the candidates
against them.

One reduction per graph when d is unknown.  The module remembers the last
reduced graph: its key, (n, the route spectral.reduce takes at n, a sha256
of the validated 0/1 pattern), and a read-only copy of its n sorted
eigenvalues, never an n x n array.  estimate_dimension computes the key
before it makes A/n; on a hit it scans a copy of the remembered values
with no working copy and no reduction, and on a miss it reduces and
remembers.  heic() consults the memory only on its reduction route, after
the certified route is not tried, declines or fails, so the route it takes
never depends on what ran before; on a hit spectral.reduce runs only its
first stage (dsytrd, or dsytrd_sy2sb), whose Q the window's eigenvectors
need, and skips dsb2st and dsterf, and after a miss heic() remembers.  So
estimate_dimension(adjacency) and then heic(adjacency, scan.chosen), or
the reverse, reduce the graph once, and every output has a cold call's
bits: the values are the same reduction's.  A uint8 graph and its float64
copy share a key, as they share A/n.  A reduction that raises remembers
nothing, and the one entry is replaced by one assignment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import spectral
from .errors import EigenSolverError, ValidationError, require_integer, require_real
from .model import require_adjacency
from .spectral import Spectrum, extreme_pairs

DEFAULT_D_MAX = 15


@dataclass(frozen=True)
class ClusterSelection:
    """A window of d consecutive sorted eigenvalue positions (never position 0).

    values holds the window's eigenvalues, largest first.  margin is gap
    minus the largest gap, or bound on a gap, of any other window.
    """

    d: int
    start: int
    gap: float
    margin: float
    values: np.ndarray = field(compare=False)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.start + self.d))

    @property
    def diameter(self) -> float:
        return float(self.values[0] - self.values[-1])


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

    solver names where the window's eigenvectors came from: "certified"
    (ARPACK's extreme pairs, proved by Cholesky factorizations),
    "two-stage" (the band matrix of LAPACK's two-stage reduction, under a
    projector error bound) or "tridiagonal" (dsytrd: below
    spectral.TWO_STAGE_MIN_N, and wherever the band certificate fails).
    The window itself, and gap, margin, top_eigenvalue and degenerate, come
    from the certified pairs or, on the reductions, from spectral.reduce's
    values, which the dimension scan scores.  margin is the chosen window's
    gap minus the largest gap of any other window: the selection margin
    over the runner-up on the reductions, and on the certified route the
    certificate margin, against the largest bound on another window's gap.
    degenerate means the gap is within the route's slack (the reductions'
    rounding slack), so it cannot be told from 0.  It is False on the
    certified route: the proof gives a gap above 2 slack plus every other
    window's bound, and each bound is at least that window's gap, >= 0.
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


# The last reduced graph, (key, values): key is _graph_key's, values a
# read-only copy of its n eigenvalues in LAPACK's ascending order, so that a
# hit hands out the same reversed view of a copy that reduce does.  One
# entry, replaced by one assignment, so a concurrent caller reads either the
# old entry or the new one, never a mix.
_last_reduction: Optional[tuple[tuple, np.ndarray]] = None

# Rows per block of _graph_key's hash: packing the whole matrix at once
# raised a command's peak RSS by 1.7 MB at n=3000, blocks of 256 rows by nothing.
_KEY_ROWS = 256


def _graph_key(adjacency: np.ndarray) -> tuple:
    """(n, reduce's route at n, sha256 of the 0/1 pattern) of a validated adjacency.

    The pattern's bits are hashed a row block at a time; a uint8 graph and
    its float64 copy give one key, as they give one A/n (1.5 and 6.4 ms at
    n=3000).
    """
    n = adjacency.shape[0]
    digest = hashlib.sha256()
    for i in range(0, n, _KEY_ROWS):
        digest.update(np.packbits(adjacency[i : i + _KEY_ROWS] != 0))
    return n, spectral._reduction_route(n), digest.digest()


def _remembered(key: tuple) -> Optional[np.ndarray]:
    """A copy of the values remembered for key, sorted decreasingly as reduce gives them; None on a miss."""
    entry = _last_reduction
    if entry is None or entry[0] != key:
        return None
    return entry[1].copy()[::-1]


def _remember(key: tuple, values: np.ndarray) -> None:
    global _last_reduction
    stored = values[::-1].copy()
    stored.flags.writeable = False
    _last_reduction = (key, stored)


def _require_window(n: int, d: int) -> int:
    d = require_integer(d, "cluster size", 1)
    if n < d + 2:
        raise ValidationError(f"need at least d + 2 = {d + 2} eigenvalues, got {n}")
    return d


def _window_min(steps: np.ndarray, d: int) -> np.ndarray:
    """Each window's smaller step; steps[j] is the step from sorted position j to j+1.

    Entry i-1 is window i's: the smaller of steps[i-1] and steps[i+d-1],
    the first alone for the window that ends at the last position.  A NaN
    step gives a NaN entry.
    """
    return np.minimum(steps[: steps.size + 1 - d], np.append(steps[d:], np.inf))


def _pick(values: np.ndarray, d: int, gaps: np.ndarray, bounds: np.ndarray) -> ClusterSelection:
    """The window of largest gap among values' windows of size d; margin is over every other window's bound.

    A NaN gap is unknown and never picked; ties take the smallest start.
    bounds, one per window (gaps itself when every gap is known), is
    overwritten.
    """
    best = int(np.nanargmax(gaps))
    gap = float(gaps[best])
    bounds[best] = -np.inf
    start = best + 1
    return ClusterSelection(int(d), start, gap, gap - float(bounds.max()), values[start : start + d])


def window_gaps(values, d: int) -> np.ndarray:
    """Separation of every window {i, ..., i+d-1}, i = 1 .. n-d, from the rest.

    values must be sorted decreasingly and 1 <= d <= n - 1.  Entry i-1 is
    the smaller of the steps |values[i] - values[i-1]| and
    |values[i+d] - values[i+d-1]|; the window ending at the last position
    has only the first.  Windows never contain sorted position 0 (the top
    eigenvalue tracks the mean connectivity, not the degree-1 harmonics).
    """
    return _window_min(np.abs(np.diff(values)), d)


def find_cluster(spec: Spectrum, d: int) -> ClusterSelection:
    """Window of d consecutive sorted eigenvalues with the largest separation.

    Ties return the smallest start index.  The achieved gap is the
    spectrum's size-d cluster score, and margin is over the runner-up.
    """
    d = _require_window(len(spec.values), d)
    gaps = window_gaps(spec.values, d)
    return _pick(spec.values, d, gaps, gaps)


def certify_window(values, lower: float, upper: float, d: int, slack: float) -> Optional[ClusterSelection]:
    """The window find_cluster would pick on a spectrum known only at its ends, or None.

    values holds the n sorted eigenvalues as far as they are known, each
    within slack, and NaN for each unknown one (ExtremePairs.values: the
    top, then the middle, then the bottom); every unknown eigenvalue lies
    in [lower, upper].  Returns find_cluster's window, with the certificate
    margin, when one window is proved best, else None.

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
    values = np.asarray(values, dtype=float)
    unknown = np.isnan(values)
    high = np.where(unknown, upper, values + slack)
    low = np.where(unknown, lower, values - slack)
    steps = values[:-1] - values[1:]  # NaN where a step touches the middle
    exact = _window_min(steps, d)
    if np.isnan(exact).all():
        return None
    bounds = np.where(np.isnan(steps), high[:-1] - low[1:], steps + 2.0 * slack)
    cluster = _pick(values, d, exact, _window_min(bounds, d))
    return cluster if cluster.margin > 2.0 * slack else None


def gram_estimate(spec: Spectrum, cluster: ClusterSelection) -> GramEstimate:
    """The estimate over the selected window's eigenvectors.

    Raises EigenSolverError where a Banded's certificate fails for the window.
    """
    if cluster.indices[-1] >= len(spec.values) or cluster.start < 1:
        raise ValidationError("cluster does not fit the spectrum")
    vectors = spec.window_vectors(cluster.start, cluster.start + cluster.d)
    if vectors is None:
        window = f"{cluster.start} .. {cluster.indices[-1]}"
        raise EigenSolverError(f"band certificate failed for the window at sorted positions {window}")
    return GramEstimate(vectors, cluster)


def _require_gap(gap_analytic: float) -> None:
    if not require_real(gap_analytic, "analytic gap") > 0:  # NaN fails too
        raise ValidationError(f"analytic gap must be positive for the cluster check, got {gap_analytic}")


def _require_rho(rho: float) -> None:
    if not 0.0 < require_real(rho, "rho") <= 1.0:  # NaN fails too
        raise ValidationError(f"rho must lie in (0, 1], got {rho}")


def event_e_check(
    spec: Spectrum, cluster: ClusterSelection, gap_analytic: float, rho: float
) -> EventEReport:
    """Simulation-side check that the selected cluster looks like the true one.

    Requires the analytic spectral gap of the generating link, so it is
    only available when the model is known: diameter < rho*gap/2 and
    separation >= rho*gap/2.  spec is not read: the check needs only the
    cluster.  It stays because callers pass the four arguments by
    position; heic() passes None for it.
    """
    _require_gap(gap_analytic)
    _require_rho(rho)
    threshold = rho * gap_analytic / 2.0
    return EventEReport(cluster.diameter < threshold and cluster.gap >= threshold, threshold)


# The certified route is tried, at every n, when the edge density is at
# least CERTIFIED_MIN_DENSITY.  Measured with threshold(0) graphs, d=3, on
# 2 cores, at rho = 1, 40 ln n/n and 8 ln n/n (capped at 1):
# - n=3000, densities 0.5, 0.053, 0.011: at 0.5 ARPACK converged in 71-80
#   products and heic() certified in 0.7-0.9 s, against 1.2-1.3 s for the
#   two-stage reduction route (1.4-1.7 s for dsytrd); at 0.053 it needed
#   224-254 products, past the budget of 120, so routing it would cost
#   about 0.2 s more, some 16% of the reduction route; at 0.011 it
#   converged after 316 products, but the window's gap of 0.002 did not
#   certify.
# - n=1200, densities 0.5, 0.118, 0.024: 71-88 products and certified;
#   157 products; 235 products and no certificate.
# - n=1000, densities 0.5, 0.14, 0.028: certified in 32-39 ms against
#   69-73 ms for the reduction; past the budget, 88-95 ms in all.
# - n=500, densities 0.5, 0.25, 0.05: certified in 9-10 and 10-11 ms
#   against 14-16 ms; past the budget, 22-23 ms against 16-17 ms.
# - n=200, densities 0.5 and 0.1: certified in 3-4 ms, as fast as the
#   reduction; no certificate after 116 products, 8 ms against 3 ms.
CERTIFIED_MIN_DENSITY = 0.25


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
    come together, and are checked before the adjacency.  The certified
    route is tried first, then spectral.reduce (see the module docstring);
    the window is picked once, and a failed band certificate recomputes
    only its eigenvectors, by dsytrd.  A gap within the route's slack
    (e.g. the empty graph, or K_n) marks the estimate as degenerate,
    signalled in the diagnostics rather than raised.
    """
    with_event_e = _require_event_e_scalars(rho, analytic_gap)
    adjacency, density = require_adjacency(adjacency)
    n = adjacency.shape[0]
    d = _require_window(n, d)
    work = _working_copy(adjacency)
    route = extreme_pairs(work, 2 * d + 5) if density >= CERTIFIED_MIN_DENSITY else None
    cluster = None
    if route is not None:
        cluster = certify_window(route.values, route.lower, route.upper, d, route.slack)
    if cluster is not None and not route.confirm(work):
        cluster = None
        _working_copy(adjacency, out=work)
    if cluster is None:
        key = _graph_key(adjacency)
        known = _remembered(key)
        route = spectral.reduce(work, known)
        if known is None:
            _remember(key, route.values)
        cluster = find_cluster(route, d)
    top_eigenvalue = float(route.values[0])
    # A certified gap exceeds 2 slack plus every other window's bound, each
    # at least that window's true gap >= 0, and n >= d + 2 leaves at least
    # one other window: so the certified route is never degenerate.
    degenerate = bool(cluster.gap <= route.slack)
    start, stop = cluster.start, cluster.start + d
    vectors = route.window_vectors(start, stop)
    if vectors is None:  # a Banded's certificate failed: dsytrd's vectors for the same window
        route = spectral.tridiagonalize(_working_copy(adjacency, out=work), route.values)
        vectors = route.window_vectors(start, stop)
    event_e = None
    if with_event_e:
        event_e = event_e_check(None, cluster, analytic_gap, rho)
    diagnostics = HeicDiagnostics(
        gap=cluster.gap,
        diameter=cluster.diameter,
        cluster_start=cluster.start,
        top_eigenvalue=top_eigenvalue,
        edge_density=density,
        degenerate=degenerate,
        solver=route.solver,
        margin=cluster.margin,
        event_e=event_e,
    )
    return GramEstimate(vectors, cluster), diagnostics


def _require_candidates(candidates, n: int) -> tuple[int, ...]:
    candidates = tuple(candidates)
    if not candidates:
        raise ValidationError("candidate set must not be empty")
    return tuple(_require_window(n, d) for d in candidates)


def scan_spectrum(spec: Spectrum, candidates) -> DimensionScan:
    """Score each candidate d on an already-computed sorted spectrum."""
    return _scan_values(spec.values, candidates)


def _scan_values(values: np.ndarray, candidates) -> DimensionScan:
    """scan_spectrum on a spectrum's sorted values alone."""
    candidates = _require_candidates(candidates, len(values))
    steps = np.abs(np.diff(values))
    scores = np.array([_window_min(steps, d).max() for d in candidates])
    best = int(np.argmax(scores))
    top = float(scores[best])
    runner_up = float(np.delete(scores, best).max(initial=0.0))
    margin = top / runner_up if runner_up > 0.0 else (np.inf if top > 0.0 else 1.0)
    return DimensionScan(candidates=candidates, scores=scores, chosen=candidates[best], margin=margin)


def estimate_dimension(adjacency, d_max: int = DEFAULT_D_MAX) -> DimensionScan:
    """Scan candidate dimensions 1 .. d_max on an adjacency matrix."""
    d_max = require_integer(d_max, "d_max", 1)
    adjacency, _ = require_adjacency(adjacency)
    n = adjacency.shape[0]
    if n < d_max + 2:
        raise ValidationError(f"dimension scan needs n >= d_max + 2 = {d_max + 2}, got n = {n}")
    key = _graph_key(adjacency)
    values = _remembered(key)
    if values is None:
        values = spectral.reduce(_working_copy(adjacency)).values
        _remember(key, values)
    return _scan_values(values, range(1, d_max + 1))
