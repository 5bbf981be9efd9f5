"""Independent brute-force oracles used to pin the fast implementations, and input strategies for them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
from hypothesis import strategies as st
from numpy.polynomial import legendre

from heic.errors import QuadratureError, ValidationError
from heic.harmonics import QUAD_MAX_PANELS, QUAD_NODES, QUAD_TOL, gegenbauer, sphere_weight_total
from heic.links import affine, threshold


def delta2_bruteforce(a, b) -> float:
    """Exhaustive minimum over all partial injective matchings.

    Entries of a may match distinct entries of b or a padding zero, and
    unmatched entries of b also match zeros, which is exactly the matching
    family of the zero-padded permutation definition.
    """
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    total_b = sum(x * x for x in b)
    best = math.inf
    for k in range(min(len(a), len(b)) + 1):
        for idx_a in combinations(range(len(a)), k):
            rest_a = sum(a[i] * a[i] for i in range(len(a)) if i not in idx_a)
            for idx_b in permutations(range(len(b)), k):
                cost = rest_a + total_b
                for i, j in zip(idx_a, idx_b):
                    cost += (a[i] - b[j]) ** 2 - b[j] * b[j]
                best = min(best, cost)
    return math.sqrt(max(best, 0.0))


def gram_numpy(x) -> np.ndarray:
    """x @ x.T by numpy's own BLAS (a symmetric rank-k update, then a mirror).

    The bits heic.model.row_gram must reproduce on scipy's BLAS.
    """
    return x @ x.T


def norm_numpy(a) -> float:
    """np.linalg.norm(a), the Frobenius norm by numpy's own BLAS dot.

    The bits heic.spectral._norm must reproduce on scipy's BLAS.
    """
    return float(np.linalg.norm(a))


def delta2_numpy(a, b) -> float:
    """The matching distance as heic.delta_2 defines it, with numpy's norm.

    Both sequences padded with zeros to length len(a) + len(b), each sorted
    decreasingly, then norm_numpy of their difference.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    size = a.size + b.size
    pa = np.sort(np.concatenate([a, np.zeros(size - a.size)]))[::-1]
    pb = np.sort(np.concatenate([b, np.zeros(size - b.size)]))[::-1]
    return norm_numpy(pa - pb)


@dataclass(frozen=True)
class FullSpectrum:
    """Every eigenpair, sorted decreasingly; column i of vectors pairs with values[i].

    Has the values and window_vectors that heic's spectrum consumers read.
    """

    values: np.ndarray
    vectors: np.ndarray

    def window_vectors(self, start: int, stop: int) -> np.ndarray:
        return self.vectors[:, start:stop].copy()


def diagonal_spectrum(values) -> FullSpectrum:
    """Spectrum of diag(values): coordinate-axis eigenvectors, sorted decreasingly."""
    vals = np.asarray(values, dtype=float).ravel()
    order = np.argsort(-vals, kind="stable")
    return FullSpectrum(values=vals[order], vectors=np.eye(vals.size)[:, order])


def eigh_spectrum(m) -> FullSpectrum:
    """numpy's full eigh of a symmetric matrix, sorted decreasingly: the full-eigenvector reference."""
    values, vectors = np.linalg.eigh(m)
    return FullSpectrum(values=values[::-1], vectors=vectors[:, ::-1])


def cluster_scan_bruteforce(values, d) -> tuple[int, float]:
    """Best consecutive window by direct min-distance to every outside value.

    values must be sorted decreasingly; windows start at position 1 (the
    top eigenvalue is never a member); ties keep the smallest start.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    best_start, best_gap = None, -math.inf
    for i in range(1, n - d + 1):
        inside = values[i : i + d]
        outside = np.concatenate([values[:i], values[i + d :]])
        gap = min(abs(x - y) for x in inside for y in outside)
        if gap > best_gap:
            best_start, best_gap = i, gap
    return best_start, best_gap


def eigh_projector(adjacency, d) -> tuple[int, np.ndarray]:
    """Cluster start and projector (1/d) V V^T from the full eigh of A/n.

    The reference for the partial solver: every eigenvector is computed and
    the window is found by the brute-force scan.
    """
    n = adjacency.shape[0]
    values, vectors = np.linalg.eigh(adjacency / n)
    start, _ = cluster_scan_bruteforce(values[::-1], d)
    v = vectors[:, ::-1][:, start : start + d]
    return start, v @ v.T / d


def require_symmetric_whole(m, name: str = "matrix", tol: float = 1e-10) -> np.ndarray:
    """The whole-matrix symmetry check, the reference for heic.model.require_symmetric.

    One n x n difference arr - arr.T and the max-abs scale np.abs(arr).max(),
    with the same messages.
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ValidationError(f"{name} must be non-empty and square, got shape {arr.shape}")
    largest = float(np.abs(arr).max())
    if not math.isfinite(largest):
        raise ValidationError(f"{name} has non-finite entries")
    if float(np.abs(arr - arr.T).max()) > tol * max(1.0, largest):
        raise ValidationError(f"{name} is not symmetric")
    return arr


def grid_values():
    """Hypothesis strategy: one value of a small dyadic grid that includes 0,
    so exact ties and zeros are common."""
    return st.sampled_from([-1.0, -0.5, -0.25, -0.125, 0.0, 0.125, 0.25, 0.5, 1.0])


def sorted_spectra(min_size: int = 3, max_size: int = 12):
    """Hypothesis strategy: decreasing value lists over the grid, so exact
    ties and repeated eigenvalues are common."""
    return st.lists(grid_values(), min_size=min_size, max_size=max_size).map(
        lambda xs: np.array(sorted(xs, reverse=True))
    )


def builtin_links() -> dict:
    """The two standing example links of the tests: threshold(0) and affine(0.5, 0.5)."""
    return {"threshold0": threshold(0.0), "half_affine": affine(0.5, 0.5)}


def legendre_level_integral(k: int, lo: float, hi: float) -> float:
    """Exact integral of the degree-k Legendre polynomial over [lo, hi]."""
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    antiderivative = legendre.legint(coeffs)
    return float(legendre.legval(hi, antiderivative) - legendre.legval(lo, antiderivative))


def threshold_eigenvalue_exact(k: int, tau: float = 0.0) -> float:
    """Level-k eigenvalue of the threshold link on S^2: (1/2) * int_{-1}^{tau} P_k."""
    return 0.5 * legendre_level_integral(k, -1.0, tau)


def _adaptive_integral(
    fn, segments, tol: float, max_panels: int, min_degree: int = 0
) -> tuple[float, float]:
    """Integrate fn over the given segments by bisection until |I2 - I1| <= tol.

    min_degree pre-partitions each segment finely enough that the panel rule
    resolves an oscillation of that polynomial degree; without it, a coarse
    panel and its bisection can alias an oscillatory integrand to the same
    wrong value and accept.  The tolerance is allocated proportionally to
    interval width; the panel budget is shared across all segments.  Raises
    QuadratureError carrying the best running estimate when the budget is
    exhausted.
    """
    x, w = legendre.leggauss(QUAD_NODES)
    total_width = sum(b - a for a, b in segments)

    def panel(a: float, b: float) -> float:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        return half * float(w @ fn(mid + half * x))

    panels = 0
    value = 0.0
    err = 0.0
    for a, b in segments:
        if b <= a:
            continue
        pieces = 1 + max(0, min_degree) // (2 * QUAD_NODES)
        edges = np.linspace(a, b, pieces + 1)
        stack = [(lo, hi, panel(lo, hi)) for lo, hi in zip(edges[:-1], edges[1:])]
        panels += pieces
        while stack:
            lo, hi, coarse = stack.pop()
            mid = 0.5 * (lo + hi)
            left, right = panel(lo, mid), panel(mid, hi)
            panels += 2
            fine = left + right
            local_err = abs(fine - coarse)
            local_tol = tol * (hi - lo) / total_width
            if local_err <= local_tol or (hi - lo) < 4.0 * np.finfo(float).eps:
                value += fine
                err += local_err
            elif panels >= max_panels:
                best = value + fine + sum(c for _, _, c in stack)
                raise QuadratureError(
                    f"quadrature did not converge within {max_panels} panels",
                    best_estimate=best,
                    error_estimate=err + local_err,
                )
            else:
                stack.append((lo, mid, left))
                stack.append((mid, hi, right))
    return value, err


def funck_hecke_eigenvalue(
    link, d: int, k: int, tol: float = QUAD_TOL, max_panels: int = QUAD_MAX_PANELS
) -> tuple[float, float]:
    """Level-k eigenvalue of the kernel operator and its quadrature error estimate.

    The per-level reference for heic.funck_hecke_table: its own adaptive
    bisection per level, in the angle variable, split at the link's
    discontinuities.
    """
    gamma = (d - 2) / 2.0
    at_one = gegenbauer(k, gamma, 1.0)
    power = d - 2

    def integrand(theta):
        t = np.cos(theta)
        return link(t) * (gegenbauer(k, gamma, t) / at_one) * np.sin(theta) ** power

    cuts = sorted(
        {math.acos(t) for t in link.discontinuities if -1.0 < t < 1.0} | {0.0, math.pi}
    )
    segments = list(zip(cuts[:-1], cuts[1:]))
    raw, raw_err = _adaptive_integral(integrand, segments, tol, max_panels, min_degree=k)
    norm = sphere_weight_total(d)
    return raw / norm, raw_err / norm


def window_certificate_bruteforce(top, bottom, lower, upper, n, d):
    """The full scan's (start, gap) when every completion of the middle gives the same, else None.

    The n - t - b middle values of a spectrum known only at its ends are
    drawn, as a sorted multiset, from a grid: lower, upper, their midpoint
    and every known value between them, clipped to the positions between
    top[-1] and bottom[0].  A sound certificate for the whole interval is
    sound on every grid completion, so it can only certify what this
    returns.
    """
    top = [float(x) for x in top]
    bottom = [float(x) for x in bottom]
    hi = min([upper] + top[-1:])
    lo = max([lower] + bottom[:1])
    grid = sorted({hi, lo, 0.5 * (hi + lo)} | {x for x in top + bottom if lo <= x <= hi}, reverse=True)
    answers = {
        cluster_scan_bruteforce(np.array(top + list(middle) + bottom), d)
        for middle in combinations_with_replacement(grid, n - len(top) - len(bottom))
    }
    return answers.pop() if len(answers) == 1 else None
