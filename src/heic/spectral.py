"""Symmetric eigensolvers: two routes to a window, and the matching distance.

heic() needs the eigenvalues around its cluster, to place it, but only the
d eigenvectors of the window it picks.  There are two routes:

- tridiagonal: one in-place reduction to tridiagonal form (tridiagonalize:
  LAPACK dsytrd, then dsterf for the whole spectrum) and the window's
  eigenvectors alone (Tridiagonal.window_vectors).  Callers that need
  eigenvalues only take its values.
- certified: a few eigenpairs from each end of the spectrum (extreme_pairs,
  ARPACK after Lehoucq, Sorensen and Yang, 1998), and a proof that they are
  the extremes (ExtremePairs.confirm).  It gives no middle of the spectrum,
  only bounds on it, so the caller must show that those suffice; see
  estimator.certify_window.  estimator.heic() routes here for dense graphs
  and falls back to the reduction whenever a step of the proof fails.

The proof behind ExtremePairs.  Let A be symmetric with eigenvalues
l_0 >= ... >= l_{n-1}, V the n x k Ritz vectors with values th and
R = A V - V diag(th).  If V has orthonormal columns, there are k distinct
eigenvalues each within ||R||_2 of its Ritz value (Kahan's theorem; Parlett,
The Symmetric Eigenvalue Problem, 1998, ch. 11); V's departure from
orthonormality, F = V^T V - I, widens that to the slack eps of
_ritz_slack.  Take t top Ritz pairs, th_0 >= ... >= th_{t-1}, and a shift
s_hi with th_{t-1} - eps > s_hi + eta.  Deflate them:
B = s_hi I - A + U U^T with U = V_t diag(sqrt(2 (th_i - s_hi))), which for
exact pairs is th_i - s_hi on each v_i and s_hi - l_j on the other
eigenvectors.  A Cholesky factorization of B (LAPACK dpotrf) that runs to
completion proves B > -eta I, where eta bounds the rounding of forming and
factoring B (see _factor_slack).  Then A - U U^T < (s_hi + eta) I, and as
U U^T is positive semidefinite of rank t, l_{i+t}(A) <= l_i(A - U U^T)
(Weyl), so A has at most t eigenvalues above upper = s_hi + eta, whatever V
is.  The t Ritz partners, all above upper, are they: l_0 .. l_{t-1}, each
within eps of th_0 .. th_{t-1}, and every other eigenvalue is at most upper.
The mirror image, A - s_lo I + U U^T with U = V_b diag(sqrt(2 (s_lo - th_i)))
over b bottom pairs, gives the b smallest, and every other eigenvalue at
least lower = s_lo - eta.  Each shift sits at the midpoint of the innermost
step among its end's Ritz values (the one nearest the middle) that is wider
than 2 (eps + eta).

extreme_pairs runs on the working copy as it is and never writes it.
confirm() forms B in the copy and factorizes it in place, twice, and takes
a callable that writes the matrix back in between; when the proof fails it
writes it back once more, so that the caller can fall back to the
reduction on it.

One thread pool.  numpy and scipy each ship an OpenBLAS with its own pool
of worker threads, and an idle worker spins for about 0.1 s after a call
before it sleeps.  When calls on the two pools alternate, as when a study
samples a graph and then solves it, the spinning workers of one pool take a
core from the other.  So every threaded BLAS or LAPACK call on a graph's
path runs on scipy's pool: the solvers, the ARPACK products (dsymv, about
twice as fast as numpy's product at n=3000 on 2 cores), the products and
norms of _ritz_slack and delta_2 (scipy's dsyrk and ddot, with numpy's
bits), and the sampler's products in model.py.  numpy's BLAS keeps only
products too small to be threaded, such as the MSE study's d x d ones, and
what runs once per command: harmonics.py's quadrature and
GramEstimate.matrix.  scipy is imported on first use (about 0.3 s and
27 MB of RSS, and 0.5 s and 3.7 MB more for scipy.sparse.linalg), not by
``import heic`` or analytic_spectrum.

A Spectrum (SortedSpectrum or Tridiagonal) is its values, sorted
decreasingly (the reversed view of LAPACK's ascending output), plus
window_vectors(start, stop), the eigenvectors of sorted positions
start .. stop-1.  ExtremePairs has window_vectors for the positions it
knows, but no values array.  Each route names itself in its ``solver``.
SortedSpectrum, numpy's full eigh, is no route of heic(): it is the
decomposition symmetric_eig returns.  Eigenvector signs (and bases within
repeated eigenvalues) are arbitrary; consumers may use V only up to an
orthogonal transform, as in the projector V V^T.

symmetric_eig, symmetric_eigvals and normalize_adjacency validate their
input.  The other solvers trust it: the caller has already checked that
the matrix is square, finite and symmetric.  tridiagonalize overwrites the
copy it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from .errors import EigenSolverError
from .model import require_symmetric, row_gram


@dataclass(frozen=True)
class SortedSpectrum:
    """Eigenvalues sorted decreasingly; column i of vectors pairs with values[i]."""

    values: np.ndarray
    vectors: np.ndarray

    def window_vectors(self, start: int, stop: int) -> np.ndarray:
        """A copy of the eigenvectors for sorted positions start .. stop-1."""
        return self.vectors[:, start:stop].copy()


def _solve(solver, *args, **kwargs):
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigendecomposition failed to converge: {exc}") from exc


@dataclass(frozen=True)
class Tridiagonal:
    """A = Q T Q^T from one Householder reduction (LAPACK dsytrd, lower triangle).

    values holds every eigenvalue of T (LAPACK dsterf), sorted decreasingly.
    reflectors is the reduced matrix in Fortran order.  Below its first
    subdiagonal, column i holds the Householder vector v_i of
    Q = H_0 H_1 ... H_{n-2}, H_i = I - tau_i v_i v_i^T; entry i+1 of v_i is
    an implicit 1 and entries 0 .. i are 0.  Row 0 is zero past the diagonal.
    """

    values: np.ndarray
    diagonal: np.ndarray
    offdiagonal: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    solver: ClassVar[str] = "tridiagonal"

    def window_vectors(self, start: int, stop: int) -> np.ndarray:
        """Unit eigenvectors for sorted positions start .. stop-1, one per column.

        Only these eigenvectors of T are computed (LAPACK dstebz + dstein),
        then carried back to A through the n-1 reflectors (LAPACK dormqr).
        """
        from scipy.linalg import eigh_tridiagonal, lapack

        n = self.values.size
        _, y = _solve(
            eigh_tridiagonal,
            self.diagonal,
            self.offdiagonal,
            select="i",
            select_range=(n - stop, n - 1 - start),
        )
        y = y[:, ::-1]
        # Q acts on rows 1 .. n-1 through the reflectors in the block
        # reflectors[1:, :n-1] (as LAPACK dormtr does).  That block is not
        # contiguous, so dormqr reads the contiguous n x (n-1) window one
        # element later, whose extra last row is row 0 past the diagonal:
        # zero, so it leaves c's zero last row, and the result, alone.
        block = self.reflectors.ravel(order="F")[1 : n * n - n + 1].reshape((n, n - 1), order="F")
        c = np.zeros((n, stop - start), order="F")
        c[: n - 1] = y[1:]
        lwork = lapack.dormqr("L", "N", block, self.tau, c, -1)[1][0]
        c, _, _ = lapack.dormqr("L", "N", block, self.tau, c, int(lwork), overwrite_c=1)
        return np.vstack([y[:1], c[: n - 1]])


def tridiagonalize(arr: np.ndarray) -> Tridiagonal:
    """Reduce a validated symmetric matrix in place and compute all its eigenvalues.

    arr must be a float64 copy owned by the caller.  LAPACK reads the upper
    triangle of a C-order arr through its Fortran view arr.T and overwrites
    it in place.  The lwork query lets dsytrd run blocked: 1.45 s against
    2.73 s with its default lwork=n at n=3000 on 2 cores.
    """
    from scipy.linalg import eigvalsh_tridiagonal, lapack

    lwork, _ = lapack.dsytrd_lwork(arr.shape[0], lower=1)
    reflectors, diagonal, offdiagonal, tau, _ = lapack.dsytrd(
        arr.T, lower=1, lwork=int(lwork), overwrite_a=1
    )
    reflectors[0, 1:] = 0.0  # the untouched upper triangle; window_vectors needs it zero
    values = _solve(eigvalsh_tridiagonal, diagonal, offdiagonal, lapack_driver="sterf")
    return Tridiagonal(values[::-1], diagonal, offdiagonal, reflectors, tau)


Spectrum = Union[SortedSpectrum, Tridiagonal]


# ARPACK's Krylov basis for k Ritz pairs.
def _arpack_ncv(k: int) -> int:
    return 2 * k + 7


# ARPACK stops when each residual is at most ARPACK_TOL times its Ritz value.
# That leaves residuals near 1e-12 on A/n, where the gap and the projector
# need about 1e-9: _ritz_slack bounds each Ritz value's error by the
# residual, and its true error is near the residual squared over the gap.
# Full precision (tol=0) took 91-109 products at n=1200-3000, 1e-10 took
# 71-80.
ARPACK_TOL = 1e-10


# The matrix-vector products extreme_pairs allows ARPACK, which bound what a
# graph that fails costs before the fallback.  On 2 cores at n=3000, d=3
# (k=11), a product takes about 1.6 ms and the reduction about 800 of them.
# Dense threshold(0) graphs converged in 71-89 products (n = 1200 to 3000)
# and certified; affine(0.5, 0.5) needed 288 at n=3000, because its window's
# lower neighbour is the edge of the bulk.  The reduction's cost grows like
# n^3 against n^2 for a product, so n/25 products keep a failure near 15% of
# it at any large n.  Below n=3000 the floor of 120 products rules.  At
# n = 200, 500 and 1000, dense threshold(0) graphs certified in 53, 62-106
# and 71 products.  A graph that did not certify (affine(0.5, 0.5) at
# rho=1, or a sparse threshold(0) one; 105-120 products) took 6-8, 22-23
# and 88-96 ms with its fallback, against 3, 15-17 and 69-79 ms for the
# reduction alone.
def _matvec_budget(n: int) -> int:
    return max(120, n // 25)


class _OverBudget(Exception):
    pass


@dataclass(frozen=True)
class ExtremePairs:
    """Ritz pairs from both ends of a symmetric matrix, and what they claim.

    top holds t Ritz values, decreasing, and bottom b, decreasing too, so
    that top, the unknown middle and bottom read as the sorted spectrum of
    n values.  The claim: A has exactly t eigenvalues above upper and b
    below lower, these are within slack of top and bottom, and so every
    other eigenvalue lies in [lower, upper].  confirm() proves it (see the
    module docstring).  top_vectors and bottom_vectors hold the Ritz vectors,
    one column per value.
    """

    top: np.ndarray
    bottom: np.ndarray
    top_vectors: np.ndarray
    bottom_vectors: np.ndarray
    upper: float
    lower: float
    slack: float
    shifts: tuple[float, float]
    solver: ClassVar[str] = "certified"

    @property
    def n(self) -> int:
        return self.top_vectors.shape[0]

    def window(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Ritz values and vectors (views) of sorted positions start .. stop-1, all at one end."""
        if stop <= self.top.size:
            return self.top[start:stop], self.top_vectors[:, start:stop]
        first = self.n - self.bottom.size
        if start >= first:
            rows = slice(start - first, stop - first)
            return self.bottom[rows], self.bottom_vectors[:, rows]
        raise ValueError(f"positions {start} .. {stop - 1} are not all at one known end")

    def window_vectors(self, start: int, stop: int) -> np.ndarray:
        """A copy of the Ritz vectors for sorted positions start .. stop-1."""
        return self.window(start, stop)[1].copy()

    def confirm(self, work: np.ndarray, rebuild: Callable[[], object]) -> bool:
        """Prove the claim by two Cholesky factorizations; work holds A on entry and is overwritten.

        The first proves the top end, the second the bottom end (see the
        module docstring).  rebuild() writes A back into work.  It runs
        between the two, and once more when the proof fails, so that work
        then holds A again.
        """
        s_hi, s_lo = self.shifts
        proved = _definite(work, s_hi, -1.0, self.top, self.top_vectors)
        if proved:
            rebuild()
            proved = _definite(work, s_lo, 1.0, self.bottom, self.bottom_vectors)
        if not proved:
            rebuild()
        return proved


def extreme_pairs(work: np.ndarray, k: int) -> Optional[ExtremePairs]:
    """k Ritz pairs of a validated symmetric matrix, half from each end, and their claim.

    ARPACK (scipy eigsh, which="BE": one more from the top when k is odd),
    to ARPACK_TOL from a fixed start vector, so the result is
    deterministic.  None when the Krylov basis would hold more than a
    quarter of n vectors (with the Ritz vectors ARPACK extracts, half the
    working copy's memory), when ARPACK fails or exceeds its budget of
    products (_matvec_budget), or when either end has no step among its Ritz
    values wide enough for a shift.  work is only read.
    """
    from scipy.linalg import blas
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    n = work.shape[0]
    ncv = _arpack_ncv(k)
    if 4 * ncv > n:
        return None
    budget = _matvec_budget(n)

    def matvec(x):
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise _OverBudget
        return blas.dsymv(1.0, work.T, x, lower=1)

    operator = LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        values, vectors = eigsh(
            operator, k=k, which="BE", v0=v0, ncv=ncv, tol=ARPACK_TOL, rng=np.random.default_rng(0)
        )
    except (ArpackError, _OverBudget):
        return None
    order = np.argsort(values)[::-1]
    values, vectors = values[order], np.asfortranarray(vectors[:, order])
    eps = _ritz_slack(work, values, vectors)
    if not eps < np.inf:
        return None
    eta = _factor_slack(work, float(np.abs(values).max()) + eps, k)
    from_top = k - k // 2
    t = _step_below(values[:from_top], 2.0 * (eps + eta))
    b = _step_below(-values[from_top:][::-1], 2.0 * (eps + eta))
    if t is None or b is None:
        return None
    s_hi = 0.5 * (values[t - 1] + values[t])
    s_lo = 0.5 * (values[k - b] + values[k - b - 1])
    return ExtremePairs(
        top=values[:t],
        bottom=values[k - b :],
        top_vectors=vectors[:, :t],
        bottom_vectors=vectors[:, k - b :],
        upper=s_hi + eta,
        lower=s_lo - eta,
        slack=eps,
        shifts=(s_hi, s_lo),
    )


def _step_below(values: np.ndarray, width: float) -> Optional[int]:
    """The largest j >= 1 with values[j-1] - values[j] > width (values decreasing), else None."""
    wide = np.flatnonzero(values[:-1] - values[1:] > width)
    return int(wide[-1]) + 1 if wide.size else None


def _ritz_slack(work: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> float:
    """A bound on the distance of each Ritz value to its own eigenvalue of work.

    With R = A V - V diag(th) and F = V^T V - I, write V = Q S, Q orthonormal
    and S = (I + F)^(1/2).  Then A Q - Q diag(th) = R S^-1 + V (diag(th) S^-1
    - S^-1 diag(th)), of 2-norm at most (||R|| + 2 max|th| ||F||) sqrt(1 +
    ||F||) / (1 - ||F||), which Kahan's theorem takes for Q.  Frobenius norms
    bound the 2-norms.  Infinite when ||F|| >= 1/2.
    """
    from scipy.linalg import blas

    residual = blas.dsymm(1.0, work.T, vectors, lower=1) - vectors * values
    drift = row_gram(vectors.T) - np.eye(values.size)
    f = _norm(drift)
    if not f < 0.5:
        return np.inf
    r = _norm(residual)
    return (r + 2.0 * float(np.abs(values).max()) * f) * np.sqrt(1.0 + f) / (1.0 - f)


def _factor_slack(work: np.ndarray, norm: float, k: int) -> float:
    """A bound eta on the rounding of _definite at a shift s, when |s| and every |th_i| <= norm.

    With unit roundoff u, gamma_m = m u / (1 - m u) and
    g = gamma_{n+1} / (1 - gamma_{n+1}): a dpotrf that runs to completion on
    the stored B~ gives R^T R = B~ + E, |E| <= gamma_{n+1} |R^T| |R|, in any
    order of evaluation (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 10.1; Rump, BIT 46, 2006), so
    ||E||_2 <= g tr(B~).  Forming B~ from the exact C + U U^T, C =
    sign (A - s I) and U of t <= k columns, errs by F with
    |F| <= gamma_{t+2} (|U| |U|^T + |C|);
    with |C| <= |B~| + |U| |U|^T + |F| and |B~| <= (1 + gamma_{n+1}) |R^T| |R|,
    ||F||_2 <= g (2 ||U||_F^2 + (1 + 2 g) tr(B~)).  The exact matrix,
    R^T R - E - F, is then above -eta I for eta = 2 g ((1 + g) tr(B~) + ||U||_F^2).
    A priori tr(B~) <= (1 + g) (n (max|a_ii| + norm) + ||U||_F^2), and
    ||U||_F^2 <= 6 k norm (1 + 6 u), as |th_i - s| <= 2 norm and
    ||v_i||^2 < 3/2 (_ritz_slack admits ||V^T V - I|| < 1/2).  2.01 covers
    2 (1 + g)^2 and eta's own rounding.  Only the diagonal of work is read.
    """
    n = work.shape[0]
    mu = (n + 1) * np.finfo(float).eps / 2.0
    g = mu / (1.0 - 2.0 * mu)  # gamma_{n+1} / (1 - gamma_{n+1})
    diagonal = float(np.abs(np.diagonal(work)).max())
    return 2.01 * g * (n * (diagonal + norm) + 13.0 * k * norm)


def _definite(work: np.ndarray, shift: float, sign: float, values, vectors) -> bool:
    """Whether dpotrf factors sign (A - shift I) + U U^T, U = V diag(sqrt(2 sign (shift - th))).

    work holds A on entry.  The matrix is formed and factorized in place:
    the diagonal shift, one dsyrk into the lower triangle of LAPACK's
    Fortran view work.T, then dpotrf on that triangle.
    """
    from scipy.linalg import blas, lapack

    n = work.shape[0]
    work.flat[:: n + 1] -= shift
    u = vectors * np.sqrt(2.0 * sign * (shift - values))
    blas.dsyrk(1.0, u, beta=sign, c=work.T, lower=1, overwrite_c=1)
    return lapack.dpotrf(work.T, lower=1, clean=0, overwrite_a=1)[1] == 0


def _symmetrized(m) -> np.ndarray:
    arr = require_symmetric(m, "matrix", tol=1e-8)
    s = arr + arr.T
    s *= 0.5  # halving is exact: the bits of (arr + arr.T) / 2, without a second n x n array
    return s


def symmetric_eig(m) -> SortedSpectrum:
    """Full eigendecomposition of a dense symmetric matrix, sorted decreasingly (numpy's eigh)."""
    values, vectors = _solve(np.linalg.eigh, _symmetrized(m))
    return SortedSpectrum(values=values[::-1], vectors=vectors[:, ::-1])


def symmetric_eigvals(m) -> np.ndarray:
    """Eigenvalues of a dense symmetric matrix, sorted decreasingly; no eigenvectors."""
    return tridiagonalize(_symmetrized(m)).values


def normalize_adjacency(adj) -> np.ndarray:
    """Divide every entry by the node count n."""
    arr = require_symmetric(adj, "adjacency")
    return arr / arr.shape[0]


def delta_2(a, b) -> float:
    """Minimal L2 matching distance between two eigenvalue sequences.

    Both sequences are padded with zeros (the spectra at play accumulate at
    zero) to a common length long enough that every entry may match a zero;
    sorting both padded sequences decreasingly then attains the minimum over
    all index permutations.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    size = a.size + b.size
    if size == 0:
        return 0.0
    pa = np.zeros(size)
    pa[: a.size] = a
    pb = np.zeros(size)
    pb[: b.size] = b
    pa[::-1].sort()
    pb[::-1].sort()
    return _norm(pa - pb)


def _norm(a: np.ndarray) -> float:
    """The Frobenius norm, sqrt(dot(a, a)) over a's memory order, as np.linalg.norm(a) computes it."""
    from scipy.linalg import blas

    flat = a.ravel(order="K")
    return math.sqrt(blas.ddot(flat, flat))
