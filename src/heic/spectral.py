"""Dense symmetric eigensolvers and the eigenvalue matching distance.

heic() needs every eigenvalue, to place its cluster, but only the d
eigenvectors of the window it picks.  window_eigh gives it both.  From
PARTIAL_SOLVE_MIN_N nodes on it reduces the matrix to tridiagonal form once
(tridiagonalize: LAPACK dsytrd, then dsterf for the whole spectrum) and
computes the window's eigenvectors alone (Tridiagonal.window_vectors).

That solve runs on scipy's LAPACK, which brings a second OpenBLAS thread
pool and 27 MB of RSS.  Each pool's idle threads spin for about 0.1 s after
a call, so where numpy and scipy calls alternate, as when a study samples a
graph and then solves it, the pools contend.  Below PARTIAL_SOLVE_MIN_N,
where that costs more than the partial solve saves, window_eigh is numpy's
full eigh.  descending_eigvalsh, for callers that need eigenvalues only,
returns the sorted values array and switches at the same size: from
PARTIAL_SOLVE_MIN_N nodes on it is the same in-place reduction, below it
numpy's eigvalsh, whose dsyevd runs dsytrd + dsterf too and gives
bit-identical values here.

A Spectrum (SortedSpectrum or Tridiagonal) is its values, sorted
decreasingly (the reversed view of LAPACK's ascending output), plus
window_vectors(start, stop), the eigenvectors of sorted positions
start .. stop-1.  Eigenvector signs (and bases within repeated eigenvalues)
are arbitrary; consumers may use V only up to an orthogonal transform, as
in the projector V V^T.

symmetric_eig, symmetric_eigvals and normalize_adjacency validate their
input.  The other solvers trust it: the caller has already checked that
the matrix is square, finite and symmetric.  tridiagonalize overwrites the
copy it is given, and so does descending_eigvalsh from
PARTIAL_SOLVE_MIN_N nodes on.  scipy is imported on first use (about 0.3 s),
not by ``import heic``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EigenSolverError
from .model import require_symmetric


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


def descending_eigh(arr: np.ndarray) -> SortedSpectrum:
    """Eigenvalues and eigenvectors of a validated symmetric matrix, sorted decreasingly."""
    values, vectors = _solve(np.linalg.eigh, arr)
    return SortedSpectrum(values=values[::-1], vectors=vectors[:, ::-1])


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


# On 2 cores, one heic() call right after sampling a threshold(0) graph took
# 0.19 s with eigh and 0.13-0.16 s partially at n=1000, but the numpy work
# that followed lost the difference; at n=1200 it took 0.31 s against 0.20 s.
PARTIAL_SOLVE_MIN_N = 1200


Spectrum = Union[SortedSpectrum, Tridiagonal]


def window_eigh(arr: np.ndarray) -> Spectrum:
    """Every eigenvalue of a validated symmetric matrix, sorted decreasingly.

    The result's window_vectors(start, stop) gives the eigenvectors of
    sorted positions start .. stop-1.  From PARTIAL_SOLVE_MIN_N rows on it
    computes only those; below, the full eigh has computed them all.
    """
    if arr.shape[0] >= PARTIAL_SOLVE_MIN_N:
        return tridiagonalize(arr)
    return descending_eigh(arr)


def descending_eigvalsh(arr: np.ndarray) -> np.ndarray:
    """Eigenvalues only of a validated symmetric matrix, sorted decreasingly.

    From PARTIAL_SOLVE_MIN_N rows on, arr must be a float64 copy owned by
    the caller: tridiagonalize overwrites it.
    """
    if arr.shape[0] >= PARTIAL_SOLVE_MIN_N:
        return tridiagonalize(arr).values
    return _solve(np.linalg.eigvalsh, arr)[::-1]


def _symmetrized(m) -> np.ndarray:
    arr = require_symmetric(m, "matrix", tol=1e-8)
    s = arr + arr.T
    s *= 0.5  # halving is exact: the bits of (arr + arr.T) / 2, without a second n x n array
    return s


def symmetric_eig(m) -> SortedSpectrum:
    """Full eigendecomposition of a dense symmetric matrix, sorted decreasingly."""
    return descending_eigh(_symmetrized(m))


def symmetric_eigvals(m) -> np.ndarray:
    """Eigenvalues of a dense symmetric matrix, sorted decreasingly; no eigenvectors."""
    return descending_eigvalsh(_symmetrized(m))


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
    return float(np.linalg.norm(pa - pb))
