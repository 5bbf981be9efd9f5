"""Dense symmetric eigendecomposition and the eigenvalue matching distance.

The estimator downstream consumes the spectrum sorted in decreasing order:
the reversed view of LAPACK's ascending output, paired column by column
with the eigenvectors when those are computed.  Eigenvector signs (and
bases within repeated eigenvalues) are arbitrary; consumers must only use
projector products V V^T.

symmetric_eig, symmetric_eigvals and normalize_adjacency validate their
input.  descending_eigh and descending_eigvalsh trust it: the caller has
already checked that the matrix is square, finite and symmetric, and only
its lower triangle is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EigenSolverError, ValidationError
from .model import require_symmetric


@dataclass(frozen=True)
class SortedSpectrum:
    """Eigenvalues sorted decreasingly; column i of vectors pairs with values[i].

    vectors is None when only the eigenvalues were computed.
    """

    values: np.ndarray
    vectors: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @classmethod
    def from_values(cls, values) -> "SortedSpectrum":
        """Spectrum of diag(values): coordinate-axis eigenvectors, sorted."""
        vals = np.asarray(values, dtype=float).ravel()
        order = np.argsort(-vals, kind="stable")
        return cls(values=vals[order], vectors=np.eye(vals.size)[:, order])


def _solve(solver, arr):
    try:
        return solver(arr)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigendecomposition failed to converge: {exc}") from exc


def descending_eigh(arr: np.ndarray) -> SortedSpectrum:
    """Eigenvalues and eigenvectors of a validated symmetric matrix, sorted decreasingly."""
    values, vectors = _solve(np.linalg.eigh, arr)
    return SortedSpectrum(values=values[::-1], vectors=vectors[:, ::-1])


def descending_eigvalsh(arr: np.ndarray) -> SortedSpectrum:
    """Eigenvalues only of a validated symmetric matrix, sorted decreasingly."""
    return SortedSpectrum(values=_solve(np.linalg.eigvalsh, arr)[::-1])


def _symmetrized(m) -> np.ndarray:
    arr = require_symmetric(m, "matrix", tol=1e-8)
    return (arr + arr.T) / 2.0


def symmetric_eig(m) -> SortedSpectrum:
    """Full eigendecomposition of a dense symmetric matrix, sorted decreasingly."""
    return descending_eigh(_symmetrized(m))


def symmetric_eigvals(m) -> SortedSpectrum:
    """Eigenvalues of a dense symmetric matrix, sorted decreasingly; no eigenvectors."""
    return descending_eigvalsh(_symmetrized(m))


def normalize_adjacency(adj) -> np.ndarray:
    """Divide every entry by the node count n."""
    arr = require_symmetric(adj, "adjacency")
    n = arr.shape[0]
    if n < 1:
        raise ValidationError("matrix must have at least one row")
    return arr / n


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
