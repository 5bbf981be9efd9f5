"""Latent dimension estimation by maximizing the cluster separation score.

For each candidate d the cluster search returns the best separation of any
d consecutive sorted eigenvalues; the candidate whose score is largest is
the dimension estimate.  One eigenvalue computation (no eigenvectors)
serves all candidates: spectral.descending_eigvalsh, a tridiagonal
reduction and dsterf.  From spectral.PARTIAL_SOLVE_MIN_N nodes on that is
the in-place reduction heic()'s partial solve makes, so heic(adjacency, d)
reports the score of candidate d as its gap.  Below, it is numpy's
eigvalsh, whose values match the reduction's bit for bit; heic() takes the
full eigh there, whose eigenvalues may differ in the last digit.

estimate_dimension validates its adjacency once, at the top (square,
finite, symmetric), together with the candidates; scan_spectrum validates
only the candidates against the spectrum it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimator import window_gaps
from .model import require_symmetric
from .spectral import SortedSpectrum, descending_eigvalsh

DEFAULT_D_MAX = 15


@dataclass(frozen=True)
class DimensionScan:
    candidates: tuple[int, ...]
    scores: np.ndarray
    chosen: int


def _require_candidates(candidates, n: int) -> tuple[int, ...]:
    candidates = tuple(int(d) for d in candidates)
    if not candidates:
        raise ValidationError("candidate set must not be empty")
    if any(d < 1 for d in candidates):
        raise ValidationError("candidate dimensions must be >= 1")
    if n < max(candidates) + 2:
        raise ValidationError(
            f"spectrum of size {n} too small for largest candidate {max(candidates)}"
        )
    return candidates


def _scan(values: np.ndarray, candidates: tuple[int, ...]) -> DimensionScan:
    scores = np.array([window_gaps(values, d).max() for d in candidates])
    # np.argmax returns the first maximum, so ties pick the smallest d when
    # candidates are increasing (the default 1..d_max grid).
    chosen = candidates[int(np.argmax(scores))]
    return DimensionScan(candidates=candidates, scores=scores, chosen=chosen)


def scan_spectrum(spec: SortedSpectrum, candidates) -> DimensionScan:
    """Score each candidate d on an already-computed sorted spectrum."""
    return _scan(spec.values, _require_candidates(candidates, spec.n))


def estimate_dimension(adjacency, d_max: int = DEFAULT_D_MAX) -> DimensionScan:
    """Scan candidate dimensions 1 .. d_max on an adjacency matrix."""
    if d_max < 1:
        raise ValidationError(f"d_max must be >= 1, got {d_max}")
    arr = require_symmetric(adjacency, "adjacency")
    n = arr.shape[0]
    candidates = _require_candidates(range(1, d_max + 1), n)
    return _scan(descending_eigvalsh(arr / n).values, candidates)
