"""Generative model: latent points on the sphere and Bernoulli graphs.

The sampling pipeline has two seeded stages.  First n latent points are
drawn uniformly on the unit sphere S^{d-1}; they fix the population Gram
matrix G = (1/n) <X_i, X_j> and the probability matrix
Theta_ij = rho * f(<X_i, X_j>).  Second, conditional on Theta, the observed
adjacency matrix has independent Bernoulli(Theta_ij) entries above the
diagonal.  Diagonals of Theta and the adjacency are fixed to 0 (simple
graph, no self-loops).

All matrices here are plain dense numpy arrays, kept exactly symmetric by
construction.  Operations are pure: identical inputs and seed reproduce the
output bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .links import RANGE_SLACK, LinkFunction

UNIT_NORM_TOL = 1e-12


@dataclass(frozen=True)
class LatentSample:
    """n >= 1 latent positions on S^{d-1}, d >= 2, as the unit rows of an (n, d) matrix.

    points is the only field: n and d are read off its shape.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValidationError("latent points must form an (n, d) matrix")
        n, d = pts.shape
        if n < 1 or d < 2:
            raise ValidationError(f"invalid latent sample shape ({n}, {d})")
        norms = np.linalg.norm(pts, axis=1)
        if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):  # NaN fails too
            raise ValidationError("latent rows must be unit vectors within 1e-12")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class GraphModel:
    """A link function plus the global edge-density scale rho in (0, 1].

    The relatively sparse regime rho = Omega(log n / n) is a guideline for
    meaningful estimation, not an enforced bound.
    """

    link: LinkFunction
    sparsity: float
    n: int

    def __post_init__(self):
        if not (0.0 < self.sparsity <= 1.0):
            raise ValidationError(f"sparsity must lie in (0, 1], got {self.sparsity}")
        if self.n < 1:
            raise ValidationError("node count must be >= 1")


# require_symmetric compares arr with arr.T in square tiles of this side,
# so its difference temporary (512 kB) stays in cache, where a whole-matrix
# difference takes two n x n arrays.  At n=3000 on 2 cores the check took
# 0.045 s tiled against 0.21-0.26 s whole; tiles of 64 to 512 were within
# 0.01 s of each other.
SYMMETRY_TILE = 256


def require_symmetric(m, name: str = "matrix", tol: float = 1e-10) -> np.ndarray:
    """Validate a dense non-empty square, finite, symmetric matrix and return it as float64.

    max|a_ij - a_ji| must not exceed tol * max(1, max|a_ij|).  Past the
    float64 conversion no n x n temporary is allocated: the check runs over
    the tiles on and above the diagonal, which hold every pair {a_ij, a_ji},
    and rejects at the first tile over the bound.
    """
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ValidationError(f"{name} must be non-empty and square, got shape {arr.shape}")
    # The max-abs scale is NaN or inf exactly when some entry is, so it
    # doubles as the finiteness check.  A NaN makes both extremes NaN, and
    # the builtin max then returns NaN too.
    largest = max(float(arr.max()), -float(arr.min()))
    if not math.isfinite(largest):
        raise ValidationError(f"{name} has non-finite entries")
    bound = tol * max(1.0, largest)
    n, tile = arr.shape[0], SYMMETRY_TILE
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            diff = arr[i : i + tile, j : j + tile] - arr[j : j + tile, i : i + tile].T
            if float(np.abs(diff, out=diff).max()) > bound:
                raise ValidationError(f"{name} is not symmetric")
    return arr


def require_adjacency(adj) -> tuple[np.ndarray, float]:
    """Validate a simple-graph adjacency on n >= 2 nodes; return it and its edge density.

    On top of require_symmetric the entries must be 0 or 1, which makes the
    matrix exactly symmetric, and the diagonal must be 0 (no self-loops), so
    the edge count is the number of ones halved.
    """
    arr = require_symmetric(adj, "adjacency")
    n = arr.shape[0]
    if n < 2:
        raise ValidationError("adjacency needs at least 2 nodes")
    ones = np.count_nonzero(arr == 1.0)
    if ones + np.count_nonzero(arr == 0.0) != arr.size:
        raise ValidationError("adjacency entries must be 0 or 1")
    if np.any(np.diagonal(arr)):
        raise ValidationError("adjacency has a nonzero diagonal (self-loop)")
    return arr, (ones // 2) / (n * (n - 1) / 2.0)


def sample_uniform_sphere(n: int, d: int, seed: int) -> LatentSample:
    """Draw n points uniformly on S^{d-1}: normalized independent Gaussians."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if d < 2:
        raise ValidationError(f"need ambient dimension d >= 2, got {d}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d))
    norms = np.linalg.norm(pts, axis=1)
    # A exactly-zero Gaussian row has probability zero but would poison the
    # normalization; redraw such rows from the same stream.
    while np.any(norms == 0.0):
        bad = norms == 0.0
        pts[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(pts, axis=1)
    pts /= norms[:, None]
    return LatentSample(pts)


def inner_products(sample: LatentSample) -> np.ndarray:
    """Pairwise inner products <X_i, X_j>, clipped to [-1, 1].

    Exactly symmetric: numpy computes x @ x.T as a symmetric rank-k update (BLAS syrk).
    """
    return np.clip(sample.points @ sample.points.T, -1.0, 1.0)


def gram_population(sample: LatentSample) -> np.ndarray:
    """Population Gram matrix G with G_ij = <X_i, X_j> / n."""
    return inner_products(sample) / sample.n


def probability_matrix(sample: LatentSample, model: GraphModel) -> np.ndarray:
    """Theta with Theta_ij = rho * f(<X_i, X_j>) off-diagonal, 0 on the diagonal."""
    if model.n != sample.n:
        raise ValidationError(f"model.n={model.n} does not match sample n={sample.n}")
    theta = model.sparsity * model.link(inner_products(sample))
    np.fill_diagonal(theta, 0.0)
    return theta


def sample_adjacency(theta, seed: int) -> np.ndarray:
    """Bernoulli adjacency: independent upper-triangle coin flips with means Theta.

    Symmetric 0/1 float matrix with zero diagonal; deterministic per seed.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    theta = require_symmetric(theta, "probability matrix")
    if theta.min() < -RANGE_SLACK or theta.max() > 1.0 + RANGE_SLACK:
        raise ValidationError("probability matrix entries must lie in [0, 1]")
    n = theta.shape[0]
    rng = np.random.default_rng(seed)
    # The uniforms lie in [0, 1), so comparing them with theta flips the same
    # coins as comparing them with clip(theta, 0, 1) would, within the slack.
    upper = np.triu(rng.random((n, n)) < theta, k=1).astype(float)
    return upper + upper.T


def edge_density(adj) -> float:
    """Fraction of the n(n-1)/2 possible edges that are present."""
    return require_adjacency(adj)[1]
