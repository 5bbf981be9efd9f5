"""Generative model: latent points on the sphere and Bernoulli graphs.

The sampling pipeline has two seeded stages.  First n latent points are
drawn uniformly on the unit sphere S^{d-1}; they fix the population Gram
matrix G = (1/n) <X_i, X_j> and the probability matrix
Theta_ij = rho * f(<X_i, X_j>).  Second, conditional on Theta, the observed
adjacency matrix has independent Bernoulli(Theta_ij) entries above the
diagonal.  Diagonals of Theta and the adjacency are fixed to 0 (simple
graph, no self-loops).

Theta and the Gram matrix are dense float64 arrays; an adjacency is a dense
uint8 0/1 array, one byte per entry.  Both are kept exactly symmetric by
construction.  The samplers flip the coins a block of rows at a time, so
neither the n x n uniforms nor, in sample_model_adjacency, Theta itself
ever exists whole.  Operations are pure: identical inputs and seed
reproduce the output bit for bit.
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
# so its difference temporary (288 kB) stays in cache, where a whole-matrix
# difference takes two n x n arrays.  At n=3000 on 2 cores the check took
# 0.045 s tiled against 0.21-0.26 s whole; tiles of 64 to 512 were within
# 0.01 s of each other.  With 192, the difference and numpy's 128 kB of
# iteration buffers stay under 5% of a float64 n=1200 adjacency (256: 5.7%).
SYMMETRY_TILE = 192


def _require_square(arr: np.ndarray, name: str) -> None:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ValidationError(f"{name} must be non-empty and square, got shape {arr.shape}")


def _mirrored_tiles(arr: np.ndarray):
    """(tile, mirror tile transposed, weight) for each square tile on and above the diagonal.

    Together they hold every pair {a_ij, a_ji} of the square arr exactly
    once.  weight is how many entries of a symmetric arr each entry of the
    tile stands for: 1 on the diagonal, where the mirror is the tile itself
    transposed, and 2 off it.
    """
    n, tile = arr.shape[0], SYMMETRY_TILE
    for i in range(0, n, tile):
        for j in range(i, n, tile):
            yield arr[i : i + tile, j : j + tile], arr[j : j + tile, i : i + tile].T, 1 + (j > i)


def _checked_tiles(arr: np.ndarray, name: str, tol: float):
    """(tile, weight, whether it equals its mirror) for _mirrored_tiles of a square float64 arr.

    Finite entries, and max|a_ij - a_ji| at most tol * max(1, max|a_ij|).
    One read of arr takes the difference of each tile and its mirror, and
    the checks run after the last tile: first finiteness, then symmetry.
    A non-finite entry makes its difference NaN or inf, so an exactly
    symmetric arr (every difference zero) is finite and needs no scale.
    Only when some pair differs are the extremes read, in two more passes.
    """
    asymmetry, exact = 0.0, True
    for upper, lower, weight in _mirrored_tiles(arr):
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or an overflow
            diff = upper - lower
        tile_asymmetry = float(np.abs(diff, out=diff).max())
        del diff  # freed before the caller works on the tile
        mirrored = tile_asymmetry == 0.0  # False for NaN
        exact = exact and mirrored
        # A NaN here comes from a non-finite entry, which the scale rejects.
        asymmetry = max(asymmetry, tile_asymmetry)
        yield upper, weight, mirrored
    if exact:
        return
    # The max-abs scale is NaN or inf exactly when some entry is.  A NaN
    # makes both extremes NaN, and the builtin max then returns NaN too.
    largest = max(float(arr.max()), -float(arr.min()))
    if not math.isfinite(largest):
        raise ValidationError(f"{name} has non-finite entries")
    if asymmetry > tol * max(1.0, largest):
        raise ValidationError(f"{name} is not symmetric")


def require_symmetric(m, name: str = "matrix", tol: float = 1e-10) -> np.ndarray:
    """Validate a dense non-empty square, finite, symmetric matrix and return it as float64.

    max|a_ij - a_ji| must not exceed tol * max(1, max|a_ij|).  Past the
    float64 conversion no n x n temporary is allocated: the check runs over
    the tiles on and above the diagonal and their mirrors, once.
    """
    arr = np.asarray(m, dtype=float)
    _require_square(arr, name)
    for _ in _checked_tiles(arr, name, tol):
        pass
    return arr


def require_adjacency(adj) -> tuple[np.ndarray, float]:
    """Validate a simple-graph adjacency on n >= 2 nodes; return it and its edge density.

    The entries must be 0 or 1 and the matrix symmetric, with a zero
    diagonal (no self-loops), so the edge count is the number of ones
    halved.  A uint8 or bool array is checked where it lies and returned as
    it is: its tiles are compared for equality (a difference would wrap
    around in uint8).  Any other dtype is returned as float64, checked as
    require_symmetric checks it, with the 0/1 test and the count of ones
    made on the same tiles.  No n x n temporary is made past the float64
    conversion, and every dtype gets the same message for the same fault.
    """
    arr = np.asarray(adj)
    if arr.dtype in (np.uint8, np.bool_):
        _require_square(arr, "adjacency")
        if not all(np.array_equal(upper, lower) for upper, lower, _ in _mirrored_tiles(arr)):
            raise ValidationError("adjacency is not symmetric")
        binary = arr.dtype == np.bool_ or arr.max() <= 1
        ones = np.count_nonzero(arr)
    else:
        arr = np.asarray(arr, dtype=float)
        _require_square(arr, "adjacency")
        ones, binary = 0, True
        for tile, weight, mirrored in _checked_tiles(arr, "adjacency", 1e-10):
            # The tile is 0/1 when all its nonzeros are ones, and its mirror
            # then too if the two are equal, as two 0/1 entries within the
            # symmetry bound are.
            tile_ones = np.count_nonzero(tile == 1.0)
            binary = binary and mirrored and tile_ones == np.count_nonzero(tile != 0.0)
            ones += weight * tile_ones
    n = arr.shape[0]
    if n < 2:
        raise ValidationError("adjacency needs at least 2 nodes")
    if not binary:
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


def row_gram(a: np.ndarray) -> np.ndarray:
    """a @ a.T for a C-order float64 a, from scipy's BLAS, exactly symmetric.

    numpy computes a @ a.T, for a of two rows or more, as a symmetric
    rank-k update (BLAS syrk) and mirrors the triangle it wrote.  This runs
    the same update, dsyrk, on the thread pool of scipy's LAPACK, and
    mirrors the same triangle, so it has numpy's bits.
    """
    from scipy.linalg import blas

    # dsyrk writes the lower triangle of its Fortran-order result; the
    # transpose is C-order with that triangle above the diagonal.
    t = blas.dsyrk(1.0, a.T, trans=1, lower=1).T
    for upper, lower, weight in _mirrored_tiles(t):
        if weight == 2:
            lower[...] = upper
        else:  # the tile and its mirror overlap: copy only above its diagonal
            np.copyto(lower, upper, where=~np.tri(upper.shape[0], dtype=bool))
    return t


def inner_products(sample: LatentSample) -> np.ndarray:
    """Pairwise inner products <X_i, X_j>, clipped to [-1, 1]; exactly symmetric."""
    t = row_gram(sample.points)
    return np.clip(t, -1.0, 1.0, out=t)


def gram_population(sample: LatentSample) -> np.ndarray:
    """Population Gram matrix G with G_ij = <X_i, X_j> / n."""
    return inner_products(sample) / sample.n


def _require_model_size(sample: LatentSample, model: GraphModel) -> None:
    if model.n != sample.n:
        raise ValidationError(f"model.n={model.n} does not match sample n={sample.n}")


def probability_matrix(sample: LatentSample, model: GraphModel) -> np.ndarray:
    """Theta with Theta_ij = rho * f(<X_i, X_j>) off-diagonal, 0 on the diagonal."""
    _require_model_size(sample, model)
    theta = model.sparsity * model.link(inner_products(sample))
    np.fill_diagonal(theta, 0.0)
    return theta


# The samplers hold a block of rows of Theta and of the uniforms at a time,
# each about this many bytes of float64: a fixed row count would make a
# block a large share of n^2 at moderate n (256 rows are 21% at n=1200).
SAMPLE_BLOCK_BYTES = 2**21


def _sample_rows(n: int, theta_rows, seed: int) -> np.ndarray:
    """Symmetric uint8 adjacency with zero diagonal from upper-triangle coins.

    theta_rows(i, j) gives rows i .. j-1 of Theta.  Each block of rows draws
    its uniforms as rng.random((j - i, n)); PCG64 fills consecutive blocks
    with the values one rng.random((n, n)) draw would hold, so the coins do
    not depend on the block size.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=np.uint8)
    step = max(1, SAMPLE_BLOCK_BYTES // (8 * n))
    for i in range(0, n, step):
        j = min(n, i + step)
        # The uniforms lie in [0, 1), so comparing them with Theta flips the
        # same coins as comparing them with clip(Theta, 0, 1) would, within
        # the link's range slack.
        upper = np.triu(rng.random((j - i, n)) < theta_rows(i, j), k=i + 1)
        adj[i:j] |= upper
        adj[:, i:j] |= upper.T
    return adj


def sample_adjacency(theta, seed: int) -> np.ndarray:
    """Bernoulli adjacency: independent upper-triangle coin flips with means Theta.

    Symmetric uint8 0/1 matrix with zero diagonal; deterministic per seed.
    """
    theta = require_symmetric(theta, "probability matrix")
    if theta.min() < -RANGE_SLACK or theta.max() > 1.0 + RANGE_SLACK:
        raise ValidationError("probability matrix entries must lie in [0, 1]")
    return _sample_rows(theta.shape[0], lambda i, j: theta[i:j], seed)


def sample_model_adjacency(sample: LatentSample, model: GraphModel, seed: int) -> np.ndarray:
    """The coins of sample_adjacency(probability_matrix(sample, model), seed), Theta never whole.

    Each block of rows of Theta is rho * f(clip(X[i:j] X^T, -1, 1)).  The
    block product runs as a general matrix product (scipy's BLAS dgemm)
    where inner_products runs a symmetric rank-k update, so an entry can
    differ from it in the last bit; a coin differs only if its uniform falls
    between the two.
    """
    from scipy.linalg import blas

    _require_model_size(sample, model)
    x = sample.points

    def theta_rows(i: int, j: int) -> np.ndarray:
        # X X[i:j]^T in Fortran order, from the Fortran views of the C-order
        # rows: its transpose is the C-order block, with no copy.
        t = blas.dgemm(1.0, x.T, x[i:j].T, trans_a=1).T
        return model.sparsity * model.link(np.clip(t, -1.0, 1.0, out=t))

    return _sample_rows(sample.n, theta_rows, seed)


def edge_density(adj) -> float:
    """Fraction of the n(n-1)/2 possible edges that are present."""
    return require_adjacency(adj)[1]
