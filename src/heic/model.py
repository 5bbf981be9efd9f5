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
construction.  The samplers flip the coins a block of rows at a time, and
only above the diagonal: each block forms Theta and compares it with its
uniforms from the diagonal on, and the lower triangle of the adjacency is
filled once, at the end, as the mirror of the upper one.  So neither the
n x n uniforms nor, in sample_model_adjacency, Theta itself ever exists
whole; there each block's link values are evaluated and scaled in place,
through the link's private evaluator, as probability_matrix does on the
whole matrix.  Both hand the evaluator inner products they own, which the
threshold and affine links overwrite with their values, so with those links
Theta takes no n x n array besides the inner products.  Operations are
pure: identical inputs and seed reproduce the output bit for bit.
"""

from __future__ import annotations

import math
import os
import resource
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Optional

import numpy as np

from .errors import ValidationError, require_integer, require_real
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
        if not isinstance(self.link, LinkFunction):
            raise ValidationError(f"link must be a LinkFunction, got {self.link!r}")
        if not (0.0 < require_real(self.sparsity, "sparsity") <= 1.0):
            raise ValidationError(f"sparsity must lie in (0, 1], got {self.sparsity}")
        require_integer(self.n, "n", 1)


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
    return arr, float((ones // 2) / (n * (n - 1) / 2.0))


# Bytes per adjacency entry at a command's peak on an n-node graph: the
# uint8 adjacency, one n x n float64 array (A/n, or the noiseless study's
# Theta) and LAPACK's workspace, about 1.6 x 8.  The rise in peak RSS over
# one fresh command at n=4000 (2 cores) was 12.4 for heic estimate, 12.3 for
# mse-study, 11.3 for dimension and dim-study and 10.9 for convergence-study.
PEAK_BYTES_PER_ENTRY = 13


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _address_space_limit() -> Optional[int]:
    """The soft RLIMIT_AS of this process, or None when it is unlimited."""
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    return None if soft == resource.RLIM_INFINITY else soft


def _cgroup_limit(proc: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> Optional[int]:
    """The smallest memory limit of this process's cgroup and its ancestors, or None when none is found.

    proc names the cgroup: its "0::path" line under cgroup v2, whose limit
    is memory.max below root, and under v1 the line whose controllers
    include memory, whose limit is memory.limit_in_bytes below root/memory.
    Each level from the cgroup up to root is read, so a cgroup namespace
    (path "/") or a path the mount does not show still finds the limit
    that holds.  "max" reads as no limit, and v1's unlimited value (2^63
    rounded down to a page) is above any machine's memory.
    """
    try:
        lines = Path(proc).read_text().splitlines()
    except OSError:
        return None
    limits = []
    for line in lines:
        _, _, rest = line.partition(":")
        controllers, _, path = rest.partition(":")
        if controllers == "":
            mount, name = Path(root), "memory.max"
        elif "memory" in controllers.split(","):
            mount, name = Path(root) / "memory", "memory.limit_in_bytes"
        else:
            continue
        cgroup = PurePosixPath(path or "/")
        for level in (cgroup, *cgroup.parents):
            try:
                text = (mount / level.relative_to("/") / name).read_text().strip()
            except (OSError, ValueError):
                continue
            if text.isdigit():
                limits.append(int(text))
    return min(limits, default=None)


def require_memory(n: int, name: str) -> None:
    """Refuse an n-node graph whose command would need more memory than this process's limit.

    The limit is the smallest of the machine's physical memory, a finite
    soft RLIMIT_AS and the process's cgroup memory limit; the message names
    the one that refused.  What the process already uses (the interpreter,
    numpy, BLAS buffers) is not subtracted, so a graph whose need is just
    under the limit passes here and may still run out of memory later.
    """
    needed = PEAK_BYTES_PER_ENTRY * n * n
    limits = [
        (_physical_memory(), "present"),
        (_address_space_limit(), "the address-space limit (RLIMIT_AS) allows"),
        (_cgroup_limit(), "the cgroup's memory limit allows"),
    ]
    limit, what = min(((b, w) for b, w in limits if b is not None), key=lambda item: item[0])
    if needed > limit:
        raise ValidationError(
            f"{name}: n={n} needs about {needed} bytes of memory, more than the {limit} bytes {what}"
        )


def sample_uniform_sphere(n: int, d: int, seed: int) -> LatentSample:
    """Draw n points uniformly on S^{d-1}: normalized independent Gaussians."""
    n, d = require_integer(n, "n", 1), require_integer(d, "d", 2)
    rng = np.random.default_rng(require_integer(seed, "seed", 0))
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
    _mirror_upper(t)
    return t


def _mirror_upper(arr: np.ndarray) -> None:
    """Copy the triangle above the diagonal of the square arr into the one below, tile by tile."""
    for upper, lower, weight in _mirrored_tiles(arr):
        if weight == 2:
            lower[...] = upper
        else:  # the tile and its mirror overlap: copy only above its diagonal
            np.copyto(lower, upper, where=~np.tri(upper.shape[0], dtype=bool))


def inner_products(sample: LatentSample) -> np.ndarray:
    """Pairwise inner products <X_i, X_j>, clipped to [-1, 1]; exactly symmetric."""
    t = row_gram(sample.points)
    return np.clip(t, -1.0, 1.0, out=t)


def gram_population(sample: LatentSample) -> np.ndarray:
    """Population Gram matrix G with G_ij = <X_i, X_j> / n, divided in place."""
    t = inner_products(sample)
    t /= sample.n
    return t


def _require_model_size(sample: LatentSample, model: GraphModel) -> None:
    if model.n != sample.n:
        raise ValidationError(f"model.n={model.n} does not match sample n={sample.n}")


def probability_matrix(sample: LatentSample, model: GraphModel) -> np.ndarray:
    """Theta with Theta_ij = rho * f(<X_i, X_j>) off-diagonal, 0 on the diagonal.

    The link is evaluated into the inner products, and its values are
    scaled and their diagonal cleared in place.  With the threshold and
    affine links the inner products are the only n x n array; a table or
    custom link's values are a second one.
    """
    _require_model_size(sample, model)
    theta = model.link._evaluate(inner_products(sample))
    theta *= model.sparsity
    np.fill_diagonal(theta, 0.0)
    return theta


# The samplers hold a block of rows of the uniforms at a time, about this
# many bytes of float64, with its part of Theta of at most the same size:
# the threshold and affine links evaluate into the block's inner products,
# and a table or custom link adds one more block for its values.  Together
# they stay within the 2 MB L2 cache of a core.  sample_model_adjacency,
# threshold(0), d=3, rho=1, 2 cores, median ms of 25 runs interleaved after
# a warm-up:
#
#   n      2^17   2^18   2^19   2^20   2^21
#   500     2.7    2.4    2.4    3.5    4.6
#   1000    9.6    8.8    8.9    9.5   14.2
#   2000   37.9   34.1   33.6   33.2   37.6
#   3000   82.5   74.3   70.8   71.8   75.2
#
# and at n=200, 0.5 ms for every size.  Forming whole rows instead, and
# the lower triangle from each block's transpose, in blocks of 2^21 bytes,
# took 0.6, 7.9, 34.4, 145 and 158 ms at these n.
#
# Each block draws its uniforms over whole rows and uses only columns
# i .. n-1.  Skipping the rest by PCG64's bit_generator.advance, row by row,
# keeps the coins (it matches one rng.random((n, n)) draw) but costs more
# wherever the studies sample.  The uniforms alone, full rows against
# per-row advance, took 0.14 against 0.43 ms at n=200, 0.76 against 1.41 ms
# at n=500 and 2.71 against 3.02 ms at n=1000; advance won only at n=3000,
# 26.6 against 37.1 ms.  A rerun, drawing into one reused block, gave the
# same order: 0.14/0.56, 1.09/1.47, 4.73/5.36 and 41.6/30.6 ms.
SAMPLE_BLOCK_BYTES = 2**19


def _sample_rows(n: int, theta_rows, seed: int) -> np.ndarray:
    """Symmetric uint8 adjacency with zero diagonal from upper-triangle coins.

    theta_rows(i, j) gives rows i .. j-1 of Theta over columns i .. n-1: the
    block's part from the diagonal on.  Each block of rows draws its
    uniforms as rng.random((j - i, n)) and uses columns i .. n-1 of them;
    PCG64 fills consecutive blocks with the values one rng.random((n, n))
    draw would hold, so the coins do not depend on the block size.  Each
    comparison is written straight into its rows of the result.  The corner
    of each block's leading square below the diagonal is then written over
    by the mirror of the upper triangle, and the diagonal cleared.
    """
    rng = np.random.default_rng(require_integer(seed, "seed", 0))
    adj = np.empty((n, n), dtype=np.uint8)
    step = max(1, SAMPLE_BLOCK_BYTES // (8 * n))
    for i in range(0, n, step):
        j = min(n, i + step)
        u = rng.random((j - i, n))
        # The uniforms lie in [0, 1), so comparing them with Theta flips the
        # same coins as comparing them with clip(Theta, 0, 1) would, within
        # the link's range slack.
        np.less(u[:, i:], theta_rows(i, j), out=adj[i:j, i:].view(np.bool_))
    _mirror_upper(adj)
    np.fill_diagonal(adj, 0)
    return adj


def sample_adjacency(theta, seed: int) -> np.ndarray:
    """Bernoulli adjacency: independent upper-triangle coin flips with means Theta.

    Symmetric uint8 0/1 matrix with zero diagonal; deterministic per seed.
    """
    theta = require_symmetric(theta, "probability matrix")
    if theta.min() < -RANGE_SLACK or theta.max() > 1.0 + RANGE_SLACK:
        raise ValidationError("probability matrix entries must lie in [0, 1]")
    return _sample_rows(theta.shape[0], lambda i, j: theta[i:j, i:], seed)


def sample_model_adjacency(sample: LatentSample, model: GraphModel, seed: int) -> np.ndarray:
    """The coins of sample_adjacency(probability_matrix(sample, model), seed), Theta never whole.

    Each block of rows of Theta is rho * f(clip(X[i:j] X[i:]^T, -1, 1)),
    from the diagonal on, with the link evaluated and scaled in place.  The
    block product runs as a general matrix product (scipy's BLAS dgemm)
    where inner_products runs a symmetric rank-k update, so an entry can
    differ from it in the last bit; a coin differs only if its uniform falls
    between the two.
    """
    from scipy.linalg import blas

    _require_model_size(sample, model)
    x = sample.points

    def theta_rows(i: int, j: int) -> np.ndarray:
        # X[i:] X[i:j]^T in Fortran order, from the Fortran views of the
        # C-order rows: its transpose is the C-order block, with no copy.
        t = blas.dgemm(1.0, x[i:].T, x[i:j].T, trans_a=1).T
        theta = model.link._evaluate(np.clip(t, -1.0, 1.0, out=t))
        theta *= model.sparsity
        return theta

    return _sample_rows(sample.n, theta_rows, seed)


def edge_density(adj) -> float:
    """Fraction of the n(n-1)/2 possible edges that are present."""
    return require_adjacency(adj)[1]
