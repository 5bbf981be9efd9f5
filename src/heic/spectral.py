"""Symmetric eigensolvers: three routes to a window, and the matching distance.

heic() needs the eigenvalues around its cluster, to place it, but only the
d eigenvectors of the window it picks.  There are three routes, the first
two through one entry point, reduce:

- tridiagonal: one in-place reduction to tridiagonal form (tridiagonalize:
  LAPACK dsytrd, then dsterf for the whole spectrum) and the window's
  eigenvectors alone (Tridiagonal.window_vectors).
- two-stage: from TWO_STAGE_MIN_N, LAPACK's two-stage reduction, every
  eigenvalue, and the window's eigenvectors from the band matrix the first
  stage leaves, certified by a bound on their projector's error
  (Banded.window_vectors).  When the bound fails, estimator.heic() keeps
  the window the two-stage values placed and takes its eigenvectors alone
  from the tridiagonal route's reduction, handing tridiagonalize those
  values so that it runs no dsterf.
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

The two-stage reduction.  LAPACK's dsytrd_sy2sb reduces A to a band matrix
B = Q^T A Q of half-bandwidth kd (32 here) by blocked Householder steps, and
dsytrd_sb2st chases B's bulges down to tridiagonal form (Bischof, Lang and
Sun, ACM TOMS 26, 2000; Haidar, Ltaief and Dongarra, SC 2011).  That moves
the memory-bound dsymv half of dsytrd into BLAS-3.  Its values differ from
dsytrd's in the last bits, within a small multiple of n eps ||A||_F.  LAPACK
gives no back transformation through the second stage, but none is needed:
the window's eigenvectors are taken from B, and only Q, which the first
stage stores as dsytrd stores its own (see _back_transform), carries them
to A.  For each window value th, two steps of inverse iteration on B - th I
by one banded LU (LAPACK dgbtrf, dgbtrs; as in LAPACK's dstein); one QR of
the n x d block gives orthonormal Y.  The certificate: with M = Y^T B Y and
R = B Y - Y M, let delta be the distance from M's eigenvalues (the Ritz
values) to the nearest computed eigenvalue outside the window, less the
spectrum's rounding slack 4 n eps ||T||_F (rounding_slack, the bound the
tests hold either reduction's spectrum to), so that every true eigenvalue
of B outside the window is at least delta from each Ritz value.  Writing X for those
eigenvalues' eigenvectors, X^T R = L X^T Y - X^T Y M entrywise in the
eigenbases of L and M, so ||X^T Y||_F <= ||R||_F / delta, and the projector
onto span(Y) is within sqrt(2) ||R||_F / delta of B's spectral projector
for the window in the Frobenius norm (Davis and Kahan's sin theta theorem,
SIAM J. Numer. Anal. 7, 1970).  R is formed in band storage (dsbmv) in
O(n kd d).  The route accepts Y only when that bound is below _BAND_BOUND =
1e-10, a hundredth of the 1e-8 a solver change may move the projector,
which leaves room for Y's departure from orthonormality and the rounding of
R.  An LU with a zero pivot, a non-finite iterate or delta <= 0 (a window of
gap 0) fails it too.  The reductions' own backward error is the
tridiagonal route's.

reduce serves every caller: heic(), symmetric_eig, and the callers that
read its values only (the dimension scan, the eig command and the
convergence study).  From TWO_STAGE_MIN_N it takes the two stages; below it
dsytrd, whose values (with dsterf) are numpy's eigvalsh bit for bit, as
dsytrd and dsterf are the arithmetic of its dsyevd without vectors.  So at
every n the values from which heic()'s reduction route picks its window are
the dimension scan's bit for bit.  The stages are called as LAPACK's
dsytrd_2stage (vect='N') calls them, so the values are that routine's too.
scipy wraps neither stage: both are bound by ctypes from the library
scipy's LAPACK wrappers link, on first use, and where either, or their
block-size query ilaenv2stage, is missing, dsytrd serves every n and every
caller.  A caller that already has the values of this matrix on this route
(estimator's memory of the last reduced graph) passes them as values=:
reduce then runs only the first stage, dsytrd or dsytrd_sy2sb, whose Q the
window's eigenvectors need, and skips dsytrd_sb2st and dsterf (at n=3000,
about 0.26 s and 0.14 s of a 1.1 s reduction).

extreme_pairs runs on the working copy as it is and never writes it.
confirm() forms B in the copy and factorizes it in place, twice: the top
end in the triangle above the diagonal, then the bottom end in the triangle
below it, which the first proof leaves as it was, with the diagonal put
back from a saved copy.  So the copy must be exactly symmetric, as A/n of a
validated adjacency is.  When the proof fails, the caller writes the
matrix back before it falls back to a reduction.

One thread pool.  numpy and scipy each ship an OpenBLAS with its own pool
of worker threads, and an idle worker spins for about 0.1 s after a call
before it sleeps.  When calls on the two pools alternate, as when a study
samples a graph and then solves it, the spinning workers of one pool take a
core from the other.  So every threaded BLAS or LAPACK call on a graph's
path runs on scipy's pool: the solvers, the ARPACK products (dsymv, about
twice as fast as numpy's product at n=3000 on 2 cores), the products and
norms of _ritz_slack and delta_2 (scipy's dsyrk and ddot, with numpy's
bits), the band LU, QR, products and norms of Banded.window_vectors, and
the sampler's products in model.py.  numpy's BLAS keeps only products too
small to be threaded, such as the MSE study's d x d ones, and what runs
once per command: harmonics.py's quadrature and GramEstimate.matrix.
scipy is imported on first use (about 0.3 s and 27 MB of RSS, and 0.5 s
and 3.7 MB more for scipy.sparse.linalg), not by ``import heic`` or
analytic_spectrum.

One route interface.  Each route's object (Tridiagonal, Banded or
ExtremePairs) gives heic() the same four things: values, the n
eigenvalues sorted decreasingly (the reversed view of LAPACK's ascending
output; ExtremePairs gives its top values, NaN for each unproved middle
value, then its bottom values); solver, the route's name; slack, a bound
on each eigenvalue's error (the reductions' rounding_slack of their
values, ExtremePairs' Ritz slack); and window_vectors(start, stop), the
eigenvectors of sorted positions start .. stop-1 (ExtremePairs' only
within one known end; Banded's None where its certificate fails).  A
Spectrum, the result of reduce (Tridiagonal or Banded), has values and
window_vectors.  Eigenvector signs (and bases within repeated eigenvalues)
are arbitrary; consumers may use V only up to an orthogonal transform, as
in the projector V V^T.

symmetric_eig and normalize_adjacency validate their input.  The other
solvers trust it: the caller has already checked that the matrix is
square, finite and symmetric.  reduce and tridiagonalize overwrite the
copy they are given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Union

import numpy as np

from .errors import EigenSolverError
from .model import _mirrored_tiles, require_symmetric, row_gram


def _solve(solver, *args, **kwargs):
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigendecomposition failed to converge: {exc}") from exc


def _back_transform(reflectors: np.ndarray, tau: np.ndarray, kd: int, y: np.ndarray) -> np.ndarray:
    """Q y for the Q of a lower-triangle reduction to half-bandwidth kd (LAPACK dormqr).

    reflectors is the reduced matrix in Fortran order.  Below row j + kd,
    column j holds the Householder vector v_j of Q = H_0 H_1 ... H_{k-1},
    H_j = I - tau_j v_j v_j^T, k = tau.size; entry j + kd of v_j is an
    implicit 1 and entries 0 .. j + kd - 1 are 0.  dsytrd (kd = 1) and
    dsytrd_sy2sb, the first stage of the two-stage reduction, both store
    Q so.  Q acts on rows kd .. n-1 through the block of rows kd .. n-1 and
    columns 0 .. k-1 (as LAPACK dormtr does for kd = 1).  That block is not
    contiguous, so dormqr reads the contiguous n x k window kd elements
    later, whose extra last kd rows are rows 0 .. kd-1 of columns 1 .. k:
    set to zero here, they leave c's zero last kd rows, and the result,
    alone.  No entry of a reflector lies there.
    """
    from scipy.linalg import lapack

    n, k = y.shape[0], tau.size
    if k == 0:
        return y.copy()
    reflectors[:kd, 1 : k + 1] = 0.0
    block = reflectors.ravel(order="F")[kd : kd + n * k].reshape((n, k), order="F")
    c = np.zeros((n, y.shape[1]), order="F")
    c[: n - kd] = y[kd:]
    lwork = lapack.dormqr("L", "N", block, tau, c, -1)[1][0]
    c, _, _ = lapack.dormqr("L", "N", block, tau, c, int(lwork), overwrite_c=1)
    return np.vstack([y[:kd], c[: n - kd]])


@dataclass(frozen=True)
class Tridiagonal:
    """A = Q T Q^T from one Householder reduction (LAPACK dsytrd, lower triangle).

    heic()'s reduction route below TWO_STAGE_MIN_N; from there on it gives
    only the window's eigenvectors, when the two-stage route's certificate
    fails.  values holds every eigenvalue of T (LAPACK dsterf), sorted
    decreasingly, and slack their rounding_slack.  reflectors is the
    reduced matrix in Fortran order and tau its n-1 scalars; they hold Q as
    _back_transform reads it, with kd = 1.
    """

    values: np.ndarray
    diagonal: np.ndarray
    offdiagonal: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    slack: float
    solver: ClassVar[str] = "tridiagonal"

    def window_vectors(self, start: int, stop: int) -> np.ndarray:
        """Unit eigenvectors for sorted positions start .. stop-1, one per column.

        Only these eigenvectors of T are computed (LAPACK dstebz + dstein),
        then carried back to A through the n-1 reflectors (LAPACK dormqr).
        dstebz's bisection can fail on a window inside a long run of equal
        eigenvalues (the window between 45 copies of -1/60 in a union of
        cliques); only then are the same eigenvectors of T taken by MRRR
        (LAPACK dstemr) instead.
        """
        from scipy.linalg import eigh_tridiagonal

        n = self.values.size
        window = {"select": "i", "select_range": (n - stop, n - 1 - start)}
        try:
            _, y = eigh_tridiagonal(self.diagonal, self.offdiagonal, **window)
        except np.linalg.LinAlgError:
            _, y = _solve(eigh_tridiagonal, self.diagonal, self.offdiagonal, lapack_driver="stemr", **window)
        return _back_transform(self.reflectors, self.tau, 1, y[:, ::-1])


def _tridiagonal_values(diagonal: np.ndarray, offdiagonal: np.ndarray) -> np.ndarray:
    """Every eigenvalue of a symmetric tridiagonal matrix (LAPACK dsterf), sorted decreasingly."""
    from scipy.linalg import eigvalsh_tridiagonal

    return _solve(eigvalsh_tridiagonal, diagonal, offdiagonal, lapack_driver="sterf")[::-1]


def tridiagonalize(arr: np.ndarray, values: Optional[np.ndarray] = None) -> Tridiagonal:
    """Reduce a validated symmetric matrix in place and compute all its eigenvalues.

    arr must be a float64 copy owned by the caller.  LAPACK reads the upper
    triangle of a C-order arr through its Fortran view arr.T and overwrites
    it in place.  The lwork query lets dsytrd run blocked: 1.45 s against
    2.73 s with its default lwork=n at n=3000 on 2 cores.  values, when
    given, are taken as arr's n eigenvalues, sorted decreasingly, from an
    earlier reduction of the same matrix, and dsterf is skipped.
    """
    from scipy.linalg import lapack

    lwork, _ = lapack.dsytrd_lwork(arr.shape[0], lower=1)
    reflectors, diagonal, offdiagonal, tau, _ = lapack.dsytrd(
        arr.T, lower=1, lwork=int(lwork), overwrite_a=1
    )
    if values is None:
        values = _tridiagonal_values(diagonal, offdiagonal)
    return Tridiagonal(values, diagonal, offdiagonal, reflectors, tau, rounding_slack(values))


# From this n on, reduce takes LAPACK's two-stage reduction, the stages of
# dsytrd_2stage.  Median s (quartiles) of 5 alternating runs of each
# reduction and dsterf on A/n of one threshold(0), d=3 graph per cell,
# 2 cores, OpenBLAS 0.3.31 under scipy 1.17.1:
#
#   n     rho=1: dsytrd       2-stage            rho=8 ln n/n: dsytrd  2-stage
#   1500  0.225 (.221-.227)   0.267 (.267-.268)  0.217 (.212-.218)    0.255 (.245-.269)
#   2000  0.464 (.448-.482)   0.473 (.471-.480)  0.446 (.425-.449)    0.462 (.447-.465)
#   2500  0.784 (.777-.849)   0.658 (.618-.684)  0.838 (.824-.844)    0.684 (.619-.700)
#   3000  1.532 (1.44-1.53)   1.242 (1.21-1.29)  1.375 (1.37-1.50)    1.115 (1.09-1.20)
#   4000  3.498 (3.43-3.54)   2.561 (2.38-2.68)  3.262 (3.26-3.34)    2.591 (2.53-2.64)
#
# The two-stage run was faster in 0, 2-3, 4-5, 5 and 5 of 5 pairs at these
# n.  Below them it loses by more: 25-26 against 14 ms at n=500, 110-115
# against 68-72 ms at n=1000 (medians of 7).  The spectra differed by at
# most 2.2e-15.  heic()'s reduction route (CERTIFIED_MIN_DENSITY at inf),
# with its validation, copy and window vectors, median s (range) of 5
# alternating runs on the same kind of graphs:
#
#   n     rho=1: dsytrd       2-stage            rho=8 ln n/n: dsytrd  2-stage
#   1500  0.210 (.199-.230)   0.253 (.247-.261)  0.224 (.207-.331)    0.256 (.222-.360)
#   2000  0.466 (.427-.501)   0.418 (.379-.465)  0.489 (.485-.493)    0.512 (.497-.517)
#   2500  0.930 (.833-1.09)   0.799 (.725-.840)  0.916 (.864-1.40)    0.816 (.694-.953)
#   3000  1.480 (1.37-1.73)   1.249 (1.17-1.27)  1.435 (1.33-1.51)    1.252 (1.12-1.27)
#   4000  3.171 (3.14-3.44)   2.507 (2.29-2.83)  3.329 (2.91-3.46)    2.692 (2.56-3.07)
#
# The two-stage route was faster in 0 and 0, 5 and 0, 5 and 4, 5 and 5, and
# 5 and 5 of 5 pairs.  Its crossover, between 2000 and 2500, is the
# eigenvalue-only one, so one constant serves every caller.
TWO_STAGE_MIN_N = 2500


@functools.cache
def _two_stage_routines():
    """LAPACK's two stages and their block-size query, from the library scipy's LAPACK wrappers link.

    (dsytrd_sy2sb, dsytrd_sb2st, ilaenv2stage), or None when any of them is
    missing.  scipy wraps none of them, so they are looked up by ctypes,
    once, on first use: under scipy's symbol prefix first, then under the
    plain name.  The arguments are LP64 ints, with the lengths of the
    character arguments last.
    """
    import ctypes

    try:
        from scipy.linalg import _flapack

        library = ctypes.CDLL(_flapack.__file__)
    except (ImportError, OSError):
        return None
    routines = []
    for name in ("dsytrd_sy2sb", "dsytrd_sb2st", "ilaenv2stage"):
        for symbol in (f"scipy_{name}_", f"{name}_"):
            routine = getattr(library, symbol, None)
            if routine is not None:
                routines.append(routine)
                break
        else:
            return None
    sy2sb, sb2st, ilaenv2stage = routines
    char, integer, array = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
    length = ctypes.c_size_t
    sy2sb.argtypes = [
        char, integer, integer, array, integer,  # uplo, n, kd, a, lda
        array, integer, array, array, integer, integer,  # ab, ldab, tau, work, lwork, info
        length,
    ]
    sb2st.argtypes = [
        char, char, char, integer, integer, array, integer,  # stage1, vect, uplo, n, kd, ab, ldab
        array, array, array, integer, array, integer, integer,  # d, e, hous, lhous, work, lwork, info
        length, length, length,
    ]
    ilaenv2stage.argtypes = [integer, char, char, integer, integer, integer, integer, length, length]
    sy2sb.restype = sb2st.restype = None
    ilaenv2stage.restype = ctypes.c_int
    return sy2sb, sb2st, ilaenv2stage


def _dsytrd_2stage(arr: np.ndarray, second_stage: bool = True):
    """T = Q^T arr Q by LAPACK's two stages: T's diagonal and offdiagonal, band and tau.

    dsytrd_sy2sb reduces arr to a band matrix B = Q^T arr Q of half-bandwidth
    kd and keeps Q's reflectors in arr (see _back_transform; tau holds
    their scalars), then dsytrd_sb2st reduces B to T.  Each stage is called
    with the arguments LAPACK's dsytrd_2stage (vect='N') gives it, so T has
    its bits.  arr, C-contiguous float64 and exactly symmetric, is
    overwritten; LAPACK reads its upper triangle as the lower one of the
    Fortran view.  band is a copy of B in LAPACK's lower band storage,
    band[i - j, j] = B[i, j], of min(kd, n-1) + 1 rows, taken before the
    second stage overwrites it (0.76 MB and 0.035 ms at n=3000).  Without
    second_stage, for a caller that already has the values, it stops after
    the first stage and returns None for T's diagonal and offdiagonal.
    """
    import ctypes

    square = arr.ndim == 2 and arr.shape[0] == arr.shape[1]
    if not (square and arr.dtype == np.float64 and arr.flags.c_contiguous and arr.flags.writeable):
        raise ValueError("dsytrd_2stage needs a square, writeable C-contiguous float64 array")
    sy2sb, sb2st, ilaenv2stage = _two_stage_routines()
    n = arr.shape[0]

    def query(spec, n2=-1, n3=-1):
        c = ctypes.c_int
        return ilaenv2stage(c(spec), b"DSYTRD_2STAGE", b"N", c(n), c(n2), c(n3), c(-1), 13, 1)

    kd = query(1)
    ib = query(2, kd)
    lhous, ldab = query(3, kd, ib), kd + 1
    lwork = query(4, kd, ib) - ldab * n  # what dsytrd_2stage leaves each stage past its band
    ab, tau = np.zeros((n, ldab)), np.zeros(max(n - kd, 1))
    diagonal, offdiagonal = np.empty(n), np.empty(max(n - 1, 1))
    hous, work, info = np.empty(lhous), np.empty(lwork), ctypes.c_int(0)
    size, width, lead, lw = (ctypes.c_int(v) for v in (n, kd, ldab, lwork))
    sy2sb(b"L", size, width, arr.ctypes.data, size, ab.ctypes.data, lead, tau.ctypes.data,
          work.ctypes.data, lw, info, 1)
    if info.value != 0:
        raise EigenSolverError(f"dsytrd_sy2sb failed with info={info.value}")
    band = ab[:, : min(kd, n - 1) + 1].T.copy(order="F")
    tau = tau[: n - kd if n > kd + 1 else 0]  # below kd + 2 rows B is arr itself (Q = I), tau unset
    if not second_stage:
        return None, None, band, tau
    sb2st(b"Y", b"N", b"L", size, width, ab.ctypes.data, lead, diagonal.ctypes.data,
          offdiagonal.ctypes.data, hous.ctypes.data, ctypes.c_int(lhous), work.ctypes.data, lw, info,
          1, 1, 1)
    if info.value != 0:
        raise EigenSolverError(f"dsytrd_sb2st failed with info={info.value}")
    return diagonal, offdiagonal[: n - 1], band, tau


# The largest projector error bound that Banded.window_vectors accepts,
# a hundredth of the 1e-8 to which a solver change must keep the projector.
_BAND_BOUND = 1e-10


@dataclass(frozen=True)
class Banded:
    """A = Q B Q^T from the first stage of LAPACK's two-stage reduction, B banded.

    values holds every eigenvalue of B (the second stage, then dsterf),
    sorted decreasingly, and slack their rounding_slack; band holds B in
    LAPACK's lower band storage, its half-bandwidth kd = band.shape[0] - 1;
    reflectors (the reduced matrix in Fortran order) and tau hold Q as
    _back_transform reads it.
    """

    values: np.ndarray
    band: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    slack: float
    solver: ClassVar[str] = "two-stage"

    def window_vectors(self, start: int, stop: int) -> Optional[np.ndarray]:
        """Orthonormal vectors spanning sorted positions start .. stop-1 (start >= 1), or None.

        Inverse iteration on B: one banded LU of B - th I for each value th
        of the window (LAPACK dgbtrf), two solves with it (dgbtrs) from a
        fixed random start; then one QR of the n x d block (scipy's dgeqrf)
        gives Y.  Y is certified by the Davis-Kahan bound of the module
        docstring, and carried back to A through Q.  None when an LU has a
        zero pivot, an iterate is not finite, or the bound is not below
        _BAND_BOUND.
        """
        from scipy.linalg import qr

        rng = np.random.default_rng(0)
        y = np.empty((self.band.shape[1], stop - start), order="F")
        for i, theta in enumerate(self.values[start:stop]):
            x = _inverse_iteration(self.band, theta, rng.standard_normal(y.shape[0]))
            if x is None:
                return None
            y[:, i] = x
        y = qr(y, mode="economic", overwrite_a=True, check_finite=False)[0]
        if _window_bound(self, start, stop, y) >= _BAND_BOUND:
            return None
        return _back_transform(self.reflectors, self.tau, self.band.shape[0] - 1, y)


def _inverse_iteration(band: np.ndarray, theta: float, x: np.ndarray) -> Optional[np.ndarray]:
    """Two steps of inverse iteration on B - theta I from x; None on a zero pivot or a non-finite step."""
    from scipy.linalg import lapack

    kd, n = band.shape[0] - 1, band.shape[1]
    lu = np.zeros((3 * kd + 1, n), order="F")  # as dgbtrf stores B - theta I, kd spare rows on top
    for k in range(kd + 1):
        lu[2 * kd + k, : n - k] = band[k, : n - k]
        lu[2 * kd - k, k:] = band[k, : n - k]
    lu[2 * kd] -= theta
    lu, pivots, info = lapack.dgbtrf(lu, kd, kd, overwrite_ab=1)
    if info != 0:
        return None
    for _ in range(2):
        x = lapack.dgbtrs(lu, kd, kd, x, pivots, overwrite_b=1)[0]
        scale = np.abs(x).max()
        if not 0.0 < scale < np.inf:
            return None
        x /= scale
    return x


def rounding_slack(values: np.ndarray) -> float:
    """4 n eps ||values||_2: how far either reduction may move each of n eigenvalues (module docstring)."""
    return 4.0 * values.size * np.finfo(float).eps * _norm(values)


def _window_bound(banded: Banded, start: int, stop: int, y: np.ndarray) -> float:
    """sqrt(2) ||B Y - Y M||_F / delta, M = Y^T B Y (see the module docstring); inf when delta <= 0."""
    from scipy.linalg import blas, eigvalsh

    band, values = banded.band, banded.values
    kd, n = band.shape[0] - 1, band.shape[1]
    residual = np.empty_like(y, order="F")
    for i in range(y.shape[1]):
        residual[:, i] = blas.dsbmv(kd, 1.0, band, y[:, i], lower=1)
    m = blas.dgemm(1.0, y, residual, trans_a=1)
    m = 0.5 * (m + m.T)
    ritz = eigvalsh(m, check_finite=False)
    blas.dgemm(-1.0, y, m, beta=1.0, c=residual, overwrite_c=1)
    below = values[stop] if stop < n else -np.inf
    delta = min(values[start - 1] - ritz[-1], ritz[0] - below) - banded.slack
    return math.sqrt(2.0) * _norm(residual) / delta if delta > 0.0 else math.inf


Spectrum = Union[Tridiagonal, Banded]


def _reduction_route(n: int) -> str:
    """The solver of the reduction reduce takes at n: "two-stage" or "tridiagonal"."""
    if n < TWO_STAGE_MIN_N or _two_stage_routines() is None:
        return Tridiagonal.solver
    return Banded.solver


def reduce(arr: np.ndarray, values: Optional[np.ndarray] = None) -> Spectrum:
    """Reduce a validated symmetric matrix in place and compute all its eigenvalues.

    arr must be a C-contiguous float64 copy owned by the caller.  From
    TWO_STAGE_MIN_N, where LAPACK has every routine of the two-stage
    reduction, a Banded; otherwise tridiagonalize's Tridiagonal.  values,
    when given, are arr's n eigenvalues, sorted decreasingly, from an
    earlier reduce of the same matrix on the same route: then only the
    first stage runs (dsytrd, or dsytrd_sy2sb), as the window's vectors
    need its Q, and the second stage and dsterf are skipped.
    """
    if _reduction_route(arr.shape[0]) == Tridiagonal.solver:
        return tridiagonalize(arr, values)
    diagonal, offdiagonal, band, tau = _dsytrd_2stage(arr, second_stage=values is None)
    if values is None:
        values = _tridiagonal_values(diagonal, offdiagonal)
    return Banded(values, band, arr.T, tau, rounding_slack(values))


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
# (k=11), a product (scipy's dsymv) takes 0.94-0.97 ms and heic()'s
# reduction route (the two stages, dsterf and the window's vectors,
# 1.1-1.3 s) about 1200-1350 of them, so the 120 products allowed there
# cost 9-10% of it.
# Dense threshold(0) graphs converged in 71-89 products (n = 1200 to 3000)
# and certified; affine(0.5, 0.5) needed 288 at n=3000, because its window's
# lower neighbour is the edge of the bulk.  The reduction's cost grows like
# n^3 against n^2 for a product, so n/25 products keep a failure's products
# near that share of it at any large n.  Below n=3000 the floor of 120
# products rules.  At n = 200, 500 and 1000, dense threshold(0) graphs
# certified in 53, 62-106 and 71 products.  A graph that did not certify
# (affine(0.5, 0.5) at rho=1, or a sparse threshold(0) one; 105-120
# products) took 6-8, 22-23 and 88-96 ms with its fallback, against 3,
# 15-17 and 69-79 ms for the reduction alone.
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
    def values(self) -> np.ndarray:
        """The n sorted values as far as known: top, NaN for each unproved middle value, bottom."""
        middle = self.top_vectors.shape[0] - self.top.size - self.bottom.size
        return np.concatenate([self.top, np.full(middle, np.nan), self.bottom])

    def window_vectors(self, start: int, stop: int) -> np.ndarray:
        """A copy of the Ritz vectors for sorted positions start .. stop-1, all at one known end."""
        first = self.top_vectors.shape[0] - self.bottom.size
        if stop <= self.top.size:
            return self.top_vectors[:, start:stop].copy()
        if start >= first:
            return self.bottom_vectors[:, start - first : stop - first].copy()
        raise ValueError(f"positions {start} .. {stop - 1} are not all at one known end")

    def confirm(self, work: np.ndarray) -> bool:
        """Prove the claim by two Cholesky factorizations; work holds A on entry and is overwritten.

        work must be exactly symmetric.  The first factorization proves the
        top end on the triangle above the diagonal, the second the bottom end
        on the triangle below it, which the first leaves untouched, with the
        diagonal put back from a copy saved on entry (see the module
        docstring).
        """
        s_hi, s_lo = self.shifts
        diagonal = np.diagonal(work).copy()
        if not _definite(work, s_hi, -1.0, self.top, self.top_vectors, upper=True):
            return False
        np.fill_diagonal(work, diagonal)
        return _definite(work, s_lo, 1.0, self.bottom, self.bottom_vectors, upper=False)


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


def _definite(work: np.ndarray, shift: float, sign: float, values, vectors, upper=True) -> bool:
    """Whether dpotrf factors sign (A - shift I) + U U^T, U = V diag(sqrt(2 sign (shift - th))).

    The diagonal of work and its triangle above the diagonal (upper) or
    below it hold A on entry.  The matrix is formed and factorized in that
    triangle and the diagonal, in place: the diagonal shift, one dsyrk into
    the matching triangle of LAPACK's Fortran view work.T (its lower one for
    upper), then dpotrf on that triangle.  The other triangle is not written.
    """
    from scipy.linalg import blas, lapack

    n = work.shape[0]
    work.flat[:: n + 1] -= shift
    u = vectors * np.sqrt(2.0 * sign * (shift - values))
    blas.dsyrk(1.0, u, beta=sign, c=work.T, lower=int(upper), overwrite_c=1)
    return lapack.dpotrf(work.T, lower=int(upper), clean=0, overwrite_a=1)[1] == 0


def _symmetrized(m) -> np.ndarray:
    """(m + m^T) / 2 of a validated m, tile by tile, as one new C-order array: no strided pass over m^T."""
    arr = require_symmetric(m, "matrix", tol=1e-8)
    s = np.empty(arr.shape)
    for (upper, lower, _), (out, mirror, _) in zip(_mirrored_tiles(arr), _mirrored_tiles(s)):
        np.add(upper, lower, out=out)
        out *= 0.5  # halving is exact
        mirror[...] = out  # a_ji + a_ij has the bits of a_ij + a_ji
    return s


def symmetric_eig(m) -> Spectrum:
    """reduce of a validated, symmetrized copy of a dense matrix: sorted values, vectors per window.

    From TWO_STAGE_MIN_N a Banded, whose window_vectors is None where its
    certificate fails (estimator.gram_estimate then raises EigenSolverError).
    """
    return reduce(_symmetrized(m))


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
