"""Analytic spectrum of inner-product kernels on the sphere S^{d-1}.

A kernel W(x, y) = f(<x, y>) acts on L2 of the sphere as a convolution
operator whose eigenfunctions are the spherical harmonics.  Level k
contributes one eigenvalue lambda_k with multiplicity dim_k, and lambda_k
is a one-dimensional weighted integral of f against the normalized
Gegenbauer polynomial of degree k:

    lambda_k = A_d * int_{-1}^{1} f(t) * (G_k(t) / G_k(1)) * (1 - t^2)^{(d-3)/2} dt

with A_d fixed so the weight is a probability measure (hence lambda_0 is
the mean connectivity).  Integrals are evaluated in the angle variable
t = cos(theta), which turns the weight into sin(theta)^{d-2} and keeps the
integrand smooth away from declared link discontinuities.  One composite
Gauss-Legendre rule, split there, evaluates every level at once and
doubles its panels until the absolute tolerance is met.

Only d >= 3 is supported: the Gegenbauer parameter gamma = (d - 2) / 2
must be positive for the recurrence and the addition constant c_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import QuadratureError, ValidationError
from .links import LinkFunction

DEFAULT_K_MAX = 25

# Composite Gauss-Legendre rule: absolute tolerance per level, panel budget,
# nodes per panel.
QUAD_TOL = 1e-10
QUAD_MAX_PANELS = 2 ** 14
QUAD_NODES = 16


def _require_dim(d: int) -> float:
    if d < 3:
        raise ValidationError(f"sphere machinery needs ambient dimension d >= 3, got {d}")
    return (d - 2) / 2.0


def harmonic_space_dim(d: int, k: int) -> int:
    """Dimension of the degree-k spherical harmonic space on S^{d-1}."""
    _require_dim(d)
    if k < 0:
        raise ValidationError(f"level index must be >= 0, got {k}")
    if k == 0:
        return 1
    second = math.comb(k + d - 3, k - 2) if k >= 2 else 0
    return math.comb(k + d - 1, k) - second


def addition_constant(d: int, k: int) -> Fraction:
    """Constant c_k = (2k + d - 2) / (d - 2) in the addition identity."""
    _require_dim(d)
    if k < 0:
        raise ValidationError(f"level index must be >= 0, got {k}")
    return Fraction(2 * k + d - 2, d - 2)


def _gegenbauer_levels(k_max: int, gamma: float, t):
    """Yield G_0(t) .. G_{k_max}(t) by the three-term recurrence anchored at
    G_0 = 1 and G_1 = 2*gamma*t:
        j * G_j(t) = 2(j + gamma - 1) t G_{j-1}(t) - (j + 2*gamma - 2) G_{j-2}(t).
    """
    prev = np.ones_like(t)
    yield prev
    if k_max < 1:
        return
    cur = 2.0 * gamma * t
    yield cur
    for j in range(2, k_max + 1):
        cur, prev = (2.0 * (j + gamma - 1.0) * t * cur - (j + 2.0 * gamma - 2.0) * prev) / j, cur
        yield cur


def gegenbauer(k: int, gamma: float, t):
    """Gegenbauer polynomial of degree k with parameter gamma > 0.

    Accepts scalar or array t in [-1, 1].
    """
    if gamma <= 0:
        raise ValidationError(f"Gegenbauer parameter must be positive, got {gamma}")
    if k < 0:
        raise ValidationError(f"degree must be >= 0, got {k}")
    arr = np.asarray(t, dtype=float)
    if arr.size and not float(np.abs(arr).max()) <= 1.0 + 1e-12:  # NaN fails too
        raise ValidationError("Gegenbauer argument outside [-1, 1]")
    *_, cur = _gegenbauer_levels(k, gamma, np.clip(arr, -1.0, 1.0))
    return float(cur) if cur.ndim == 0 else cur


def sphere_weight_total(d: int) -> float:
    """int_0^pi sin(theta)^{d-2} d(theta) = sqrt(pi) Gamma((d-1)/2) / Gamma(d/2)."""
    _require_dim(d)
    return math.sqrt(math.pi) * math.gamma((d - 1) / 2.0) / math.gamma(d / 2.0)


def _angle_segments(link: LinkFunction) -> list[tuple[float, float]]:
    cuts = sorted(
        {math.acos(t) for t in link.discontinuities if -1.0 < t < 1.0} | {0.0, math.pi}
    )
    return list(zip(cuts[:-1], cuts[1:]))


def funck_hecke_table(link: LinkFunction, d: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of all levels 0 .. k_max in one pass.

    A composite Gauss-Legendre rule shares its nodes across levels, so the
    Gegenbauer recurrence runs once per node-doubling stage instead of once
    per level; the per-level error estimate is the change under the final
    node doubling.  The rule starts with enough panels per segment to
    resolve a degree-k_max oscillation and doubles them until every level
    changes by at most QUAD_TOL.
    """
    gamma = _require_dim(d)
    if k_max < 0:
        raise ValidationError(f"k_max must be >= 0, got {k_max}")
    segments = _angle_segments(link)
    x, w = np.polynomial.legendre.leggauss(QUAD_NODES)
    power = d - 2
    norm = sphere_weight_total(d)
    at_one = list(_gegenbauer_levels(k_max, gamma, 1.0))  # G_k(1) normalises level k

    def eval_levels(pieces: int) -> np.ndarray:
        vals = np.zeros(k_max + 1)
        for a, b in segments:
            edges = np.linspace(a, b, pieces + 1)
            mids = 0.5 * (edges[:-1] + edges[1:])
            halfs = 0.5 * (edges[1:] - edges[:-1])
            theta = (mids[:, None] + halfs[:, None] * x[None, :]).ravel()
            weights = (halfs[:, None] * w[None, :]).ravel()
            t = np.cos(theta)
            base = link(t) * np.sin(theta) ** power * weights
            for k, g in enumerate(_gegenbauer_levels(k_max, gamma, t)):
                vals[k] += float(base @ g) / at_one[k]
        return vals / norm

    pieces = 1 + (k_max + 2 * QUAD_NODES) // (2 * QUAD_NODES)
    values = eval_levels(pieces)
    while True:
        pieces *= 2
        if pieces * len(segments) > QUAD_MAX_PANELS:
            raise QuadratureError(
                f"level table did not converge within {QUAD_MAX_PANELS} panels",
                best_estimate=float(np.abs(values).max()),
                error_estimate=float("nan"),
            )
        refined = eval_levels(pieces)
        errors = np.abs(refined - values)
        values = refined
        if float(errors.max()) <= QUAD_TOL:
            return values, errors


@dataclass(frozen=True)
class SpectrumLevel:
    k: int
    eigenvalue: float
    multiplicity: int
    quad_err: float


@dataclass(frozen=True)
class AnalyticSpectrum:
    """Eigenvalues of the kernel operator, per harmonic level, up to k_max.

    Levels beyond k_max are represented by the accumulation point 0 in the
    flattened view and in gap computations.
    """

    d: int
    levels: tuple[SpectrumLevel, ...]
    k_max: int

    def eigenvalues(self) -> np.ndarray:
        """Per-level eigenvalues, index k = 0 .. k_max."""
        return np.array([lv.eigenvalue for lv in self.levels])

    def flattened(self) -> np.ndarray:
        """The eigenvalue multiset: level k repeated dim_k times."""
        return np.repeat(
            [lv.eigenvalue for lv in self.levels], [lv.multiplicity for lv in self.levels]
        )


def analytic_spectrum(link: LinkFunction, d: int, k_max: int = DEFAULT_K_MAX) -> AnalyticSpectrum:
    """Compute levels 0 .. k_max of the kernel spectrum by quadrature."""
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    values, errors = funck_hecke_table(link, d, k_max)
    levels = [
        SpectrumLevel(
            k=k,
            eigenvalue=float(values[k]),
            multiplicity=harmonic_space_dim(d, k),
            quad_err=float(errors[k]),
        )
        for k in range(k_max + 1)
    ]
    return AnalyticSpectrum(d=d, levels=tuple(levels), k_max=k_max)


def gap1_analytic(spectrum: AnalyticSpectrum) -> float:
    """Distance from the level-1 eigenvalue to the rest of the spectrum.

    The tail beyond k_max is represented by 0, the spectrum's only
    accumulation point, so the gap is also bounded by |lambda_1|.
    """
    if spectrum.k_max < 2:
        raise ValidationError("gap needs a spectrum computed to k_max >= 2")
    lam1 = spectrum.levels[1].eigenvalue
    others = [lv.eigenvalue for lv in spectrum.levels if lv.k != 1]
    others.append(0.0)
    return float(min(abs(lam1 - x) for x in others))
