"""Link functions: one-dimensional maps f: [-1, 1] -> [0, 1].

A link function turns the inner product of two latent sphere points into a
connection probability, so every link must stay inside [0, 1] over the whole
domain.  Built-in kinds:

* ``threshold(tau)``   -- 1 if t <= tau else 0 (the hard geometric graph),
* ``affine(a, b)``     -- a + b*t, validated to stay in [0, 1],
* ``table(ts, values)``-- piecewise-linear interpolation of sample points,
* ``custom(fn)``       -- arbitrary callable, validated by probing.

Custom and table links are probed at 1024 Chebyshev-spaced points and
rejected if any value leaves [0, 1] by more than 1e-12.  Declared
discontinuities are carried along so quadrature can split the domain there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

RANGE_SLACK = 1e-12
_N_PROBE = 1024


@dataclass(frozen=True)
class LinkFunction:
    """A connection-probability profile over inner products in [-1, 1]."""

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    discontinuities: tuple[float, ...] = ()
    label: str = ""

    def __call__(self, t):
        """Evaluate at t (scalar or array).

        Values more than 1e-12 outside [0, 1] are rejected; smaller float
        dust is clipped.
        """
        arr = np.asarray(t, dtype=float)
        # Written so that NaN, which fails every comparison, fails the check.
        if arr.size and not (arr.min() >= -1.0 - RANGE_SLACK and arr.max() <= 1.0 + RANGE_SLACK):
            raise ValidationError("link argument outside [-1, 1]")
        out = np.asarray(self.fn(np.clip(arr, -1.0, 1.0)), dtype=float)
        if not np.all(np.isfinite(out)):
            raise ValidationError(f"{self.describe()} produced non-finite values")
        if out.size and (out.min() < -RANGE_SLACK or out.max() > 1.0 + RANGE_SLACK):
            raise ValidationError(f"{self.describe()} produced values outside [0, 1]")
        out = np.clip(out, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def describe(self) -> str:
        return self.label or self.kind


def _chebyshev_points(n: int) -> np.ndarray:
    j = np.arange(n)
    return np.cos(np.pi * (2 * j + 1) / (2 * n))


def _probe_range(fn, what: str) -> None:
    vals = np.asarray(fn(_chebyshev_points(_N_PROBE)), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValidationError(f"{what} link produced non-finite values")
    if vals.min() < -RANGE_SLACK or vals.max() > 1.0 + RANGE_SLACK:
        raise ValidationError(
            f"{what} link leaves [0, 1]: range [{vals.min():g}, {vals.max():g}]"
        )


def _number(value, what: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a number, got {value!r}") from exc
    if math.isnan(number):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return number


def threshold(tau: float) -> LinkFunction:
    """Hard link: connect exactly when the inner product is <= tau."""
    tau = _number(tau, "threshold tau")

    def fn(t):
        return (t <= tau).astype(float)

    disc = (tau,) if -1.0 < tau < 1.0 else ()
    return LinkFunction(kind="threshold", fn=fn, discontinuities=disc, label=f"threshold({tau:g})")


def affine(a: float, b: float) -> LinkFunction:
    """Linear link a + b*t; endpoints must stay inside [0, 1]."""
    a, b = _number(a, "affine a"), _number(b, "affine b")
    for endpoint in (a - b, a + b):
        if endpoint < -RANGE_SLACK or endpoint > 1.0 + RANGE_SLACK:
            raise ValidationError(f"affine link leaves [0, 1] at the endpoints: {endpoint:g}")

    def fn(t):
        return a + b * t

    return LinkFunction(kind="affine", fn=fn, label=f"affine({a:g},{b:g})")


def table(ts, values) -> LinkFunction:
    """Piecewise-linear link through the sample points (ts, values)."""
    try:
        ts = np.asarray(ts, dtype=float)
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"table link samples must be numbers ({exc})") from exc
    if ts.ndim != 1 or ts.shape != values.shape or ts.size < 2:
        raise ValidationError("table link needs matching 1-d arrays with >= 2 samples")
    if np.any(np.diff(ts) <= 0):
        raise ValidationError("table link abscissae must be strictly increasing")

    def fn(t):
        return np.interp(t, ts, values)

    _probe_range(fn, "table")
    return LinkFunction(kind="table", fn=fn, label=f"table[{ts.size}]")


def custom(fn: Callable, label: str = "custom", discontinuities=()) -> LinkFunction:
    """Wrap an arbitrary callable; probed on [-1, 1] before acceptance."""

    def vec(t):
        return np.asarray(fn(t), dtype=float)

    _probe_range(vec, label)
    return LinkFunction(
        kind="custom", fn=vec, discontinuities=tuple(float(x) for x in discontinuities),
        label=label,
    )


# The keys a dict link spec may hold, per kind.
_SPEC_KEYS = {
    "threshold": {"kind", "tau"},
    "affine": {"kind", "a", "b"},
    "table": {"kind", "t", "values"},
}


def link_from_spec(spec) -> LinkFunction:
    """Build a link from a JSON-style dict or a CLI shorthand string.

    Dict form:   {"kind": "threshold", "tau": 0.0}
                 {"kind": "affine", "a": 0.5, "b": 0.5}
                 {"kind": "table", "t": [...], "values": [...]}
    String form: "threshold:0.0" or "affine:0.5,0.5".
    """
    if isinstance(spec, LinkFunction):
        return spec
    if isinstance(spec, str):
        name, _, rest = spec.partition(":")
        name = name.strip().lower()
        if name == "threshold":
            return threshold(rest if rest else 0.0)
        if name == "affine":
            parts = [p for p in rest.split(",") if p.strip()]
            if len(parts) != 2:
                raise ValidationError("affine shorthand is affine:a,b")
            return affine(*parts)
        raise ValidationError(f"unknown link shorthand {spec!r}")
    if isinstance(spec, dict):
        kind = str(spec.get("kind", "")).lower()
        if kind not in _SPEC_KEYS:
            raise ValidationError(f"unknown link kind {kind!r}")
        unknown = sorted(set(spec) - _SPEC_KEYS[kind])
        if unknown:
            raise ValidationError(f"{kind} link has unknown keys {unknown}")
        if kind == "threshold":
            return threshold(spec.get("tau", 0.0))
        if kind == "affine":
            return affine(spec.get("a"), spec.get("b"))
        return table(spec.get("t"), spec.get("values"))
    raise ValidationError(f"cannot interpret link spec {spec!r}")
