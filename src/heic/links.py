"""Link functions: one-dimensional maps f: [-1, 1] -> [0, 1].

A link function turns the inner product of two latent sphere points into a
connection probability, so every link must stay inside [0, 1] over the whole
domain.  Built-in kinds:

* ``threshold(tau)``   -- 1 if t <= tau else 0 (the hard geometric graph),
* ``affine(a, b)``     -- a + b*t, validated to stay in [0, 1],
* ``table(ts, values)``-- piecewise-linear interpolation of sample points,
* ``custom(fn)``       -- arbitrary callable.

LinkFunction.__call__ checks that its arguments lie in [-1, 1], clips a
float64 copy of them there and hands it to the private evaluator
LinkFunction._evaluate, which runs fn and the one range check of the links:
a value that is not finite or leaves [0, 1] by more than 1e-12 raises
``<label> link leaves [0, 1]: range [lo, hi]``.  Every link is probed once,
when it is built, through __call__ at 1024 Chebyshev-spaced points; the
samplers and probability_matrix, which clip the inner products themselves,
call _evaluate directly, one block at a time, so a spike the probe missed is
caught there too.  Declared discontinuities are carried along so quadrature
can split the domain there.

fn may overwrite its argument and return it: __call__ and the samplers
always hand it a buffer they own.  threshold and affine write their values
into it, so Theta in probability_matrix is the inner products' one n x n
array; table and custom links return a new array, a second n x n array
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError, require_real

RANGE_SLACK = 1e-12
_N_PROBE = 1024


@dataclass(frozen=True)
class LinkFunction:
    """A connection-probability profile over inner products in [-1, 1], probed when built."""

    fn: Callable[[np.ndarray], np.ndarray]
    discontinuities: tuple[float, ...] = ()
    label: str = "custom"

    def __post_init__(self):
        j = np.arange(_N_PROBE)
        self(np.cos(np.pi * (2 * j + 1) / (2 * _N_PROBE)))  # the Chebyshev points

    def __call__(self, t):
        """Evaluate at t (scalar or array).

        Values more than 1e-12 outside [0, 1], or not finite, are rejected;
        smaller float dust is clipped.
        """
        arr = np.array(t, dtype=float)  # a copy, 0-d included, for fn to overwrite
        # Written so that NaN, which fails every comparison, fails the check.
        if arr.size and not (arr.min() >= -1.0 - RANGE_SLACK and arr.max() <= 1.0 + RANGE_SLACK):
            raise ValidationError("link argument outside [-1, 1]")
        out = self._evaluate(np.clip(arr, -1.0, 1.0, out=arr))
        return float(out) if out.ndim == 0 else out

    def _evaluate(self, t: np.ndarray) -> np.ndarray:
        """fn at arguments already in [-1, 1], range-checked and clipped to [0, 1].

        t is a float64 buffer the caller owns, and fn may overwrite it and
        return it; threshold and affine do.  The result is fn's own output
        as float64 when it lies in [0, 1], so fn must return a new array or
        its argument: the samplers scale the result in place.  A table or
        custom link's new array is a second n x n array in
        probability_matrix.  When some value lies within the slack outside
        [0, 1], the result is clipped: in place when it is t, else as a
        copy.  A read-only result is copied too.
        """
        out = np.asarray(self.fn(t), dtype=float)
        if out.size:
            lo, hi = out.min(), out.max()
            # Written so that NaN, which fails every comparison, fails the check.
            if not (lo >= -RANGE_SLACK and hi <= 1.0 + RANGE_SLACK):
                raise ValidationError(f"{self.label} link leaves [0, 1]: range [{lo:g}, {hi:g}]")
            if lo < 0.0 or hi > 1.0 or not out.flags.writeable:
                out = np.clip(out, 0.0, 1.0, out=out if out is t else None)
        return out


def _number(value, what: str) -> float:
    try:  # a str comes from the CLI shorthand; require_real's ValidationError is a ValueError too
        number = float(value) if isinstance(value, str) else require_real(value, what)
    except ValueError as exc:
        raise ValidationError(f"{what} must be a number, got {value!r}") from exc
    if math.isnan(number):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    return number


def threshold(tau: float) -> LinkFunction:
    """Hard link: connect exactly when the inner product is <= tau."""
    tau = _number(tau, "threshold tau")

    def fn(t):
        return np.less_equal(t, tau, out=t)

    disc = (tau,) if -1.0 < tau < 1.0 else ()
    return LinkFunction(fn=fn, discontinuities=disc, label=f"threshold({tau:g})")


def affine(a: float, b: float) -> LinkFunction:
    """Linear link a + b*t; endpoints must stay inside [0, 1]."""
    a, b = _number(a, "affine a"), _number(b, "affine b")
    for endpoint in (a - b, a + b):
        if endpoint < -RANGE_SLACK or endpoint > 1.0 + RANGE_SLACK:
            raise ValidationError(f"affine link leaves [0, 1] at the endpoints: {endpoint:g}")

    def fn(t):
        t *= b
        t += a  # rounds as a + b * t does
        return t

    return LinkFunction(fn=fn, label=f"affine({a:g},{b:g})")


def table(ts, values) -> LinkFunction:
    """Piecewise-linear link through the sample points (ts, values)."""
    try:
        ts = np.asarray(ts, dtype=float)
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"table link samples must be numbers ({exc})") from exc
    if ts.ndim != 1 or ts.shape != values.shape or ts.size < 2:
        raise ValidationError("table link needs matching 1-d arrays with >= 2 samples")
    if not np.all(np.diff(ts) > 0):  # NaN fails too
        raise ValidationError("table link abscissae must be strictly increasing")

    def fn(t):
        return np.interp(t, ts, values)

    return LinkFunction(fn=fn, label=f"table[{ts.size}]")


def custom(fn: Callable, label: str = "custom", discontinuities=()) -> LinkFunction:
    """Wrap an arbitrary callable; probed on [-1, 1] before acceptance.

    fn gets a float64 array it may overwrite and return; __call__ and the
    samplers always hand it a buffer they own.  A new array it returns costs
    a second n x n array in probability_matrix.
    """
    return LinkFunction(fn, tuple(float(x) for x in discontinuities), label)


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
