"""Monotone-grid sampled functions shared by the tube, heat, and Mellin code.

A SampledFunction is a table (t_i, f(t_i)) on a strictly increasing
positive grid, usually geometric (log-uniform).  Provenance travels in
``meta`` (grid size, construction level, hashes) so downstream reports can
declare error budgets.

``sfe_images`` and ``sfe_split`` implement the scaling functional
equation F(t) = sum_k a_k lambda_k^2 F(t / lambda_k^alpha) + R(t) over
(ratio lambda_k, multiplicity a_k) pairs: alpha = 1 for tube volumes,
alpha = 2 for heat content (Lapidus & van Frankenhuijsen, 2nd ed., ch. 5).
``sfe_split`` is the one place R is formed, from one sampling of F.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FitError, ResolutionError

#: default geometric sampling density
POINTS_PER_DECADE = 48
FIT_DECADE = 10.0  #: leading_power_fit's span of samples above ts[0]
#: fewest samples in a fit window (``fit_window``)
FIT_MIN_SAMPLES = 8


@dataclass(frozen=True)
class ResolutionFloor:
    """A grid's least resolved time ``at(h)``, spelled ``name`` in refusals."""

    name: str
    at: Callable[[float], float]

    def check(self, run: str, knob: str, ts, h: float) -> None:
        """Refuse ``knob``, the time or times ts of ``run``, below it."""
        t, floor = float(np.min(ts, initial=np.inf)), self.at(h)
        if t < floor:
            raise ResolutionError(
                f"{run} needs {knob} >= {self.name}, where the grid "
                f"resolves it; {knob}={t:g} with h={h:g} is below "
                f"{floor:.6g}: raise t_min or lower h")


def csv_bytes(header, rows) -> bytes:
    """RFC 4180 CSV with CRLF line ends; floats carry 17 digits."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(header)
    for row in rows:
        w.writerow([f"{float(v):.17g}" if isinstance(v, float) else v
                    for v in row])
    return buf.getvalue().encode()


def fit_window(run: str, ts, window) -> np.ndarray:
    """Mask of the times ts inside the closed window of a fit; fewer than
    FIT_MIN_SAMPLES there are refused, naming ``run``."""
    ts = np.asarray(ts, dtype=float)
    inside = (ts >= window[0]) & (ts <= window[1])
    count = int(np.count_nonzero(inside))
    if count < FIT_MIN_SAMPLES:
        raise ValueError(
            f"{run} needs at least {FIT_MIN_SAMPLES} times in its fit window "
            f"[{window[0]:g}, {window[1]:g}]; the times from {ts[0]:g} to "
            f"{ts[-1]:g} put {count} there: widen the window or raise "
            f"points_per_decade")
    return inside


def geometric_grid(t_min: float, t_max: float,
                   per_decade: int = POINTS_PER_DECADE) -> np.ndarray:
    """Log-uniform grid; all downstream fits and transforms are log-native."""
    if not t_min > 0:
        raise ValueError(f"t_min must be > 0; got {t_min}")
    if not t_min < t_max:
        raise ValueError(f"t_min must be < t_max; got t_min={t_min:g}, "
                         f"t_max={t_max:g}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1; got {per_decade}")
    n = max(2, int(np.ceil(np.log10(t_max / t_min) * per_decade)) + 1)
    return np.geomspace(t_min, t_max, n)


@dataclass(frozen=True)
class SampledFunction:
    ts: np.ndarray = field(repr=False)
    vals: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        vals = np.asarray(self.vals, dtype=float)
        if ts.ndim != 1 or ts.shape != vals.shape or ts.size == 0:
            raise ValueError("ts and vals must be non-empty 1-d arrays of "
                             "equal length")
        if ts[0] <= 0 or np.any(np.diff(ts) <= 0):
            raise ValueError("ts must be strictly increasing and positive")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "vals", vals)

    def __call__(self, t):
        """Linear interpolation inside the sampled range."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.ts[0] * (1 - 1e-12)) or \
           np.any(t > self.ts[-1] * (1 + 1e-12)):
            raise ValueError("evaluation outside sampled range")
        return np.interp(t, self.ts, self.vals)

    @cached_property
    def leading_power(self) -> tuple[float, float] | None:
        """``leading_power_fit`` of the samples, fitted once per function;
        None where the fit raises FitError."""
        try:
            return leading_power_fit(self.ts, self.vals)
        except FitError:
            return None

    @cached_property
    def mellin_windows(self) -> dict:
        """``mellin``'s s-independent table of each transform window,
        keyed by (a, b) and built on first use, so that the transforms
        at every pole share it."""
        return {}

    def transform_vals(self, fn):
        return SampledFunction(self.ts, fn(self.ts, self.vals),
                               meta=dict(self.meta))

    def to_csv(self) -> bytes:
        return csv_bytes(["t", "value"], zip(self.ts, self.vals))

    def meta_json(self) -> str:
        return json.dumps(self.meta, sort_keys=True, default=float)


def sfe_images(F, pairs, alpha: float, ts) -> np.ndarray:
    """sum_k a_k lambda_k^2 F(ts / lambda_k^alpha) for any callable F."""
    ts = np.asarray(ts, dtype=float)
    return sum(a * lam ** 2 * F(ts / lam ** alpha) for lam, a in pairs)


def sfe_split(sample: Callable[[np.ndarray], SampledFunction], pairs,
              alpha: float, ts) -> tuple[SampledFunction, np.ndarray]:
    """(F, R(ts)): F = sample(grid) on ts and every image time
    ts / lambda^alpha, sorted and without repeats, and R = F -
    sfe_images(F), which reads F at its samples only, never interpolated."""
    ts = np.asarray(ts, dtype=float)
    F = sample(np.unique(np.concatenate(
        [ts] + [ts / lam ** alpha for lam, _ in pairs])))
    return F, F(ts) - sfe_images(F, pairs, alpha, ts)


def leading_power_fit(ts: np.ndarray, vals: np.ndarray) -> tuple[float, float]:
    """Fit f ~ c * t^p near t -> 0 on the lowest decade of samples.

    Uses a median-of-slopes regression on the log-log pairs, which is
    robust to a few noisy points.  Returns (p, c).  Raises FitError when
    the low-t data changes sign or vanishes, or when two of its nodes
    have the same logarithm, which leaves no slope between them.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    sel = ts <= ts[0] * FIT_DECADE
    if sel.sum() < 3:
        sel = np.zeros_like(ts, dtype=bool)
        sel[:3] = True
    t0, v0 = ts[sel], vals[sel]
    if np.all(v0 > 0):
        sign = 1.0
    elif np.all(v0 < 0):
        sign = -1.0
    else:
        raise FitError("sign change near t=0; no power law to fit")
    lt, lv = np.log(t0), np.log(sign * v0)
    same = np.flatnonzero(np.diff(lt) == 0)
    if len(same):
        pairs = ", ".join(f"{float(t0[i])!r} and {float(t0[i + 1])!r}"
                          for i in same)
        raise FitError(f"nodes {pairs} have the same logarithm; no slope "
                       "between them")
    slopes = np.diff(lv) / np.diff(lt)
    p = float(np.median(slopes))
    c = sign * float(np.exp(np.median(lv - p * lt)))
    return p, c


def antiderivative(samples: SampledFunction, k: int = 1) -> SampledFunction:
    """k-fold cumulative trapezoid antiderivative, 0 at ts[0] at each stage.

    It is F^[k] from 0 less sum_{j=1..k} F^[j](ts[0]) (t - ts[0])^(k-j) /
    (k-j)!, a polynomial that ``explicit.fit_start_polynomial`` removes.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return samples
    ts, vals = samples.ts, samples.vals
    for _ in range(k):
        increments = 0.5 * (vals[1:] + vals[:-1]) * np.diff(ts)
        vals = np.concatenate(([0.0], np.cumsum(increments)))
    return SampledFunction(ts, vals, meta=dict(samples.meta))
