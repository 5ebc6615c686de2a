"""Truncated Mellin transforms and residues of the factorized zeta functions.

The transform of a sampled function integrates t^(s-1) * f(t) over [a, b]
with f replaced by its piecewise-linear interpolant; each interval is
integrated in closed form, so arbitrarily oscillatory s (large |Im s|)
costs nothing in resolution.  What does not depend on s is formed once
per sampled function and window and kept with the function
(``SampledFunction.mellin_windows``): the window's nodes (the samples
inside it and its two interpolated ends), their logs, and the slope and
intercept of each interval of the interpolant on all the nodes and on
every second node (and the last one), for the error estimate
(``_Window``).  Each s then costs one complex exp per node for the
powers t^s, from which the two power integrals of an interval are
differences of t^s and of t^(s+1) = t * t^s between its ends, and the
sums; the coarse interpolant reads a slice of the same powers.  A
residue evaluates its transforms on the same windows at every pole.
Below the first sample the fitted leading power law c * t^p is
integrated analytically, which also fixes the abscissa of convergence:
with f = O(t^-sigma_hat) as t -> 0 the a = 0 transform exists for
Re(s) > sigma_hat.

For a function satisfying a scaling functional equation
f = sum_k a_k f(t / lambda_k^alpha) + R on (0, delta], the transform
factorizes as  zeta_f(s; delta) = zeta(alpha s) (xi(s; delta) +
zeta_R(s; delta))  where zeta = 1/P is the scaling zeta function of the
ratios and xi is an entire correction built from doubly-truncated
transforms (``partial_xi``).  That right side is the only analytic
continuation used anywhere: the package never quadratures a divergent
integral.  ``sfe_zeta_residue`` reads the residue at a simple pole off
it.  The tube and heat zeta functions are the transforms of
t^(-beta/alpha) F(t) over (0, delta]; ``cli.cmd_explicit`` forms that
normalization of the tube volume or heat content F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDomainError, SampleRangeError
from .sampled import SampledFunction
from .zeta import DirichletPoly, RatioMultiset, residue_simple


@dataclass(frozen=True)
class ZetaSample:
    s: complex
    value: complex
    quad_error: float

    def __post_init__(self):
        if self.quad_error < 0:
            raise ValueError("quad_error must be nonnegative")


@dataclass(frozen=True)
class MellinEvaluator:
    """Transform evaluator for one sampled function on (0, f.ts[-1]].

    ``sigma_hat`` is the fitted divergence abscissa: f(t) = O(t^-sigma_hat)
    as t -> 0, i.e. minus the fitted leading power.  ``tail_coef`` is the
    coefficient of the power-law tail c * t^(-sigma_hat); when no clean
    power law exists near zero the tail is disabled and its magnitude is
    folded into the error estimate instead.
    """

    f: SampledFunction
    sigma_hat: float
    tail_coef: float
    tail_ok: bool

    @classmethod
    def build(cls, f: SampledFunction) -> "MellinEvaluator":
        """The evaluator of ``f``, from its leading power, which ``f``
        fits once however many evaluators are built on it."""
        if f.leading_power is None:
            return cls(f=f, sigma_hat=0.0, tail_coef=0.0, tail_ok=False)
        p, c = f.leading_power
        return cls(f=f, sigma_hat=-p, tail_coef=c, tail_ok=True)


def _power_integral(log_t: np.ndarray, pw: np.ndarray,
                    s: complex) -> np.ndarray:
    """integral of t^(s-1) dt over each interval of the nodes t =
    exp(log_t), from their powers pw = t^s: (pw[i+1] - pw[i]) / s, in a
    stable expm1 form where |s| < 1e-8."""
    if abs(s) < 1e-8:
        du = log_t[1:] - log_t[:-1]
        z = s * du
        phi = np.where(np.abs(z) < 1e-30, 1.0, np.expm1(z) / np.where(z == 0, 1, z))
        return pw[:-1] * du * phi
    return (pw[1:] - pw[:-1]) / s


@dataclass(frozen=True)
class _Nodes:
    """The piecewise-linear interpolant on one node set, as far as it
    does not depend on s: log t and each interval's slope and intercept."""

    t: np.ndarray
    log_t: np.ndarray
    slope: np.ndarray
    intercept: np.ndarray

    @classmethod
    def of(cls, t: np.ndarray, v: np.ndarray, log_t: np.ndarray) -> "_Nodes":
        slope = (v[1:] - v[:-1]) / (t[1:] - t[:-1])
        return cls(t, log_t, slope, v[:-1] - slope * t[:-1])

    def transform(self, pw: np.ndarray, tpw: np.ndarray,
                  s: complex) -> complex:
        """Exact transform of the interpolant from the node powers
        pw = t^s and tpw = t^(s+1)."""
        return complex(
            (self.intercept * _power_integral(self.log_t, pw, s)).sum()
            + (self.slope * _power_integral(self.log_t, tpw, s + 1.0)).sum())


@dataclass(frozen=True)
class _Window:
    """The s-independent table of one window [a, b] on a sampled function.

    ``full`` holds the samples inside (a, b) and the two interpolated
    ends; ``coarse`` the same on every second node and the last one,
    picked from ``full`` by ``every_second``, or None when no node lies
    inside and there is nothing to drop.
    """

    full: _Nodes
    every_second: np.ndarray | None
    coarse: _Nodes | None

    @classmethod
    def build(cls, f: SampledFunction, a: float, b: float) -> "_Window":
        ts, vals = f.ts, f.vals
        if b > ts[-1] * (1 + 1e-12):
            raise SampleRangeError(f"b={b} beyond sampled range {ts[-1]}")
        inside = slice(np.searchsorted(ts, a, side="right"),
                       np.searchsorted(ts, b, side="left"))
        t = np.concatenate(([a], ts[inside], [b]))
        v = np.concatenate(([np.interp(a, ts, vals)], vals[inside],
                            [np.interp(b, ts, vals)]))
        log_t = np.log(t)
        n = len(t)
        if n < 3:
            return cls(_Nodes.of(t, v, log_t), None, None)
        half = np.arange(0, n + 1, 2)
        half[-1] = min(half[-1], n - 1)
        return cls(_Nodes.of(t, v, log_t), half,
                   _Nodes.of(t[half], v[half], log_t[half]))


def _window(f: SampledFunction, a: float, b: float) -> _Window:
    """f's table of [a, b], built on the first transform over it."""
    tables = f.mellin_windows
    if (a, b) not in tables:
        tables[a, b] = _Window.build(f, a, b)
    return tables[a, b]


def truncated_mellin(ev: MellinEvaluator, s: complex, a: float,
                     b: float) -> ZetaSample:
    """integral of t^(s-1) f(t) dt over [a, b] from the sampled table.

    The window's table (``_Window``) is formed once per sampled function
    and window; each s then costs the node powers pw = t^s, one complex
    exp per node, and the sums.  The error estimate is the change when
    the interpolant uses every second node (and the last one) instead,
    on a slice of the same pw; a window with no node inside has nothing
    to drop, and its estimate is |value|.  With a = 0 the fitted power
    tail c t^(-sigma_hat) is integrated in closed form below the first
    sample, which requires Re(s) > sigma_hat.
    """
    s = complex(s)
    if a < 0 or b <= a:
        raise ValueError("need 0 <= a < b")
    ts = ev.f.ts
    t0 = float(ts[0])
    tail_val = 0.0 + 0.0j
    tail_err = 0.0
    if a < t0:
        if s.real <= ev.sigma_hat:
            raise DivergenceDomainError(
                f"Re(s)={s.real} not above the abscissa {ev.sigma_hat}")
        p = -ev.sigma_hat
        top = min(b, t0)
        if ev.tail_ok:
            if a == 0.0:
                tail_val = ev.tail_coef * top ** (s + p) / (s + p)
            else:
                log_ends = np.log(np.array([a, top]))
                tail_val = ev.tail_coef * complex(_power_integral(
                    log_ends, np.exp((s + p) * log_ends), s + p)[0])
            # interpolation-vs-power disagreement at the first node
            tail_err = abs(ev.tail_coef * t0 ** p - ev.f.vals[0]) \
                * abs(top ** (s.real + p)) / max(s.real + p, 1e-3)
        else:
            fmax = float(np.max(np.abs(ev.f.vals[ts <= 10 * t0])))
            tail_err = fmax * top ** s.real / max(s.real, 1e-3)
        a = top
    if a >= b:
        return ZetaSample(s=s, value=complex(tail_val), quad_error=tail_err)
    window = _window(ev.f, a, b)
    nodes = window.full
    pw = np.exp(s * nodes.log_t)
    tpw = nodes.t * pw
    full = nodes.transform(pw, tpw, s)
    if window.coarse is None:
        err = abs(full)
    else:
        half = window.every_second
        err = abs(full - window.coarse.transform(pw[half], tpw[half], s))
    return ZetaSample(s=s, value=complex(full + tail_val),
                      quad_error=err + tail_err)


def partial_xi(ratios: RatioMultiset, f: SampledFunction, s: complex,
               delta: float, alpha: float = 1.0) -> ZetaSample:
    """Entire correction xi(s) = sum a_k lam_k^(alpha s) M_delta^{delta/lam_k^alpha}[f](s)."""
    ev = MellinEvaluator.build(f)
    lam = ratios.ratios
    mult = ratios.multiplicities
    need = delta / np.min(lam) ** alpha
    if need > f.ts[-1] * (1 + 1e-12):
        raise SampleRangeError(
            f"xi needs samples up to {need}, have {f.ts[-1]}")
    total = 0.0 + 0.0j
    err = 0.0
    for lk, mk in zip(lam, mult):
        piece = truncated_mellin(ev, s, delta, delta / lk ** alpha)
        w = mk * lk ** (alpha * complex(s))
        total += w * piece.value
        err += abs(w) * piece.quad_error
    return ZetaSample(s=complex(s), value=total, quad_error=err)


def sfe_zeta_residue(ratios: RatioMultiset, f: SampledFunction,
                     remainder: SampledFunction, omega: complex,
                     delta: float, alpha: float = 1.0) -> complex:
    """Residue of s -> zeta_f(s/alpha; delta) at a simple pole omega of 1/P.

    By the factorization zeta_f(s/alpha) = zeta(s) h(s/alpha) with
    h = xi + zeta_R holomorphic near omega, the residue at a simple zero
    of P is h(omega/alpha) / P'(omega) (Lapidus & van Frankenhuijsen,
    *Fractal Geometry, Complex Dimensions and Zeta Functions*, 2nd ed.,
    ch. 5): one evaluation of h, never a quadrature of a divergent
    integral.  Raises MultiplePoleError when omega fails residue_simple's
    simple-zero test (also at a multiple zero located only to ~1e-8); a
    multiple pole needs residue_contour on the same factorization.
    """
    rho = residue_simple(DirichletPoly(ratios), omega)
    s = complex(omega) / alpha
    h = partial_xi(ratios, f, s, delta, alpha).value
    h += truncated_mellin(MellinEvaluator.build(remainder), s, 0.0,
                          delta).value
    return complex(h * rho)
