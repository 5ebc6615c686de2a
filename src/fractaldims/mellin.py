"""Truncated Mellin transforms and residues of the factorized zeta functions.

The transform of a sampled function integrates t^(s-1) * f(t) over [a, b]
with f replaced by its piecewise-linear interpolant; each interval is
integrated in closed form, so arbitrarily oscillatory s (large |Im s|)
costs nothing in resolution.  One table of node powers t^s per window
(one log and one complex exp per node) serves every interval: the two
power integrals of an interval are differences of t^s and of
t^(s+1) = t * t^s between its ends, and the error estimate reuses the
same table on every second node.  Below the first sample the fitted leading
power law c * t^p is integrated analytically, which also fixes the
abscissa of convergence: with f = O(t^-sigma_hat) as t -> 0 the a = 0
transform exists for Re(s) > sigma_hat.

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


def _power_integral(ts: np.ndarray, pw: np.ndarray, s: complex) -> np.ndarray:
    """integral of t^(s-1) dt over each [ts[i], ts[i+1]] from the node
    powers pw = ts^s: (pw[i+1] - pw[i]) / s, in a stable expm1 form where
    |s| < 1e-8."""
    if abs(s) < 1e-8:
        u = np.log(ts)
        du = u[1:] - u[:-1]
        z = s * du
        phi = np.where(np.abs(z) < 1e-30, 1.0, np.expm1(z) / np.where(z == 0, 1, z))
        return pw[:-1] * du * phi
    return (pw[1:] - pw[:-1]) / s


def _pl_transform(ts: np.ndarray, vals: np.ndarray, pw: np.ndarray,
                  s: complex) -> complex:
    """Exact transform of the piecewise-linear interpolant on the grid,
    from the node powers pw = ts^s."""
    m = (vals[1:] - vals[:-1]) / (ts[1:] - ts[:-1])
    const = vals[:-1] - m * ts[:-1]
    i_s = _power_integral(ts, pw, s)
    i_s1 = _power_integral(ts, ts * pw, s + 1.0)
    return complex((const * i_s).sum() + (m * i_s1).sum())


def _restrict(f: SampledFunction, a: float, b: float):
    """Sample grid restricted to [a, b] with interpolated endpoints."""
    ts, vals = f.ts, f.vals
    if b > ts[-1] * (1 + 1e-12):
        raise SampleRangeError(f"b={b} beyond sampled range {ts[-1]}")
    lo = np.searchsorted(ts, a, side="right")
    hi = np.searchsorted(ts, b, side="left")
    mid_t = ts[lo:hi]
    mid_v = vals[lo:hi]
    parts_t = [mid_t]
    parts_v = [mid_v]
    if a < (mid_t[0] if len(mid_t) else b):
        parts_t.insert(0, [a])
        parts_v.insert(0, [np.interp(a, ts, vals)])
    if b > (mid_t[-1] if len(mid_t) else a):
        parts_t.append([b])
        parts_v.append([np.interp(b, ts, vals)])
    return np.concatenate(parts_t), np.concatenate(parts_v)


def truncated_mellin(ev: MellinEvaluator, s: complex, a: float,
                     b: float) -> ZetaSample:
    """integral of t^(s-1) f(t) dt over [a, b] from the sampled table.

    The node powers pw = t^s are formed once on the window's grid (the
    samples inside it and its two interpolated ends).  The error estimate
    is the change when the interpolant uses every second node (and the
    last one) instead, evaluated on a slice of the same pw; a window with
    no node inside has nothing to drop, and its estimate is |value|.
    With a = 0 the fitted power tail c t^(-sigma_hat) is integrated in
    closed form below the first sample, which requires Re(s) > sigma_hat.
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
                ends = np.array([a, top])
                tail_val = ev.tail_coef * complex(_power_integral(
                    ends, np.exp((s + p) * np.log(ends)), s + p)[0])
            # interpolation-vs-power disagreement at the first node
            tail_err = abs(ev.tail_coef * t0 ** p - ev.f.vals[0]) \
                * abs(top ** (s.real + p)) / max(s.real + p, 1e-3)
        else:
            fmax = float(np.max(np.abs(ev.f.vals[ts <= 10 * t0])))
            tail_err = fmax * top ** s.real / max(s.real, 1e-3)
        a = top
    if a >= b:
        return ZetaSample(s=s, value=complex(tail_val), quad_error=tail_err)
    grid_t, grid_v = _restrict(ev.f, a, b)
    n = len(grid_t)
    if n < 2:
        return ZetaSample(s=s, value=complex(tail_val), quad_error=tail_err)
    pw = np.exp(s * np.log(grid_t))
    full = _pl_transform(grid_t, grid_v, pw, s)
    if n < 3:
        # no node to drop: the estimate is the whole value
        err = abs(full)
    else:
        # every second node, keeping the last
        half = np.arange(0, n + 1, 2)
        half[-1] = min(half[-1], n - 1)
        err = abs(full - _pl_transform(grid_t[half], grid_v[half], pw[half],
                                       s))
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
