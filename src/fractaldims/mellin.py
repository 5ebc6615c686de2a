"""Truncated Mellin transforms and residues of the factorized zeta functions.

The transform of a sampled function integrates t^(s-1) * f(t) over [a, b]
with f replaced by its piecewise-linear interpolant; each interval is
integrated in closed form, so arbitrarily oscillatory s (large |Im s|)
costs nothing in resolution.  Below the first sample the fitted leading
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

from .errors import DivergenceDomainError, FitError, SampleRangeError
from .sampled import SampledFunction, leading_power_fit
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
        try:
            p, c = leading_power_fit(f.ts, f.vals)
            return cls(f=f, sigma_hat=-p, tail_coef=c, tail_ok=True)
        except FitError:
            return cls(f=f, sigma_hat=0.0, tail_coef=0.0, tail_ok=False)


def _power_integral(t1: np.ndarray, t2: np.ndarray, s: complex) -> np.ndarray:
    """integral of t^(s-1) dt over [t1, t2] = (t2^s - t1^s)/s, stable near s=0."""
    u1 = np.log(t1)
    du = np.log(t2) - u1
    if abs(s) < 1e-8:
        z = s * du
        phi = np.where(np.abs(z) < 1e-30, 1.0, np.expm1(z) / np.where(z == 0, 1, z))
        return np.exp(s * u1) * du * phi
    return (np.exp(s * np.log(t2)) - np.exp(s * u1)) / s


def _pl_transform(ts: np.ndarray, vals: np.ndarray, s: complex) -> complex:
    """Exact transform of the piecewise-linear interpolant on the grid."""
    t1, t2 = ts[:-1], ts[1:]
    f1, f2 = vals[:-1], vals[1:]
    m = (f2 - f1) / (t2 - t1)
    const = f1 - m * t1
    i_s = _power_integral(t1, t2, s)
    i_s1 = _power_integral(t1, t2, s + 1.0)
    return complex(np.sum(const * i_s) + np.sum(m * i_s1))


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

    With a = 0 the fitted power tail c t^(-sigma_hat) is integrated in
    closed form below the first sample, which requires Re(s) > sigma_hat.
    The error estimate comes from
    re-evaluating on every second sample (grid-halving Richardson).
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
                tail_val = ev.tail_coef * complex(
                    _power_integral(np.array([a]), np.array([top]), s + p)[0])
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
    if len(grid_t) < 2:
        return ZetaSample(s=s, value=complex(tail_val), quad_error=tail_err)
    full = _pl_transform(grid_t, grid_v, s)
    coarse_idx = np.unique(np.r_[np.arange(0, len(grid_t), 2),
                                 len(grid_t) - 1])
    coarse = _pl_transform(grid_t[coarse_idx], grid_v[coarse_idx], s)
    return ZetaSample(s=s, value=complex(full + tail_val),
                      quad_error=abs(full - coarse) + tail_err)


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
                     remainder: SampledFunction | None, omega: complex,
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
    if remainder is not None:
        h += truncated_mellin(MellinEvaluator.build(remainder), s, 0.0,
                              delta).value
    return complex(h * rho)
