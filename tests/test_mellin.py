from dataclasses import dataclass

import numpy as np
import pytest

from fractaldims.errors import (DivergenceDomainError, MultiplePoleError,
                                SampleRangeError)
from fractaldims import mellin
from fractaldims.mellin import (MellinEvaluator, partial_xi, sfe_zeta_residue,
                                truncated_mellin)
from fractaldims.sampled import SampledFunction, geometric_grid
from fractaldims.zeta import (DirichletPoly, RatioMultiset, detect_lattice,
                              lattice_poles, residue_contour,
                              similarity_dimension, zeta_eval)


def monomial(k, t_max=2.0, per_decade=4000, t_min_factor=1e-7):
    ts = geometric_grid(t_min_factor * t_max, t_max, per_decade)
    return MellinEvaluator.build(SampledFunction(ts, ts ** k))


def test_monomial_transform():
    beta = 2.0
    for k in (0, 1, 2):
        ev = monomial(k, beta, per_decade=16000)
        for s in (0.5 - k + 0.75, 1.0, 2.5, 1.2 + 30j, 0.7 - 55j):
            s = complex(s)
            if s.real + k < 0.5:
                continue
            got = truncated_mellin(ev, s, 0.0, beta)
            exact = beta ** (s + k) / (s + k)
            assert abs(got.value - exact) / abs(exact) < 1e-8


def test_trivial_unit_interval_integrals():
    ts = geometric_grid(1e-6, 2.5, 2000)
    ev1 = MellinEvaluator.build(SampledFunction(ts, np.ones_like(ts)))
    assert truncated_mellin(ev1, 1.0, 1.0, 2.0).value == \
        pytest.approx(1.0, abs=1e-12)
    evt = MellinEvaluator.build(SampledFunction(ts, ts))
    assert truncated_mellin(evt, 1.0, 0.0, 1.0).value == \
        pytest.approx(0.5, abs=1e-12)


def test_divergence_domain_error():
    ev = monomial(0)  # f = 1, sigma_hat = 0
    with pytest.raises(DivergenceDomainError):
        truncated_mellin(ev, -0.5, 0.0, 1.0)


def test_range_error():
    ev = monomial(1, t_max=1.0)
    with pytest.raises(SampleRangeError):
        truncated_mellin(ev, 1.0, 0.0, 3.0)


def test_linearity():
    ts = geometric_grid(1e-6, 1.0, 1000)
    f = SampledFunction(ts, ts)
    g = SampledFunction(ts, ts ** 2)
    comb = SampledFunction(ts, 2.5 * f.vals + 1.5 * g.vals)
    s = 1.7 + 3j
    vf = truncated_mellin(MellinEvaluator.build(f), s, 0.0, 1.0).value
    vg = truncated_mellin(MellinEvaluator.build(g), s, 0.0, 1.0).value
    vc = truncated_mellin(MellinEvaluator.build(comb), s, 0.0, 1.0).value
    assert abs(vc - (2.5 * vf + 1.5 * vg)) < 1e-12 * max(1.0, abs(vc))


def test_quadrature_convergence_refinement():
    beta = 1.0
    coarse = monomial(2, beta, per_decade=500)
    fine = monomial(2, beta, per_decade=1000)
    s = 1.3 + 4j
    exact = beta ** (s + 2) / (s + 2)
    e_coarse = truncated_mellin(coarse, s, 0.0, beta)
    e_fine = truncated_mellin(fine, s, 0.0, beta)
    assert abs(e_fine.value - exact) < abs(e_coarse.value - exact)
    assert abs(e_coarse.value - exact) <= 3 * e_coarse.quad_error
    assert abs(e_fine.value - exact) <= 3 * e_fine.quad_error


def test_window_between_two_nodes_reports_its_value_as_error():
    # [a, b] between two nodes of an 8-per-decade grid: the restricted
    # grid is (a, b), so no every-second-node grid can differ from it
    ev = monomial(2, per_decade=8)
    ts = ev.f.ts
    k = np.searchsorted(ts, 2e-3)
    s = 0.5 + 3j
    a, b = ts[k] * 1.02, ts[k + 1] * 0.98
    exact = (b ** (s + 2) - a ** (s + 2)) / (s + 2)
    got = truncated_mellin(ev, s, a, b)
    assert got.quad_error == abs(got.value)
    assert abs(got.value - exact) <= 3 * got.quad_error
    # with one node inside, the halved grid is the two ends
    got = truncated_mellin(ev, s, ts[k] * 0.98, b)
    assert 0 < got.quad_error < abs(got.value)


def _interval_powers(t1, t2, s):
    """integral of t^(s-1) over each [t1, t2], stable near s = 0."""
    u1 = np.log(t1)
    du = np.log(t2) - u1
    if abs(s) < 1e-8:
        z = s * du
        phi = np.where(np.abs(z) < 1e-30, 1.0,
                       np.expm1(z) / np.where(z == 0, 1, z))
        return np.exp(s * u1) * du * phi
    return (np.exp(s * np.log(t2)) - np.exp(s * u1)) / s


def _interval_transform(ts, vals, s):
    """Oracle: the piecewise-linear transform, each interval's two power
    integrals formed from its own ends."""
    t1, t2 = ts[:-1], ts[1:]
    f1, f2 = vals[:-1], vals[1:]
    m = (f2 - f1) / (t2 - t1)
    const = f1 - m * t1
    return complex(np.sum(const * _interval_powers(t1, t2, s))
                   + np.sum(m * _interval_powers(t1, t2, s + 1.0)))


@pytest.mark.parametrize("s", [0.5 + 3j, 1e-9, -1 + 1e-9, 0.7 + 200j])
def test_power_table_matches_interval_oracle(s):
    ts = geometric_grid(1e-6, 1.0, 40)
    vals = np.sqrt(ts) * (1.5 + np.sin(3 * np.log(ts)))
    ev = MellinEvaluator.build(SampledFunction(ts, vals))
    for a, b in ((3.3e-6, 0.71), (1.17e-3, 2.9e-3), (0.2, 0.23),
                 (ts[5], ts[60]), (ts[5] * 1.01, ts[60])):
        inside = (ts > a) & (ts < b)
        grid = np.r_[a, ts[inside], b]
        gv = np.interp(grid, ts, vals)
        full = _interval_transform(grid, gv, s)
        half = np.unique(np.r_[np.arange(0, len(grid), 2), len(grid) - 1])
        est = (abs(full - _interval_transform(grid[half], gv[half], s))
               if len(grid) > 2 else abs(full))
        got = truncated_mellin(ev, s, a, b)
        assert abs(got.value - full) <= 1e-13 * abs(full)
        assert abs(got.quad_error - est) <= 1e-13 * max(est, abs(full))


# ---------------------------------------------- scaling identity oracle


def scale_samples(f: SampledFunction, lam: float) -> SampledFunction:
    """Samples of f(lam * t): exact regridding of the table onto ts/lam."""
    return SampledFunction(f.ts / lam, f.vals)


@dataclass(frozen=True)
class MellinScalingReport:
    rel_dev: float
    passed: bool


def verify_mellin_scaling(ev: MellinEvaluator, lam: float, s: complex,
                          beta: float) -> MellinScalingReport:
    """Check the transform of f(lam t) on [0, beta] against
    lam^-s (M^beta[f](s) + M_beta^{lam beta}[f](s)).

    The left side is evaluated directly on a resampled table for
    f(lam t); the right side combines transforms of f itself.  Deviation
    within 10x the quadrature error estimate passes.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    scaled = MellinEvaluator.build(scale_samples(ev.f, lam))
    lhs = truncated_mellin(scaled, s, 0.0, beta)
    r1 = truncated_mellin(ev, s, 0.0, beta)
    if lam == 1.0:
        r2_value, r2_err = 0.0 + 0.0j, 0.0
    elif lam > 1.0:
        r2 = truncated_mellin(ev, s, beta, lam * beta)
        r2_value, r2_err = r2.value, r2.quad_error
    else:
        r2 = truncated_mellin(ev, s, lam * beta, beta)
        r2_value, r2_err = -r2.value, r2.quad_error
    rhs_val = lam ** (-s) * (r1.value + r2_value)
    err = lhs.quad_error + abs(lam ** (-s)) * (r1.quad_error + r2_err)
    dev = abs(lhs.value - rhs_val) / max(abs(lhs.value), 1e-300)
    tol = 10.0 * max(err / max(abs(lhs.value), 1e-300), 1e-14)
    return MellinScalingReport(rel_dev=dev, passed=bool(dev <= tol))


def test_scaling_identity_lambda_one():
    ev = monomial(2, 3.0, per_decade=1000)
    rep = verify_mellin_scaling(ev, 1.0, 1.5 + 3j, 1.0)
    assert rep.rel_dev == 0.0


def test_scaling_identity_monomial_exact():
    ev = monomial(2, 3.0, per_decade=1000)
    for lam in (1 / 3, 0.5, 1.4):
        rep = verify_mellin_scaling(ev, lam, 1.5 + 3j, 1.0)
        assert rep.passed
        assert rep.rel_dev < 1e-12


def test_scaling_identity_segment_tube():
    # V(t) = 2t + pi t^2 for the unit segment; identity to 1e-6
    ts = geometric_grid(1e-7, 3.5, 3000)
    ev = MellinEvaluator.build(SampledFunction(ts, 2 * ts + np.pi * ts ** 2))
    rep = verify_mellin_scaling(ev, 1 / 3, 2.3 + 1.5j, 1.0)
    assert rep.passed
    assert rep.rel_dev < 1e-6


def normalized_zeta(f: SampledFunction, beta: float, s: complex,
                    delta: float):
    """Transform of t^-beta f(t) over (0, delta]: the tube zeta function
    with beta = 2, the heat zeta function with beta = 1, as cli's
    ``explicit`` normalizes them."""
    ev = MellinEvaluator.build(SampledFunction(f.ts, f.vals / f.ts ** beta))
    return truncated_mellin(ev, s, 0.0, delta)


def test_tube_zeta_point_and_segment():
    ts = geometric_grid(1e-7, 1.0, 3000)
    point = SampledFunction(ts, np.pi * ts ** 2)
    seg = SampledFunction(ts, 2 * ts + np.pi * ts ** 2)
    for s in (2.5 + 0j, 3.0 + 10j):
        zp = normalized_zeta(point, 2, s, 1.0)
        assert abs(zp.value - np.pi / s) < 1e-8 * abs(np.pi / s)
        zs = normalized_zeta(seg, 2, s, 1.0)
        exact = 2 / (s - 1) + np.pi / s
        assert abs(zs.value - exact) < 1e-6 * abs(exact)


def test_tube_zeta_delta_shift_is_tame_near_pole():
    # zeta(s; d2) - zeta(s; d1) stays bounded where zeta itself blows up
    ts = geometric_grid(1e-7, 1.0, 2000)
    seg = SampledFunction(ts, 2 * ts + np.pi * ts ** 2)
    s = 1.001  # near the pole of 2/(s-1)
    z1 = normalized_zeta(seg, 2, s, 0.5)
    z2 = normalized_zeta(seg, 2, s, 1.0)
    assert abs(z1.value) > 1e2
    assert abs(z2.value - z1.value) < 10.0


def test_heat_zeta_monomials():
    ts = geometric_grid(1e-7, 1.0, 2000)
    c = 0.37
    ramp = SampledFunction(ts, c * ts)
    s = 1.4 + 2j
    got = normalized_zeta(ramp, 1, s, 0.8)
    exact = c * 0.8 ** s / s
    assert abs(got.value - exact) < 1e-9 * abs(exact)
    a = 1.6
    power = SampledFunction(ts, c * ts ** a)
    got = normalized_zeta(power, 1, s, 0.8)
    exact = c * 0.8 ** (s + a - 1) / (s + a - 1)
    assert abs(got.value - exact) < 1e-7 * abs(exact)


def test_heat_zeta_bounded_on_vertical_line(square_oracle):
    ts = geometric_grid(1e-6, 2e-2, 400)
    content = SampledFunction(ts, square_oracle(ts))
    ev = MellinEvaluator.build(
        content.transform_vals(lambda t, v: v / t))
    c = 1.5
    # |M(s)| <= C delta^(c - sig) / (c - sig) with |f| <= C t^-sig
    sig = ev.sigma_hat
    cbound = float(np.max(np.abs(ev.f.vals) * ev.f.ts ** sig))
    delta = 2e-2
    bound = cbound * delta ** (c - sig) / (c - sig)
    for tau in np.linspace(-50, 50, 21):
        z = truncated_mellin(ev, c + 1j * tau, 0.0, delta)
        assert abs(z.value) <= bound * (1 + 1e-9)


def test_partial_xi_zero_function():
    ts = geometric_grid(1e-5, 10.0, 500)
    f = SampledFunction(ts, np.zeros_like(ts))
    ratios = RatioMultiset(((1 / 3, 2),))
    z = partial_xi(ratios, f, 1.5 + 2j, 1.0)
    assert z.value == 0


def test_partial_xi_single_ratio_constant():
    # f = 1: xi = m lam^s (delta/lam)^s - delta^s) / s
    lam, m, delta = 0.4, 3, 1.0
    ts = geometric_grid(1e-5, delta / lam + 1e-9, 2000)
    f = SampledFunction(ts, np.ones_like(ts))
    ratios = RatioMultiset(((lam, m),))
    for s in (1.3 + 0j, 0.8 - 4j):
        z = partial_xi(ratios, f, s, delta)
        exact = m * delta ** s * (1 - lam ** s) / s
        assert abs(z.value - exact) < 1e-9 * abs(exact)


def test_partial_xi_range_check():
    ts = geometric_grid(1e-5, 1.0, 200)
    f = SampledFunction(ts, np.ones_like(ts))
    with pytest.raises(SampleRangeError):
        partial_xi(RatioMultiset(((1 / 3, 2),)), f, 1.0, 0.9)


def test_partial_xi_finite_at_pole():
    lam, m = 1 / 3, 2
    d = similarity_dimension(RatioMultiset(((lam, m),)))
    ts = geometric_grid(1e-5, 4.0, 1000)
    f = SampledFunction(ts, ts ** (-d))
    z = partial_xi(RatioMultiset(((lam, m),)), f, complex(d), 1.0)
    assert np.isfinite(z.value.real) and np.isfinite(z.value.imag)


def exact_sfe_fixture(lam=1 / 3, m=2, delta=0.5):
    """f = t^-D with m lam^D = 1 solves f = m f(t/lam) exactly (R = 0)."""
    ratios = RatioMultiset(((lam, m),))
    d = similarity_dimension(ratios)
    ts = geometric_grid(1e-7, delta / lam * 1.01, 3000)
    f = SampledFunction(ts, ts ** (-d))
    remainder = SampledFunction(ts, np.zeros_like(ts))
    return ratios, d, f, remainder, delta


# ------------------------------------------------ factorization oracle


POLE_MARGIN = 0.05  #: verify_zeta_identity's least |P/P'| from a pole


@dataclass(frozen=True)
class ZetaIdentityReport:
    """Largest |zeta_f - zeta(alpha s)(xi + zeta_R)| / |zeta_f| over the
    admissible points."""

    s_points: tuple[complex, ...]
    rejected: tuple[complex, ...]
    max_rel_dev: float


def verify_zeta_identity(ratios: RatioMultiset, f: SampledFunction,
                         remainder: SampledFunction, s_list, delta: float,
                         alpha: float = 1.0) -> ZetaIdentityReport:
    """Evaluate both sides of the factorization at each admissible s.

    Points whose Newton-step distance estimate |P/P'| at alpha*s falls
    below POLE_MARGIN are rejected (the identity divides small
    numbers there) and reported separately.
    """
    poly = DirichletPoly(ratios)
    ev_f = MellinEvaluator.build(f)
    ev_r = MellinEvaluator.build(remainder)
    s_pts, dev, rejected = [], [], []
    for s in s_list:
        s = complex(s)
        z = alpha * s
        dist = abs(poly(z)) / max(abs(poly.derivative(z)), 1e-300)
        if dist < POLE_MARGIN:
            rejected.append(s)
            continue
        left = truncated_mellin(ev_f, s, 0.0, delta)
        xi = partial_xi(ratios, f, s, delta, alpha)
        zr = truncated_mellin(ev_r, s, 0.0, delta)
        right = zeta_eval(poly, z) * (xi.value + zr.value)
        s_pts.append(s)
        dev.append(abs(left.value - right) / max(abs(left.value), 1e-300))
    return ZetaIdentityReport(s_points=tuple(s_pts), rejected=tuple(rejected),
                              max_rel_dev=max(dev, default=0.0))


def test_zeta_identity_exact_fixture():
    ratios, d, f, remainder, delta = exact_sfe_fixture()
    s_list = [d + 0.3, d + 0.7, d + 1.2, d + 0.5 + 5j, d + 0.5 - 5j]
    rep = verify_zeta_identity(ratios, f, remainder, s_list, delta)
    assert len(rep.s_points) == 5
    assert rep.max_rel_dev < 1e-6


def test_zeta_identity_trivial_without_scaling():
    # no ratios cannot be represented; emulate f == R via a single tiny
    # ratio whose xi term integrates almost nothing
    ratios, d, f, remainder, delta = exact_sfe_fixture()
    rep = verify_zeta_identity(ratios, f, remainder,
                               [d + 0.05j + 0.2], delta)
    assert rep.max_rel_dev < 1e-5


def test_zeta_identity_rejects_near_pole():
    ratios, d, f, remainder, delta = exact_sfe_fixture()
    rep = verify_zeta_identity(ratios, f, remainder, [complex(d)], delta)
    assert rep.rejected == (complex(d),)
    assert rep.s_points == ()


def test_sfe_zeta_residue_exact_fixture():
    # zeta_f(s) = delta^(s-D)/(s-D): residue at D equals 1
    ratios, d, f, remainder, delta = exact_sfe_fixture()
    res = sfe_zeta_residue(ratios, f, remainder, complex(d), delta,
                           alpha=1.0)
    assert res == pytest.approx(1.0, rel=1e-7)


def contour_residue_oracle(ratios, f, remainder, omega, delta, alpha=1.0):
    """Residue of zeta(s) (xi + zeta_R)(s/alpha) by a circle around omega."""
    poly = DirichletPoly(ratios)
    ev_r = MellinEvaluator.build(remainder)

    def g(s):
        h = partial_xi(ratios, f, s / alpha, delta, alpha).value
        h += truncated_mellin(ev_r, s / alpha, 0.0, delta).value
        return zeta_eval(poly, s) * h

    return residue_contour(g, omega, radius=0.1, nodes=64)


def cantor_sfe_fixture(cs):
    ratios = RatioMultiset(((1 / 3, 2),))
    tg = np.geomspace(1e-5, 0.4, 4000)
    delta = float(tg[np.searchsorted(cs.volume(tg), 0.9) - 1])
    ts = np.unique(np.concatenate([
        geometric_grid(1e-8, 3 * delta * 1.01, 400),
        cs.lens / 2, cs.lens * (1 + 1e-9)]))
    ts = ts[ts > 0]
    f = SampledFunction(ts, cs.volume(ts) / ts)
    rn = SampledFunction(ts, cs.remainder(ts) / ts)
    return ratios, f, rn, delta


def test_sfe_zeta_residue_matches_contour_oracle(cantor_string):
    ratios, d, f, remainder, delta = exact_sfe_fixture()
    cases = [(ratios, f, remainder, complex(d), delta)]
    c_ratios, c_f, c_rn, c_delta = cantor_sfe_fixture(cantor_string)
    dims = lattice_poles(detect_lattice(c_ratios), im_max=12.0)
    assert len(dims.poles) == 5
    cases += [(c_ratios, c_f, c_rn, p.omega, c_delta) for p in dims.poles]
    # alpha = 2 (the heat normalization) on the same table: delta / 3 keeps
    # delta / lambda^2 inside the sampled range
    cases += [(c_ratios, c_f, c_rn, p.omega, c_delta / 3, 2.0)
              for p in dims.poles[2:4]]
    for case in cases:
        closed = sfe_zeta_residue(*case)
        oracle = contour_residue_oracle(*case)
        assert abs(closed - oracle) <= 1e-10 * abs(oracle)


def test_sfe_zeta_residue_rejects_double_pole():
    # 1 - 3 z^2 - 2 z^3 = (1 + z)^2 (1 - 2z): with z = 2^-s the zeros on
    # Re s = 0 (z = -1) are double; lattice_poles places them ~3e-8 off,
    # where |P'| ~ 1e-7, and that located omega must still be refused
    ratios = RatioMultiset(((1 / 4, 3), (1 / 8, 2)))
    exact = 1j * np.pi / np.log(2.0)
    dims = lattice_poles(detect_lattice(ratios), im_max=5.0)
    doubles = [p.omega for p in dims.poles if p.multiplicity == 2]
    assert len(doubles) == 2
    assert min(abs(w - exact) for w in doubles) < 1e-6
    ts = geometric_grid(1e-6, 10.0, 200)
    f = SampledFunction(ts, np.ones_like(ts))
    for omega in doubles + [exact]:
        with pytest.raises(MultiplePoleError):
            sfe_zeta_residue(ratios, f, f, omega, 1.0)


# ------------------------------------------- per-window table, bit for bit


def _oracle_power_integral(ts, pw, s):
    if abs(s) < 1e-8:
        u = np.log(ts)
        du = u[1:] - u[:-1]
        z = s * du
        phi = np.where(np.abs(z) < 1e-30, 1.0,
                       np.expm1(z) / np.where(z == 0, 1, z))
        return pw[:-1] * du * phi
    return (pw[1:] - pw[:-1]) / s


def _oracle_pl_transform(ts, vals, pw, s):
    m = (vals[1:] - vals[:-1]) / (ts[1:] - ts[:-1])
    const = vals[:-1] - m * ts[:-1]
    i_s = _oracle_power_integral(ts, pw, s)
    i_s1 = _oracle_power_integral(ts, ts * pw, s + 1.0)
    return complex((const * i_s).sum() + (m * i_s1).sum())


def table_free_mellin(ev, s, a, b):
    """Oracle: the transform with no table kept between calls; each call
    restricts the samples to [a, b], takes their logs and forms the
    piecewise-linear transforms on the full and every-second-node grids."""
    s = complex(s)
    ts, vals = ev.f.ts, ev.f.vals
    t0 = float(ts[0])
    tail_val, tail_err = 0.0 + 0.0j, 0.0
    if a < t0:
        p = -ev.sigma_hat
        top = min(b, t0)
        if a == 0.0:
            tail_val = ev.tail_coef * top ** (s + p) / (s + p)
        else:
            ends = np.array([a, top])
            tail_val = ev.tail_coef * complex(_oracle_power_integral(
                ends, np.exp((s + p) * np.log(ends)), s + p)[0])
        tail_err = abs(ev.tail_coef * t0 ** p - vals[0]) \
            * abs(top ** (s.real + p)) / max(s.real + p, 1e-3)
        a = top
    inside = (ts > a) & (ts < b)
    grid_t = np.concatenate(([a], ts[inside], [b]))
    grid_v = np.concatenate(([np.interp(a, ts, vals)], vals[inside],
                             [np.interp(b, ts, vals)]))
    pw = np.exp(s * np.log(grid_t))
    full = _oracle_pl_transform(grid_t, grid_v, pw, s)
    n = len(grid_t)
    if n < 3:
        err = abs(full)
    else:
        half = np.arange(0, n + 1, 2)
        half[-1] = min(half[-1], n - 1)
        err = abs(full - _oracle_pl_transform(grid_t[half], grid_v[half],
                                              pw[half], s))
    return complex(full + tail_val), err + tail_err


@pytest.mark.parametrize("s", [0.9 + 3j, 2.5 - 40j, 1e-9, 3e-9 - 2e-9j,
                               -1 + 1e-9, 0.6 + 250j])
def test_window_table_matches_table_free_oracle_exactly(s):
    ts = geometric_grid(1e-6, 1.0, 40)
    vals = np.sqrt(ts) * (1.5 + np.sin(3 * np.log(ts)))
    ev = MellinEvaluator.build(SampledFunction(ts, vals))
    assert ev.tail_ok
    k = np.searchsorted(ts, 2e-3)
    windows = [(0.0, 0.71),                      # a = 0: the power tail
               (3.3e-7, 2e-5),                   # a below the first sample
               (1.17e-3, 0.2),                   # interior
               (ts[5], ts[60]),                  # ends on nodes
               (ts[k] * 1.02, ts[k + 1] * 0.98),  # no node inside: 2 nodes
               (ts[k] * 0.98, ts[k + 1] * 0.98)]  # one node inside
    for a, b in windows:
        if a < ts[0] and s.real <= ev.sigma_hat:
            continue
        for _ in range(2):   # the second call reads the kept table
            got = truncated_mellin(ev, s, a, b)
            value, err = table_free_mellin(ev, s, a, b)
            assert got.value == value, (a, b)
            assert got.quad_error == err, (a, b)


def test_five_residues_build_each_window_table_once(cantor_string,
                                                    monkeypatch):
    ratios, f, rn, delta = cantor_sfe_fixture(cantor_string)
    dims = lattice_poles(detect_lattice(ratios), im_max=12.0)
    assert len(dims.poles) == 5
    built, calls = [], []
    build = mellin._Window.build.__func__
    transform = mellin.truncated_mellin

    def counting_build(cls, g, a, b):
        built.append((id(g), a, b))
        return build(cls, g, a, b)

    def counting_transform(*args):
        calls.append(args)
        return transform(*args)

    monkeypatch.setattr(mellin._Window, "build",
                        classmethod(counting_build))
    monkeypatch.setattr(mellin, "truncated_mellin", counting_transform)
    residues = [sfe_zeta_residue(ratios, f, rn, p.omega, delta)
                for p in dims.poles]
    # two transforms a residue, on one window of f, [delta, 3 delta], and
    # one of R, [t_0, delta]: each table is built at the first pole only
    assert len(calls) == 10
    assert len(built) == len(set(built)) == 2
    assert {(g, a) for g, a, _ in built} == {(id(f), delta),
                                             (id(rn), float(rn.ts[0]))}
    monkeypatch.undo()
    assert residues == [sfe_zeta_residue(ratios, f, rn, p.omega, delta)
                        for p in dims.poles]
