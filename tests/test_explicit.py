from dataclasses import replace

import numpy as np
import pytest

from fractaldims.errors import DivergenceDomainError
from fractaldims.explicit import (FormulaTerm, build_terms, compare_explicit,
                                  evaluate_sum, fit_start_polynomial,
                                  formula_term, pochhammer, remainder_term,
                                  run)
from fractaldims.mellin import sfe_zeta_residue
from fractaldims.sampled import (SampledFunction, antiderivative,
                                 geometric_grid)
from fractaldims.tubes import decomposition_remainder
from fractaldims.vonkoch import GKCParams, snowflake
from fractaldims.zeta import (ComplexDimensionSet, DirichletPoly, Pole,
                              RatioMultiset, detect_lattice, lattice_poles,
                              lower_similarity_dimension, nonlattice_poles,
                              similarity_dimension)

LOG3 = np.log(3.0)


def test_pochhammer_values():
    assert pochhammer(4.2 + 1j, 0) == 1
    assert pochhammer(1.0, 3) == pytest.approx(6.0)
    assert pochhammer(0.5, 2) == pytest.approx(0.75)


def test_build_terms_single_real_pole():
    d = 0.8
    rho = 2.5
    dims = ComplexDimensionSet(poles=(Pole(complex(d), complex(rho)),),
                               window=(0, 1, 10))
    built = build_terms(dims, [rho], beta=2.0, alpha=1.0, k=2)
    (term,) = built.terms
    # coefficient rho / ((3-D)(4-D)), exponent 4-D
    assert term.exponent == pytest.approx(4 - d)
    assert term.coeff == pytest.approx(rho / ((3 - d) * (4 - d)))


def test_build_terms_conjugate_coefficients():
    w = 0.7 + 3.1j
    rho = 0.2 - 0.1j
    dims = ComplexDimensionSet(
        poles=(Pole(w, rho), Pole(w.conjugate(), rho.conjugate())),
        window=(0, 1, 10))
    built = build_terms(dims, [rho, rho.conjugate()], beta=2.0, alpha=1.0,
                        k=2)
    c1, c2 = (t.coeff for t in built.terms)
    assert c1 == pytest.approx(c2.conjugate())


def test_build_terms_empty():
    dims = ComplexDimensionSet(poles=(), window=(0, 1, 10))
    built = build_terms(dims, [], beta=2.0, alpha=1.0, k=2)
    assert built.terms == ()


def test_build_terms_skips_non_simple():
    dims = ComplexDimensionSet(
        poles=(Pole(0.5 + 0j, 1.0 + 0j, multiplicity=2),),
        window=(0, 1, 10))
    built = build_terms(dims, [1.0], beta=2.0, alpha=1.0, k=2)
    assert built.terms == ()
    assert built.skipped == (0.5 + 0j,)


def test_evaluate_sum_single_real_term():
    term = FormulaTerm(omega=0.5 + 0j, coeff=2.0 + 0j, exponent=1.5 + 0j)
    t = geometric_grid(1e-3, 1.0, 24)
    series = evaluate_sum([term], t, im_cutoffs=(1.0, 10.0))
    for row in series.sums:
        assert np.allclose(row, 2.0 * t ** 1.5)
    assert max(series.imag_leakage) == 0.0


def test_compare_explicit_floor_case():
    # synthetic two-term function with exactly matching terms
    t = geometric_grid(1e-3, 1e-1, 48)
    terms = [
        FormulaTerm(omega=0.4 + 0j, coeff=1.3 + 0j, exponent=2.6 + 0j),
        FormulaTerm(omega=0.9 + 0j, coeff=-0.4 + 0j, exponent=2.1 + 0j),
    ]
    direct = SampledFunction(t, 1.3 * t ** 2.6 - 0.4 * t ** 2.1)
    series = evaluate_sum(terms, t, im_cutoffs=(10.0,))
    comp = compare_explicit(direct, series, expected_remainder_exp=3.0)
    assert comp.at_floor
    assert comp.passed
    assert comp.max_rel_dev < 1e-12


def test_formula_term_divides_by_alpha():
    w, rho = 0.6 + 2.0j, 0.3 - 0.2j
    for alpha in (1.0, 2.0):
        z = (2.0 - w) / alpha
        term = formula_term(w, rho, beta=2.0, alpha=alpha, k=2)
        assert term.exponent == z + 2
        assert term.coeff == pytest.approx(rho / alpha / ((z + 1) * (z + 2)),
                                           rel=1e-15)


def cantor_sfe(cs, alpha):
    """(F, R, ratios, delta) of the Cantor string's tube volume read at
    t^(1/alpha), sampled at t^alpha.

    With V = sum_k a_k lambda_k V(t / lambda_k) + R, G(t) = V(t^(1/alpha))
    satisfies G = sum_k a_k lambda_k G(t / lambda_k^alpha) + R(t^(1/alpha)):
    the same ratios with this alpha and beta = 1.  delta is the one of V.
    """
    ratios = RatioMultiset(((1 / 3, 2),))
    tg = np.geomspace(1e-5, 0.4, 4000)
    vg = cs.volume(tg)
    delta = float(tg[np.searchsorted(vg, 0.9) - 1])
    ts = np.unique(np.concatenate([
        geometric_grid(1e-8, 3 * delta * 1.01, 400),
        cs.lens / 2, cs.lens * (1 + 1e-9)]))
    ts = ts[ts > 0]
    return (SampledFunction(ts ** alpha, cs.volume(ts)),
            SampledFunction(ts ** alpha, cs.remainder(ts)), ratios, delta)


def cantor_explicit(cs, alpha, im_max=90.0):
    """``run`` on the Cantor fixture, its series on [1e-3, 1e-1]^alpha
    at the cutoffs 10, 20, 40 and 80; the last term is the s = 0 one."""
    F, R, ratios, delta = cantor_sfe(cs, alpha)
    dims = lattice_poles(detect_lattice(ratios), im_max=im_max)
    result = run(F, R, ratios, dims, alpha=alpha, beta=1.0, k=2,
                 delta=delta ** alpha,
                 t_grid=geometric_grid(1e-3, 1e-1, 60) ** alpha,
                 cutoffs=(10, 20, 40, 80))
    assert result.terms[-1].omega == 0
    return result


def cantor_sqrt_anti2(cs, t):
    """Exact second antiderivative of G(t) = V(sqrt(t)): per length l,
    integral (t - u) min(2 sqrt(u), l) du over [0, t]."""
    t = np.atleast_1d(np.asarray(t, dtype=float))[:, None]
    ell = cs.lens[None, :]
    knee = ell ** 2 / 4
    piece = np.where(t <= knee, 8 / 15 * t ** 2.5,
                     t * ell ** 3 / 6 - ell ** 5 / 40
                     + ell * (t - knee) ** 2 / 2)
    return np.sum(cs.mults[None, :] * piece, axis=1)


@pytest.fixture(scope="module")
def cantor_run(cantor_string):
    return cantor_explicit(cantor_string, 1.0)


def test_cantor_remainder_term_is_minus_third(cantor_run):
    extra = cantor_run.terms[-1]
    assert extra.coeff == pytest.approx(-1 / 3, rel=1e-9)
    assert extra.exponent == pytest.approx(3.0)


def test_cantor_partial_sums_converge_and_match(cantor_run, cantor_string):
    cs, series = cantor_string, cantor_run.series
    t = geometric_grid(1e-3, 1e-1, 60)
    direct = SampledFunction(t, cs.volume_anti2(t))
    comp = compare_explicit(direct, series, expected_remainder_exp=2.95)
    assert comp.max_rel_dev < 0.01
    # cutoff increments eventually decrease
    incs = [np.max(np.abs(series.sums[i + 1] - series.sums[i]))
            for i in range(len(series.im_cutoffs) - 1)]
    assert incs[-1] < incs[0]
    # realness: conjugate pairing keeps imaginary leakage at noise level
    assert series.imag_leakage[-1] < 1e-9 * np.max(np.abs(series.sums[-1]))


def test_cantor_leading_term_dominance(cantor_run, cantor_string):
    # average of V^[2] / t^(1-D+2) over one multiplicative period
    # reproduces the D-line coefficient c0 = Res / poch within 2%
    d = np.log(2) / LOG3
    t = np.exp(np.linspace(np.log(2e-3), np.log(2e-3) + np.log(3), 600))
    direct = cantor_string.volume_anti2(t)
    (c0,) = [tm.coeff.real for tm in cantor_run.terms
             if abs(tm.omega - d) < 1e-9]
    scaled = direct / t ** (3 - d)
    avg = np.trapezoid(scaled, np.log(t)) / np.log(3)
    assert avg == pytest.approx(c0, rel=0.02)


def test_cantor_antiderivative_from_first_sample_aligns(cantor_run,
                                                        cantor_string):
    # V^[2] from t0 is V^[2] from 0 less A2(t0) + A1(t0) (t - t0), with
    # A1, A2 the first and second antiderivatives from 0 at t0; the fit
    # removes that polynomial whatever t0 is
    cs = cantor_string
    t = geometric_grid(1e-3, 1e-1, 24)
    series = evaluate_sum(cantor_run.terms, t, im_cutoffs=(24,))
    devs, fits = [], {}
    for t0 in (1e-6, 1e-4, 2e-4, 5e-4):
        ts = geometric_grid(t0, 0.3, 200)
        direct, fits[t0] = fit_start_polynomial(
            antiderivative(SampledFunction(ts, cs.volume(ts)), 2), series, 2)
        comp = compare_explicit(direct, series, expected_remainder_exp=2.95)
        devs.append(comp.max_rel_dev)
    # what is left is trapezoid error, the same at every t0
    assert max(devs) <= 6e-5
    assert max(devs) <= 1.1 * min(devs)
    t0, ell = 2e-4, cs.lens
    a1 = np.sum(cs.mults * np.where(t0 <= ell / 2, t0 ** 2,
                                    ell * t0 - ell ** 2 / 4))
    a2 = cs.volume_anti2(t0)[0]
    assert fits[t0] == pytest.approx([-(a2 - a1 * t0), -a1], rel=0.02)


def test_remainder_term_none_for_decaying_remainder():
    ts = geometric_grid(1e-6, 1.0, 200)
    decaying = SampledFunction(ts, ts ** 0.5)
    ratios = RatioMultiset(((1 / 3, 2),))
    assert remainder_term(ratios, decaying, beta=1.0, alpha=1.0, k=2) is None


def test_cantor_alpha_two_oracle(cantor_run, cantor_string):
    # G(t) = V(sqrt t) is the alpha = 2 Cantor fixture, with its exact
    # second antiderivative; without the 1/alpha of formula_term the
    # series is twice the direct side
    cs = cantor_string
    t = geometric_grid(1e-3, 1e-1, 60)
    devs = {}
    for alpha, direct_vals in ((1.0, cs.volume_anti2(t)),
                               (2.0, cantor_sqrt_anti2(cs, t ** 2))):
        result = cantor_run if alpha == 1.0 else cantor_explicit(cs, alpha)
        series = evaluate_sum(result.terms, t ** alpha, im_cutoffs=(12.0,))
        comp = compare_explicit(SampledFunction(t ** alpha, direct_vals),
                                series, expected_remainder_exp=2.0)
        devs[alpha] = comp.max_rel_dev
    assert devs[1.0] < 1e-4
    assert devs[2.0] < 10 * devs[1.0]
    # zeta(0) c0 / (3/2)_2 with zeta(0) = -1 and c0 = 2
    extra = result.terms[-1]
    assert extra.coeff == pytest.approx(-8 / 15, rel=1e-9)
    assert extra.exponent == pytest.approx(2.5)


def assemble_by_hand(F, R, ratios, dims, alpha, beta, k, delta, t_grid,
                     cutoffs):
    """The explicit pipeline step by step, each residue from
    sfe_zeta_residue: the reference ``run`` must equal bit for bit."""
    ts = F.ts
    norm = SampledFunction(ts, F.vals / ts ** (beta / alpha))
    remainder = SampledFunction(ts, R.vals / ts ** (beta / alpha))
    residues = [sfe_zeta_residue(ratios, norm, remainder, p.omega, delta,
                                 alpha=alpha) if p.multiplicity == 1
                else None for p in dims.poles]
    built = build_terms(dims, residues, beta=beta, alpha=alpha, k=k)
    terms = list(built.terms)
    extra = remainder_term(ratios, remainder, beta=beta, alpha=alpha, k=k)
    if extra is not None:
        terms.append(extra)
    series = evaluate_sum(terms, t_grid, im_cutoffs=cutoffs)
    direct, start_poly = fit_start_polynomial(
        antiderivative(SampledFunction(ts, F.vals), k), series, k)
    expected = beta / alpha - 0.0 + k  # remainder order sigma0 = 0
    comp = compare_explicit(direct, series,
                            expected_remainder_exp=expected - 0.05)
    return terms, series, start_poly, comp


def tube_sfe():
    """(F, R, ratios, delta) of a level-2 (4, 0.24) sector tube at
    h = 4e-3, on t in [2e-2, 0.3]."""
    params = GKCParams(4, 0.24)
    F, R = decomposition_remainder(snowflake(params, 2),
                                   geometric_grid(2e-2, 0.3, 48), 4e-3)
    return F, R, RatioMultiset.from_pairs(params.ratio_pairs), 0.05


@pytest.mark.parametrize("fixture", ["cantor", "tube"])
def test_run_equals_the_pipeline_assembled_by_hand(cantor_string, fixture):
    if fixture == "cantor":
        F, R, ratios, delta = cantor_sfe(cantor_string, 1.0)
        dims = lattice_poles(detect_lattice(ratios), im_max=40.0)
        knobs = dict(alpha=1.0, beta=1.0, k=2, delta=delta,
                     t_grid=geometric_grid(1e-3, 1e-1, 24),
                     cutoffs=(10.0, 40.0))
    else:
        F, R, ratios, delta = tube_sfe()
        dims = nonlattice_poles(DirichletPoly(ratios),
                                (lower_similarity_dimension(ratios),
                                 similarity_dimension(ratios)), 10.0)
        knobs = dict(alpha=1.0, beta=2.0, k=3, delta=delta,
                     t_grid=geometric_grid(2e-2, 4e-2, 24),
                     cutoffs=(5.0, 10.0))
    result = run(F, R, ratios, dims, **knobs)
    terms, series, start_poly, comp = assemble_by_hand(F, R, ratios, dims,
                                                       **knobs)
    assert len(terms) > 4
    assert list(result.terms) == terms
    assert np.array_equal(result.series.sums, series.sums)
    assert result.series.imag_leakage == series.imag_leakage
    assert np.array_equal(result.start_polynomial, start_poly)
    assert result.comparison.max_rel_dev == comp.max_rel_dev
    assert result.skipped == ()


def test_run_skips_a_non_simple_pole(cantor_string):
    # a pole of multiplicity 2 carries no term; every other term is the
    # one of a run on the poles without it
    F, R, ratios, delta = cantor_sfe(cantor_string, 1.0)
    dims = lattice_poles(detect_lattice(ratios), im_max=20.0)
    i = next(j for j, p in enumerate(dims.poles) if p.omega.imag > 0)
    omega = dims.poles[i].omega
    double = replace(dims, poles=dims.poles[:i] + (
        replace(dims.poles[i], multiplicity=2),) + dims.poles[i + 1:])
    without = replace(dims, poles=dims.poles[:i] + dims.poles[i + 1:])
    knobs = dict(alpha=1.0, beta=1.0, k=2, delta=delta,
                 t_grid=geometric_grid(1e-3, 1e-1, 24), cutoffs=(10.0, 20.0))
    result = run(F, R, ratios, double, **knobs)
    assert result.skipped == (omega,)
    assert all(tm.omega != omega for tm in result.terms)
    assert result.terms == run(F, R, ratios, without, **knobs).terms


def test_run_names_the_pole_where_the_remainder_transform_diverges(
        cantor_string):
    # R / t^(beta/alpha) ~ t^-1 at beta = 2: zeta_R needs Re(s) > 1,
    # right of every Cantor pole
    F, R, ratios, delta = cantor_sfe(cantor_string, 1.0)
    dims = lattice_poles(detect_lattice(ratios), im_max=6.0)
    # R's first sample is the smallest length's half, 3^-80 / 2
    with pytest.raises(DivergenceDomainError,
                       match=r"^zeta_R diverges at the pole 0\.63093-5\."
                       r"7192j, Re\(omega\)/alpha=0\.63093 not above the "
                       r"abscissa 1 fitted to R from t_min=3\.38275e-39: "
                       r"raise t_min$"):
        run(F, R, ratios, dims, alpha=1.0, beta=2.0, k=2, delta=delta,
            t_grid=geometric_grid(1e-3, 1e-1, 24), cutoffs=(6.0,))
