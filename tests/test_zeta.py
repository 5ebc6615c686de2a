import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractaldims import zeta
from fractaldims.errors import (ContourError, MultiplePoleError,
                                PoleProximityError)
from fractaldims.zeta import (POLE_TOL, ComplexDimensionSet, DirichletPoly,
                              LatticeStructure, RatioMultiset, detect_lattice,
                              lattice_poles, lower_similarity_dimension,
                              nonlattice_poles, residue_contour,
                              residue_simple, similarity_dimension,
                              zeta_eval)

LOG3 = np.log(3.0)
CANTOR = RatioMultiset(((1 / 3, 2),))
KOCH = RatioMultiset(((1 / 3, 4),))


def omegas_of(dims) -> np.ndarray:
    return np.array([p.omega for p in dims.poles])


def random_multiset(rng, max_entries=3):
    k = rng.integers(1, max_entries + 1)
    ratios = np.sort(rng.uniform(0.05, 0.9, size=k))[::-1]
    while len(set(np.round(ratios, 6))) < k:
        ratios = np.sort(rng.uniform(0.05, 0.9, size=k))[::-1]
    mults = rng.integers(1, 5, size=k)
    return RatioMultiset(tuple((float(r), int(m))
                               for r, m in zip(ratios, mults)))


# ---------------------------------------------------------------- dimensions


def test_similarity_dimension_koch():
    d = similarity_dimension(KOCH)
    assert d == pytest.approx(np.log(4) / LOG3, abs=1e-12)


def test_similarity_dimension_half():
    assert similarity_dimension(RatioMultiset(((0.5, 2),))) == \
        pytest.approx(1.0, abs=1e-12)


def test_similarity_dimension_pentaflake_bisection_oracle():
    rm = RatioMultiset(((2 / 5, 2), (1 / 5, 4)))
    # independent plain bisection on the Moran sum
    lo, hi = 0.0, 3.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if 4 * (1 / 5) ** mid + 2 * (2 / 5) ** mid > 1:
            lo = mid
        else:
            hi = mid
    assert similarity_dimension(rm) == pytest.approx(0.5 * (lo + hi),
                                                     abs=1e-12)


def test_lower_dimension_single_ratio_equals_upper():
    assert lower_similarity_dimension(KOCH) == \
        pytest.approx(similarity_dimension(KOCH), abs=1e-12)


@pytest.mark.parametrize("n,expect_sign", [(3, -1), (4, 0), (5, 1)])
def test_lower_dimension_gkf_sign_pattern(n, expect_sign):
    r = 0.25
    ell = (1 - r) / 2
    rm = RatioMultiset(((ell, 2), (r, n - 1)))
    d_lo = lower_similarity_dimension(rm)
    if expect_sign == 0:
        assert abs(d_lo) < 1e-10
    elif expect_sign < 0:
        assert d_lo < 0
    else:
        assert d_lo > 0


def test_moran_root_random_property():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        rm = random_multiset(rng)
        poly = DirichletPoly(rm)
        d = similarity_dimension(rm)
        assert float(poly(d - 1e-6)) < 0 < float(poly(d + 1e-6))
        # the Moran sum is strictly decreasing on sampled reals
        sigmas = np.linspace(d - 2, d + 2, 9)
        vals = poly.moran_sum(sigmas)
        assert np.all(np.diff(vals) < 0)


def _bisection_root(fn, dfn, lo, hi):
    """Oracle root of an increasing function: bracket, bisect to a width
    below 1e-13 * max(1, |x|), then the library's Newton polish."""
    while fn(lo) > 0:
        lo -= max(1.0, hi - lo)
    while fn(hi) < 0:
        hi += max(1.0, hi - lo)
    while hi - lo >= 1e-13 * max(1.0, abs(0.5 * (lo + hi))):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0:
            lo = mid
        else:
            hi = mid
    return float(zeta._newton(fn, dfn, 0.5 * (lo + hi)))


def _counted(fn, calls):
    def wrapped(x):
        calls.append(x)
        return fn(x)
    return wrapped


def test_moran_roots_match_bisection_with_few_evaluations():
    rng = np.random.default_rng(2024)
    worst = 0
    for _ in range(50):
        rm = random_multiset(rng)
        poly = DirichletPoly(rm)
        q, dq = zeta._lower_poly(rm)
        cases = [(lambda s: float(poly(s)),
                  lambda s: float(poly.derivative(s)), 0.0, 1.0,
                  similarity_dimension(rm)),
                 (lambda t: q(t) - 1.0, dq, -1.0, 1.0,
                  lower_similarity_dimension(rm))]
        for fn, dfn, lo, hi, got in cases:
            want = _bisection_root(fn, dfn, lo, hi)
            assert abs(got - want) <= 1e-15 * max(1.0, abs(want))
            assert abs(fn(got)) < 1e-12
            calls = []
            assert zeta._increasing_root(_counted(fn, calls),
                                         _counted(dfn, calls),
                                         lo, hi) == got
            worst = max(worst, len(calls))
    # bisection alone takes ~45 evaluations of fn to reach 1e-13
    assert worst <= 24


def test_ratio_arrays_are_built_once_and_read_only():
    rm = RatioMultiset(((0.5, 1), (0.2, 3)))
    assert rm.ratios is rm.ratios
    assert rm.multiplicities is rm.multiplicities
    assert rm.ratios.tolist() == [0.5, 0.2]
    assert rm.multiplicities.tolist() == [1, 3]
    with pytest.raises(ValueError):
        rm.ratios[0] = 0.25
    with pytest.raises(ValueError):
        rm.multiplicities[0] = 2
    assert rm == RatioMultiset(((0.2, 3), (0.5, 1)))
    assert hash(rm) == hash(RatioMultiset(((0.2, 3), (0.5, 1))))


def test_multiplicities_are_integers_of_at_least_one():
    # int() would truncate 1.5 and read True as 1
    for m in (1.5, True, np.True_, 0, "2", [1]):
        for build in (lambda: RatioMultiset(((0.5, m),)),
                      lambda: RatioMultiset.from_pairs([(0.5, m),
                                                        (0.25, 1)])):
            with pytest.raises(ValueError, match="is not an integer >= 1"):
                build()
    rm = RatioMultiset.from_pairs([(0.5, 2.0), (0.25, np.int64(3))])
    assert rm.entries == ((0.5, 2), (0.25, 3))
    assert all(type(m) is int for _, m in rm.entries)


# ---------------------------------------------------------------- lattice


def test_detect_lattice_single_ratio():
    lat = detect_lattice(KOCH)
    assert lat is not None
    assert lat.generator == pytest.approx(1 / 3, abs=1e-14)
    assert lat.exponents == ((1, 4),)


def test_detect_lattice_powers():
    lat = detect_lattice(RatioMultiset(((1 / 9, 1), (1 / 3, 1))))
    assert lat is not None
    assert lat.generator == pytest.approx(1 / 3, abs=1e-13)
    assert set(lat.exponents) == {(1, 1), (2, 1)}


def test_detect_lattice_squareflake_nonlattice():
    # log(3/8)/log(1/4) has no small rational approximation
    for cap in (16, 64, 256):
        assert detect_lattice(RatioMultiset(((3 / 8, 2), (1 / 4, 3))),
                              max_denominator=cap) is None


def test_detect_lattice_exponent_gcd_reduced():
    lat = detect_lattice(RatioMultiset(((1 / 9, 1), (1 / 81, 2))))
    assert lat is not None
    ks = [k for k, _ in lat.exponents]
    assert np.gcd.reduce(ks) == 1


@pytest.mark.parametrize("generator, exponents, constraint", [
    # 1 - 3z^4 - 2z^6 has double roots at z = +-i that Newton polishing
    # splits: unchecked, lattice_poles raised MultiplePoleError
    (0.225, ((4, 3), (6, 2)), r"gcd 2, not 1.*0\.225\^2"),
    (1.0, ((1, 2),), r"generator=1\.0 is not in \(0, 1\)"),
    (0.5, ((0, 2), (1, 1)), "k >= 1 and m >= 1"),
    (0.5, ((1, 0),), "k >= 1 and m >= 1"),
    (0.5, (), "nonempty"),
])
def test_lattice_structure_rejects_invalid(generator, exponents, constraint):
    with pytest.raises(ValueError, match=constraint):
        LatticeStructure(generator, exponents)


# ---------------------------------------------------------------- poles


def test_lattice_poles_cantor_line():
    dims = lattice_poles(detect_lattice(CANTOR), im_max=120.0)
    period = 2 * np.pi / LOG3
    ups = sorted((p.omega for p in dims.poles if p.omega.imag > -1e-9),
                 key=lambda w: w.imag)
    for k, omega in enumerate(ups[:20]):
        expect = np.log(2) / LOG3 + 1j * k * period
        assert abs(omega - expect) < 1e-8


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lattice_poles_koch_family_real_parts(n):
    dims = lattice_poles(detect_lattice(RatioMultiset(((1 / 3, n + 1),))),
                         im_max=40.0)
    for p in dims.poles:
        assert p.omega.real == pytest.approx(np.log(n + 1) / LOG3,
                                             abs=1e-10)


def test_lattice_poles_half_ratio_line_through_zero():
    dims = lattice_poles(detect_lattice(RatioMultiset(((0.5, 1),))),
                         im_max=30.0)
    period = 2 * np.pi / np.log(2)
    for p in dims.poles:
        assert abs(p.omega.real) < 1e-10
        assert abs(p.omega.imag / period - round(p.omega.imag / period)) \
            < 1e-10


def test_lattice_vertical_spacing_exact():
    dims = lattice_poles(detect_lattice(CANTOR), im_max=100.0)
    period = 2 * np.pi / LOG3
    ims = np.sort([p.omega.imag for p in dims.poles])
    assert np.allclose(np.diff(ims), period, atol=1e-10)


def test_nonlattice_matches_lattice_on_cantor():
    d_lat = lattice_poles(detect_lattice(CANTOR), im_max=30.0)
    poly = DirichletPoly(CANTOR)
    d = np.log(2) / LOG3
    d_non = nonlattice_poles(poly, (d - 0.1, d + 0.1), 30.0)
    w1 = sorted((p.omega for p in d_lat.poles),
                key=lambda w: (w.imag, w.real))
    w2 = sorted((p.omega for p in d_non.poles),
                key=lambda w: (w.imag, w.real))
    assert len(w1) == len(w2)
    assert max(abs(a - b) for a, b in zip(w1, w2)) < 1e-8


def test_nonlattice_empty_band():
    poly = DirichletPoly(CANTOR)
    dims = nonlattice_poles(poly, (2.0, 3.0), 20.0)
    assert dims.poles == ()


def test_nonlattice_pole_band_and_conjugacy():
    rm = RatioMultiset(((2 / 5, 2), (1 / 5, 4)))
    poly = DirichletPoly(rm)
    d_up = similarity_dimension(rm)
    d_lo = lower_similarity_dimension(rm)
    dims = nonlattice_poles(poly, (d_lo, d_up), 25.0)
    omegas = omegas_of(dims)
    assert np.all(omegas.real >= d_lo - 1e-9)
    assert np.all(omegas.real <= d_up + 1e-9)
    as_set = {(round(w.real, 9), round(w.imag, 9)) for w in omegas}
    conj = {(a, -b) for a, b in as_set}
    assert as_set == conj
    assert max(abs(poly(w)) for w in omegas) < 1e-10


def test_nonlattice_three_ratios_full_height():
    rm = RatioMultiset(((1 / 2, 1), (1 / 3, 1), (1 / 5, 1)))
    assert detect_lattice(rm) is None
    poly = DirichletPoly(rm)
    band = (lower_similarity_dimension(rm), similarity_dimension(rm))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dims = nonlattice_poles(poly, band, 60.0)
    assert len(dims.poles) == 31 == dims.search_count
    assert all(p.multiplicity == 1 for p in dims.poles)
    assert max(abs(poly(w)) for w in omegas_of(dims)) < POLE_TOL


def test_nonlattice_search_count_excludes_margin_zeros():
    # the search contour reaches ~1e-3 im_max above the window; a zero in
    # that margin is counted by the winding number but not emitted, so
    # search_count must leave it out as well
    rm = RatioMultiset(((1 / 2, 1), (1 / 3, 1), (1 / 5, 1)))
    poly = DirichletPoly(rm)
    band = (lower_similarity_dimension(rm), similarity_dimension(rm))
    top = max(w.imag for w in omegas_of(nonlattice_poles(poly, band, 12.0)))
    dims = nonlattice_poles(poly, band, top - 1e-4)
    assert dims.search_rect[3] > top
    assert max(w.imag for w in omegas_of(dims)) < top - 1e-4
    assert sum(p.multiplicity for p in dims.poles) == dims.search_count


def test_imaginary_part_is_positive_inside_the_strip():
    # Im P(sigma + i tau) = sum a lambda^sigma sin(tau log(1/lambda)) > 0
    # for 0 < tau < pi / log(1/lambda_min): the search starts above it
    rng = np.random.default_rng(5)
    for _ in range(40):
        rm = random_multiset(rng)
        tau_max = np.pi / np.log(1.0 / rm.ratios[-1])
        sigma = np.linspace(-3.0, 3.0, 61)
        tau = tau_max * np.linspace(0.0, 1.0, 41)[1:-1]
        s = sigma[:, None] + 1j * tau[None, :]
        assert np.all(DirichletPoly(rm)(s).imag > 0)


def _mirror_closed(dims):
    poles = {(p.omega, p.residue, p.multiplicity) for p in dims.poles}
    return len(poles) == len(dims.poles) and all(
        (w.conjugate(), r.conjugate(), m) in poles for w, r, m in poles)


def test_both_routes_return_exact_conjugate_pairs():
    rm = RatioMultiset(((1 / 2, 1), (1 / 3, 1), (1 / 5, 1)))
    band = (lower_similarity_dimension(rm), similarity_dimension(rm))
    dims = nonlattice_poles(DirichletPoly(rm), band, 20.0)
    assert _mirror_closed(dims)
    real = [p for p in dims.poles if p.omega.imag == 0]
    assert [p.omega for p in real] == [complex(similarity_dimension(rm))]
    for rm in (CANTOR, RatioMultiset(((1 / 4, 3), (1 / 8, 2)))):
        assert _mirror_closed(lattice_poles(detect_lattice(rm), 30.0))


def test_double_pole_residues_are_exact_conjugates():
    poly = DirichletPoly(RatioMultiset(((1 / 4, 3), (1 / 8, 2))))
    dims = lattice_poles(detect_lattice(poly.ratios), im_max=10.0)
    doubles = {p.omega: p.residue for p in dims.poles if p.multiplicity == 2}
    assert len(doubles) == 2
    for w, res in doubles.items():
        assert doubles[w.conjugate()] == res.conjugate()


def test_nonlattice_search_never_winds_through_the_real_pole(monkeypatch):
    calls, failures = [], []
    winding = zeta._winding_number

    def counted(poly, rect):
        calls.append(rect)
        try:
            return winding(poly, rect)
        except ContourError:
            failures.append(rect)
            raise

    monkeypatch.setattr(zeta, "_winding_number", counted)
    rm = RatioMultiset(((1 / 2, 1), (1 / 3, 1), (1 / 5, 1)))
    band = (lower_similarity_dimension(rm), similarity_dimension(rm))
    dims = nonlattice_poles(DirichletPoly(rm), band, 12.0)
    assert len(dims.poles) == dims.search_count == 7
    # one winding count, of the outer rectangle, certifies the search
    assert failures == [] and calls == [dims.search_rect]


def test_nonlattice_locates_a_near_double_zero_pair():
    # 1 - 3 z^2 - 2 z^3 has a double root; perturbing one ratio by 1e-9
    # splits each double pole into two simple zeros 1.6e-4 apart
    rm = RatioMultiset(((1 / 4, 3), (1 / 8 * (1 + 1e-9), 2)))
    assert detect_lattice(rm) is None
    poly = DirichletPoly(rm)
    band = (lower_similarity_dimension(rm), similarity_dimension(rm))
    dims = nonlattice_poles(poly, band, 10.0)
    assert len(dims.poles) == dims.search_count == 7
    near = sorted((w for w in omegas_of(dims) if w.imag > 0),
                  key=lambda w: w.imag)[:2]
    assert 1e-5 < abs(near[0] - near[1]) < 1e-3
    assert max(abs(poly(w)) for w in omegas_of(dims)) < POLE_TOL


def test_nonlattice_random_multisets_count_and_simplicity():
    rng = np.random.default_rng(11)
    seen = 0
    while seen < 20:
        rm = random_multiset(rng)
        if detect_lattice(rm) is not None:
            continue
        seen += 1
        poly = DirichletPoly(rm)
        band = (lower_similarity_dimension(rm), similarity_dimension(rm))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dims = nonlattice_poles(poly, band, 30.0)
        assert len(dims.poles) == dims.search_count, rm
        for p in dims.poles:
            assert p.multiplicity == 1
            # residue_simple's test: a polished simple zero clears it by far
            dp = abs(poly.derivative(p.omega))
            assert dp ** 2 > zeta.SIMPLE_POLE_MARGIN * abs(
                poly.second_derivative(p.omega)) * max(abs(poly(p.omega)),
                                                       1e-16)


def test_dirichlet_with_derivative_matches_separate_calls():
    poly = DirichletPoly(RatioMultiset(((2 / 5, 2), (1 / 5, 4))))
    s = np.array([[0.3 + 2j, -1.0 - 7.5j], [1.2 + 0j, 0.5 + 40j]])
    p, dp = poly.with_derivative(s)
    assert p.shape == dp.shape == s.shape
    assert np.allclose(p, poly(s), rtol=1e-14, atol=1e-14)
    assert np.allclose(dp, poly.derivative(s), rtol=1e-14, atol=1e-14)


#: the ratio sets of the scalar-against-array tests; the nine ratios pass
#: the 4 complex and 8 real terms where np.sum turns to pairwise blocks
EVAL_SETS = {
    "nonlattice-3": ((1 / 2, 1), (1 / 3, 1), (1 / 5, 1)),
    "koch-4-0.24": (((1 - 0.24) / 2, 2), (0.24, 3)),
    "cantor": ((1 / 3, 2),),
    "double-pole-lattice": ((1 / 4, 3), (1 / 8, 2)),
    "nine-ratios": tuple((0.9 - 0.1 * k, k % 3 + 1) for k in range(9)),
}
EVAL_REAL = [0.0, 0.7, -1.3, 2.0, 1.0, 1.2618595071429148, 31.5]
EVAL_COMPLEX = [0.3 + 2j, -0.4 - 35j, 1.26 + 57.5j, 1e-9j, 1.0 + 0j,
                2.0 - 1e-12j, -3.0 + 400j]


@pytest.mark.parametrize("pairs", EVAL_SETS.values(), ids=EVAL_SETS.keys())
def test_scalar_and_array_evaluation_agree_bit_for_bit(pairs):
    poly = DirichletPoly(RatioMultiset.from_pairs(pairs))
    real = np.array(EVAL_REAL)
    cplx = np.array(EVAL_COMPLEX)
    # a real point inside a complex array takes the complex path
    as_complex = real.astype(complex)
    for fn in (poly, poly.moran_sum, poly.derivative,
               poly.second_derivative):
        for points, values in ((real, fn(real)), (cplx, fn(cplx)),
                               (real, fn(as_complex))):
            assert values.shape == points.shape
            for s, value in zip(points, values):
                scalar = fn(complex(s) if np.iscomplexobj(points)
                            else float(s))
                assert isinstance(scalar, (float, complex))
                assert scalar == value, (fn, s)
        grid = cplx.reshape(7, 1) + np.array([0.0, 0.5j])
        assert np.array_equal(fn(grid)[:, 0], fn(cplx))
    p, dp = poly.with_derivative(cplx)
    assert np.array_equal(p, poly(cplx))
    assert np.array_equal(dp, poly.derivative(cplx))


def test_scalar_evaluation_overflows_to_inf_as_an_array_does():
    poly = DirichletPoly(CANTOR)
    with np.errstate(over="ignore"):
        for fn in (poly, poly.derivative, poly.second_derivative):
            assert fn(-1000.0) == fn(np.array([-1000.0]))[0]
            assert np.isinf(fn(-1000.0))


@pytest.mark.parametrize("pairs", EVAL_SETS.values(), ids=EVAL_SETS.keys())
def test_lower_poly_scalar_and_array_agree_bit_for_bit(pairs):
    q, dq = zeta._lower_poly(RatioMultiset.from_pairs(pairs))
    ts = np.array([-1.0, -0.25, 0.0, 0.6, 1.0, 2.5])
    for fn in (q, dq):
        values = fn(ts)
        for t, value in zip(ts, values):
            scalar = fn(float(t))
            assert isinstance(scalar, float)
            assert scalar == value


# ---------------------------------------------------------------- evaluation


def test_zeta_eval_cantor_at_two():
    poly = DirichletPoly(CANTOR)
    assert zeta_eval(poly, 2.0) == pytest.approx(9 / 7, abs=1e-14)


def test_zeta_eval_large_re_tends_to_one():
    poly = DirichletPoly(KOCH)
    assert zeta_eval(poly, 200.0) == pytest.approx(1.0, abs=1e-12)


def test_zeta_eval_refuses_pole():
    poly = DirichletPoly(CANTOR)
    d = similarity_dimension(CANTOR)
    with pytest.raises(PoleProximityError):
        zeta_eval(poly, d)


def test_residue_simple_cantor():
    poly = DirichletPoly(CANTOR)
    d = similarity_dimension(CANTOR)
    assert residue_simple(poly, d) == pytest.approx(1 / LOG3, abs=1e-12)


def test_residue_simple_two_halves():
    rm = RatioMultiset(((0.5, 2),))
    assert residue_simple(DirichletPoly(rm), 1.0) == \
        pytest.approx(1 / np.log(2), abs=1e-12)


def test_residue_simple_rejects_non_pole():
    poly = DirichletPoly(CANTOR)
    with pytest.raises(ValueError):
        residue_simple(poly, 2.0 + 0j)


def test_residue_simple_rejects_located_double_pole():
    # 1 - 3 z^2 - 2 z^3 = (1 + z)^2 (1 - 2z) with z = 2^-s: the located
    # double poles sit ~3e-8 off the exact ones, where |P'| ~ 1e-7
    poly = DirichletPoly(RatioMultiset(((1 / 4, 3), (1 / 8, 2))))
    dims = lattice_poles(detect_lattice(poly.ratios), im_max=5.0)
    doubles = [p.omega for p in dims.poles if p.multiplicity == 2]
    assert doubles and all(abs(poly.derivative(w)) > 1e-10 for w in doubles)
    for w in doubles:
        with pytest.raises(MultiplePoleError):
            residue_simple(poly, w)
    simple = [p.omega for p in dims.poles if p.multiplicity == 1]
    assert residue_simple(poly, simple[0]) == \
        pytest.approx(1 / poly.derivative(simple[0]), rel=1e-14)


def test_residue_contour_matches_simple():
    poly = DirichletPoly(CANTOR)
    d = similarity_dimension(CANTOR)
    res = residue_contour(lambda s: zeta_eval(poly, s), d, radius=1e-3)
    assert res == pytest.approx(residue_simple(poly, d), rel=1e-10)


# ------------------------------------------------------- alpha convention


def test_residue_of_zeta_at_half_scale():
    # the explicit formula's alpha convention: s -> zeta(2s) has a simple
    # pole at omega/2 with residue residue_simple(P, omega) / 2
    dims = lattice_poles(detect_lattice(CANTOR), im_max=20.0)
    poly = DirichletPoly(CANTOR)
    omegas = omegas_of(dims)
    omega = omegas[np.argmin(np.abs(omegas.imag))]
    res = residue_contour(lambda s: zeta_eval(poly, 2 * s), omega / 2,
                          radius=1e-3)
    assert res == pytest.approx(residue_simple(poly, omega) / 2, rel=1e-9)


def test_json_roundtrip():
    # poles.json carries every pole and residue and the lattice; alpha
    # belongs to the explicit formula, not to a set of zeros of P
    dims = lattice_poles(detect_lattice(CANTOR), im_max=20.0)
    doc = json.loads(dims.to_json())
    poles = doc["poles"]
    assert {"re", "im", "res_re", "res_im", "mult"} <= set(poles[0])
    assert np.allclose([complex(p["re"], p["im"]) for p in poles],
                       omegas_of(dims))
    assert np.allclose([complex(p["res_re"], p["res_im"]) for p in poles],
                       [p.residue for p in dims.poles])
    assert [p["mult"] for p in poles] == [p.multiplicity for p in dims.poles]
    assert doc["lattice"]["generator"] == pytest.approx(
        dims.lattice.generator)
    assert set(doc) == {"poles", "window", "lattice"}


# ------------------------------------------------------- GKF simplicity


@pytest.mark.parametrize("n,r", [(3, 1 / 3), (4, 3 - 2 * np.sqrt(2))])
def test_gkf_lattice_pole_simplicity(n, r):
    ell = (1 - r) / 2
    rm = RatioMultiset.from_pairs(((ell, 2), (r, n - 1)))
    lat = detect_lattice(rm)
    assert lat is not None
    dims = lattice_poles(lat, im_max=60.0)
    poly = DirichletPoly(rm)
    for p in dims.poles:
        assert p.multiplicity == 1
        assert abs(poly.derivative(p.omega)) > 1e-6
