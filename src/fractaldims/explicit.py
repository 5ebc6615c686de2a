"""Pointwise explicit formulas as symmetric partial sums over poles.

For a function F whose normalization t^(-beta/alpha) F(t) satisfies a
scaling functional equation, the k-fold antiderivative expands as

    F^[k](t) = sum over poles omega of
               (rho_omega / alpha) * t^((beta-omega)/alpha + k)
                                   / ((beta-omega)/alpha + 1)_k  + remainder,

valid pointwise for k >= 2, where rho_omega is the residue of
s -> zeta_f(s/alpha; delta) at omega, the 1/alpha comes from du/alpha in
the Mellin inversion (``formula_term``), and (z)_k is the Pochhammer
symbol.  The sum is a symmetric limit: terms are added in order of
|Im omega| under increasing cutoffs, so conjugate pairs cancel their
imaginary parts.  Residues come in closed form from the zeta
factorization, h(omega/alpha) / P'(omega) at each simple pole (see
mellin.sfe_zeta_residue), never from divergent quadrature.

The direct side is integrated from the first sample t0 > 0, so it differs
from the antiderivative from 0 by a polynomial of degree k - 1, which
``fit_start_polynomial`` removes.  That removes no term of the sum: an
exponent (beta-omega)/alpha + k in {0, ..., k-1} needs Re omega > beta.

``run`` is the whole pipeline, and the one place it is assembled: it
takes each simple pole's residue as h(omega/alpha) (``mellin.sfe_h``)
times the 1/P'(omega) the pole search stored in ``Pole.residue``, builds
the terms and the s = 0 remainder term, sums them, fits the start
polynomial and compares (``ExplicitResult``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceDomainError
from .mellin import sfe_h
from .sampled import SampledFunction, antiderivative
from .zeta import ComplexDimensionSet, DirichletPoly, RatioMultiset

FLAT_TOL = 0.02  #: largest |fitted power| of a remainder flat at t -> 0
SLOPE_SLACK = 0.15  #: allowance below the expected remainder exponent
FLOOR_REL = 1e-12  #: residual noise floor, relative to max |direct|


def pochhammer(z: complex, k: int) -> complex:
    """(z)_k = z (z+1) ... (z+k-1), with (z)_0 = 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = 1.0 + 0.0j
    for j in range(k):
        out *= z + j
    return complex(out)


@dataclass(frozen=True)
class FormulaTerm:
    """One pole's contribution coeff * t^exponent to the partial sums."""

    omega: complex
    coeff: complex
    exponent: complex


def symmetric_order(term: FormulaTerm) -> tuple[float, float, float]:
    """Sort key of the symmetric partial sums, conjugate pairs adjacent."""
    return abs(term.omega.imag), term.omega.imag, term.omega.real


def formula_term(omega: complex, rho: complex, beta: float, alpha: float,
                 k: int) -> FormulaTerm:
    """Term of F^[k] from a simple pole omega of s -> zeta_f(s/alpha).

    With f(t) = t^(-beta/alpha) F(t), Mellin inversion in u = alpha s reads

        f(t) = (1/2 pi i) integral t^(-s) zeta_f(s) ds
             = (1/2 pi i) integral t^(-u/alpha) zeta_f(u/alpha) du/alpha,

    so a residue rho of u -> zeta_f(u/alpha) at omega gives f the term
    (rho/alpha) t^(-omega/alpha).  With z = (beta - omega)/alpha, F then
    carries (rho/alpha) t^z, and its k-fold antiderivative from 0 carries
    (rho/alpha) t^(z+k) / (z+1)_k.
    """
    z = (beta - omega) / alpha
    poch = pochhammer(z + 1.0, k)
    if poch == 0:
        raise ZeroDivisionError(
            f"Pochhammer denominator vanished at omega={omega}")
    return FormulaTerm(omega=complex(omega), coeff=complex(rho) / alpha / poch,
                       exponent=z + k)


@dataclass(frozen=True)
class TermBuildResult:
    terms: tuple[FormulaTerm, ...]
    skipped: tuple[complex, ...]  # non-simple poles excluded, with warning


def build_terms(dims: ComplexDimensionSet, zeta_residues, beta: float,
                alpha: float, k: int) -> TermBuildResult:
    """Assemble one term per simple pole.

    ``zeta_residues`` lists, aligned with dims.poles, the residues of
    s -> zeta_f(s/alpha; delta) at each omega; entries at non-simple
    poles are not read.  Non-simple poles are excluded and reported
    (their contribution needs derivative terms the simple-pole formula
    does not carry).
    """
    if len(zeta_residues) != len(dims.poles):
        raise ValueError("zeta_residues must align with dims.poles")
    terms = []
    skipped = []
    for pole, rho in zip(dims.poles, zeta_residues):
        if pole.multiplicity != 1:
            skipped.append(pole.omega)
            continue
        terms.append(formula_term(pole.omega, rho, beta, alpha, k))
    terms.sort(key=symmetric_order)
    return TermBuildResult(terms=tuple(terms), skipped=tuple(skipped))


def remainder_term(ratios: RatioMultiset, remainder: SampledFunction,
                   beta: float, alpha: float, k: int) -> FormulaTerm | None:
    """Contribution of the remainder transform's own pole at s = 0.

    When the normalized remainder tends to a nonzero constant c0 as
    t -> 0 (its transform then has a simple pole at 0 with residue c0),
    the zeta function of the solution picks up an extra pole at s = 0
    beyond the complex-dimension set, with residue zeta(0) * alpha * c0
    for s -> zeta_f(s/alpha).  Direct antiderivatives contain this
    polynomial-order term, so the comparison series must carry it too.
    Returns None when the remainder vanishes at 0 faster than a constant
    (no pole) or has no clean power behavior.
    """
    if remainder.leading_power is None:
        return None
    p, c0 = remainder.leading_power
    if abs(p) > FLAT_TOL or c0 == 0.0:
        return None
    rho = complex(1.0 / DirichletPoly(ratios)(0.0)) * alpha * c0
    return formula_term(0.0, rho, beta, alpha, k)


@dataclass(frozen=True)
class PartialSumSeries:
    """Evaluated symmetric partial sums for each imaginary-part cutoff."""

    t_grid: np.ndarray = field(repr=False)
    im_cutoffs: tuple[float, ...]
    sums: np.ndarray = field(repr=False)        # (n_cutoffs, n_t) real parts
    imag_leakage: tuple[float, ...] = ()

    def best(self) -> np.ndarray:
        """Partial sum at the largest cutoff."""
        return self.sums[-1]


def evaluate_sum(terms, t_grid, im_cutoffs) -> PartialSumSeries:
    """Sum terms with |Im omega| <= T for each cutoff T.

    Terms are accumulated in increasing |Im omega| (fixed order, so the
    reduction is deterministic); the real part is returned and the
    imaginary leakage recorded, which must be at noise level whenever the
    underlying data is real (conjugate pairing).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0):
        raise ValueError("t_grid must be positive")
    cutoffs = tuple(sorted(im_cutoffs))
    terms = sorted(terms, key=symmetric_order)
    log_t = np.log(t_grid)
    sums = np.zeros((len(cutoffs), len(t_grid)))
    leaks = []
    acc = np.zeros(len(t_grid), dtype=complex)
    idx = 0
    for ci, cutoff in enumerate(cutoffs):
        while idx < len(terms) and abs(terms[idx].omega.imag) <= cutoff:
            tm = terms[idx]
            acc += tm.coeff * np.exp(tm.exponent * log_t)
            idx += 1
        sums[ci] = acc.real
        leaks.append(float(np.max(np.abs(acc.imag))) if len(acc) else 0.0)
    return PartialSumSeries(t_grid=t_grid, im_cutoffs=cutoffs, sums=sums,
                            imag_leakage=tuple(leaks))


def fit_start_polynomial(direct: SampledFunction, series: PartialSumSeries,
                         k: int) -> tuple[SampledFunction, np.ndarray]:
    """``direct``, a k-fold antiderivative from its first sample, on the
    series grid less the degree k - 1 polynomial fitted to direct - series
    with weights 1/|series|; also returns the coefficients, lowest first."""
    t, best = series.t_grid, series.best()
    vals = direct(t)
    poly = np.polynomial.polynomial
    coeffs = poly.polyfit(t, vals - best, k - 1, w=1.0 / np.abs(best))
    return SampledFunction(t, vals - poly.polyval(t, coeffs)), coeffs


@dataclass(frozen=True)
class ExplicitComparison:
    """Residual between a directly computed antiderivative and the sums."""

    t_grid: np.ndarray = field(repr=False)
    residual: np.ndarray = field(repr=False)
    max_rel_dev: float
    fitted_slope: float | None
    expected_remainder_exp: float
    floor: float
    at_floor: bool
    passed: bool


def compare_explicit(direct: SampledFunction, series: PartialSumSeries,
                     expected_remainder_exp: float) -> ExplicitComparison:
    """Fit the decay order of direct - series against the expected one.

    Passes when the log-log slope of |residual| reaches
    expected_remainder_exp - SLOPE_SLACK, or when the residual sits below
    the noise floor (closed-form fixtures hit the floor).
    """
    t = series.t_grid
    direct_vals = direct(t)
    res = direct_vals - series.best()
    scale = float(np.max(np.abs(direct_vals)))
    floor = FLOOR_REL * scale
    max_rel = float(np.max(np.abs(res) / np.maximum(np.abs(direct_vals),
                                                    1e-300)))
    usable = np.abs(res) > floor
    if usable.sum() < 4:
        return ExplicitComparison(
            t_grid=t, residual=res, max_rel_dev=max_rel, fitted_slope=None,
            expected_remainder_exp=expected_remainder_exp, floor=floor,
            at_floor=True, passed=True)
    slope = float(np.polyfit(np.log(t[usable]),
                             np.log(np.abs(res[usable])), 1)[0])
    passed = slope >= expected_remainder_exp - SLOPE_SLACK
    return ExplicitComparison(
        t_grid=t, residual=res, max_rel_dev=max_rel, fitted_slope=slope,
        expected_remainder_exp=expected_remainder_exp, floor=floor,
        at_floor=False, passed=bool(passed))


@dataclass(frozen=True)
class ExplicitResult:
    """The pieces of one explicit-formula comparison (``run``)."""

    #: one term per simple pole, by |Im omega|, then the s = 0 remainder
    #: term when R has one
    terms: tuple[FormulaTerm, ...]
    skipped: tuple[complex, ...]  # non-simple poles, which carry no term
    series: PartialSumSeries
    direct: SampledFunction  # F^[k] less the fitted start polynomial
    start_polynomial: np.ndarray  # its coefficients, lowest first
    comparison: ExplicitComparison


def run(F: SampledFunction, R: SampledFunction, ratios: RatioMultiset,
        dims: ComplexDimensionSet, *, alpha: float, beta: float, k: int,
        delta: float, t_grid, cutoffs) -> ExplicitResult:
    """Compare F^[k] with the partial sums over ``dims`` at ``t_grid``.

    F = sum_k a_k lambda_k^beta F(t / lambda_k^alpha) + R, with R
    sampled on F's grid.  The residues read the normalized F and R up to
    delta / lambda_min^alpha.  Where zeta_R diverges at a pole, raises
    DivergenceDomainError naming the pole, Re(omega)/alpha, the abscissa
    fitted to R and R's first sample.
    """
    ts = F.ts
    norm = SampledFunction(ts, F.vals / ts ** (beta / alpha))
    remainder = SampledFunction(ts, R.vals / ts ** (beta / alpha))
    residues = []
    for pole in dims.poles:
        if pole.multiplicity != 1:
            residues.append(None)  # build_terms skips it
            continue
        omega = pole.omega
        try:
            h = sfe_h(ratios, norm, remainder, complex(omega) / alpha,
                      delta, alpha)
        except DivergenceDomainError:
            # zeta_R converges right of the abscissa of R's power law at
            # its first sample
            fit = remainder.leading_power
            raise DivergenceDomainError(
                f"zeta_R diverges at the pole {omega:.6g}, Re(omega)/alpha="
                f"{omega.real / alpha:.6g} not above the abscissa "
                f"{-fit[0] if fit else 0.0:.6g} fitted to R from t_min="
                f"{ts[0]:g}: raise t_min") from None
        residues.append(complex(h * pole.residue))
    built = build_terms(dims, residues, beta=beta, alpha=alpha, k=k)
    extra = remainder_term(ratios, remainder, beta=beta, alpha=alpha, k=k)
    terms = built.terms + (() if extra is None else (extra,))
    series = evaluate_sum(terms, t_grid, im_cutoffs=cutoffs)
    direct, start_poly = fit_start_polynomial(antiderivative(F, k), series,
                                              k)
    # the residual is O(t^(beta/alpha + k)): remainder order sigma0 = 0
    comparison = compare_explicit(
        direct, series, expected_remainder_exp=beta / alpha + k - 0.05)
    return ExplicitResult(terms=terms, skipped=built.skipped, series=series,
                          direct=direct, start_polynomial=start_poly,
                          comparison=comparison)
