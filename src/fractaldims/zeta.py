"""Scaling ratios, Dirichlet polynomials, similarity dimensions, and poles.

The central object is the function P(s) = 1 - sum_k a_k * lambda_k^s built
from a multiset of scaling ratios lambda_k in (0,1) with integer
multiplicities a_k.  Its unique real zero is the similarity dimension D
(Moran's equation), and its complex zeros are the possible complex
dimensions of any attractor carrying those ratios.  The associated scaling
zeta function is zeta(s) = 1/P(s).

Two pole-location routes are provided; both locate only the poles with
Im >= 0.  P has real coefficients and increases strictly on the real
axis, so D is its only real zero and ``_conjugate_closed`` mirrors the
others exactly.  In the lattice case (all ratios integer powers of a
common generator) the zeros are read off from an ordinary polynomial and
lie periodically on finitely many vertical lines.  In the nonlattice case
D comes from Moran's equation, and as
Im P(sigma + i tau) = sum a_k lambda_k^sigma sin(tau log(1/lambda_k)) > 0
for 0 < tau < pi / log(1/lambda_min), the rest lie in one rectangle above
that strip.  Newton's method from a seed lattice over the rectangle,
deflated by the zeros already found, locates them; the rectangle's
winding count of P'/P, from vectorized composite Gauss-Legendre rules on
its edges, certifies that none is missing (Kravanja & Van Barel,
*Computing the Zeros of Analytic Functions*, LNM 1727, 2000).  Everything
here is pure and operates on immutable values; poles are sorted by
(Im, Re) so output is deterministic.

P, P', P'' and the Moran sum take a number or an array.  Newton steps,
residues and the real-root brackets evaluate one number at a time, a
few terms each, where numpy's per-call dispatch costs more than the
arithmetic; there the K-term sums run in plain float or complex
arithmetic over (a_k, log lambda_k), built once per ``RatioMultiset``.
Arrays (the winding panels, the deflated Newton seeds, ``zeta_eval`` on
a grid) stay in numpy.  Both paths form each term as
a_k exp(s log lambda_k), with exp rounding as the C library's, and add
the terms left to right, so a number and the same number inside an array
give the same bits (``_ExpSum``, ``_ksum``).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (ContourError, MultiplePoleError, PoleProximityError)

#: |P(omega)| threshold for accepting a located pole
POLE_TOL = 1e-10

#: refusal threshold for direct zeta evaluation near a pole
NEAR_POLE_TOL = 1e-13

#: a located zero is simple when |P'|^2 / (|P''| |P|) exceeds this, with
#: |P| floored at its round-off; next to a zero of multiplicity m >= 2 the
#: quotient is at most m / (m - 1) <= 2, at a polished simple zero ~1e15
SIMPLE_POLE_MARGIN = 1e3

#: denominator cap for the rational test on log-ratio quotients
LATTICE_MAX_DENOMINATOR = 64

#: tolerance of the continued-fraction lattice test
LATTICE_TOL = 1e-12

MERGE_TOL = 1e-12  #: relative gap below which from_pairs merges ratios

NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-15  #: Newton stops at a step below this * max(1, |x|)


# ---------------------------------------------------------------------------
# ratio multisets and the Dirichlet polynomial


def _frozen(values) -> np.ndarray:
    arr = np.array(values)
    arr.flags.writeable = False
    return arr


def _multiplicity(m) -> int:
    """m as an int; a bool or a fractional value, which int() would read
    as 1 or truncate, is refused like any value below 1."""
    try:
        k = int(m)
    except (TypeError, ValueError, OverflowError):
        k = 0
    if isinstance(m, (bool, np.bool_)) or k != m or k < 1:
        raise ValueError(f"multiplicity {m!r} is not an integer >= 1")
    return k


@dataclass(frozen=True)
class RatioMultiset:
    """Distinct scaling ratios with multiplicities, sorted decreasing.

    entries: ((ratio, multiplicity), ...) with 1 > r_1 > r_2 > ... > r_M > 0
    and every multiplicity a positive integer.
    """

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        ent = sorted(((float(r), _multiplicity(m)) for r, m in self.entries),
                     key=lambda e: -e[0])
        if not ent:
            raise ValueError("need at least one ratio")
        for r, _ in ent:
            if not (0.0 < r < 1.0):
                raise ValueError(f"ratio {r} not in (0,1)")
        for (r1, _), (r2, _) in zip(ent, ent[1:]):
            if r1 == r2:
                raise ValueError("ratios must be pairwise distinct")
        object.__setattr__(self, "entries", tuple(ent))

    @classmethod
    def from_pairs(cls, pairs) -> "RatioMultiset":
        """Build from (ratio, multiplicity) pairs, merging equal ratios.

        Ratios within relative MERGE_TOL of each other collapse into one
        entry with summed multiplicity (e.g. the n=3, r=1/3 case where
        the two derived ratios coincide up to rounding).
        """
        items = sorted(((float(r), _multiplicity(m)) for r, m in pairs),
                       key=lambda e: -e[0])
        merged: list[list[float]] = []
        for r, m in items:
            if merged and abs(merged[-1][0] - r) <= MERGE_TOL * max(r, 1e-300):
                merged[-1][1] += m
            else:
                merged.append([r, m])
        return cls(tuple((r, m) for r, m in merged))

    @cached_property
    def ratios(self) -> np.ndarray:
        """The ratios, decreasing, as one read-only array built once."""
        return _frozen([r for r, _ in self.entries])

    @cached_property
    def multiplicities(self) -> np.ndarray:
        """The multiplicities, in the order of ``ratios``, read-only."""
        return _frozen([m for _, m in self.entries])

    @cached_property
    def log_terms(self) -> _ExpSum:
        """The terms a_k exp(s log lambda_k) of the Moran sum, with
        log lambda_k from one np.log of ``ratios``, built once."""
        return _ExpSum(self.multiplicities, np.log(self.ratios))

    @cached_property
    def neg_logs(self) -> tuple[float, ...]:
        """log(1/lambda_k), the weights of P'."""
        return tuple(-log for _, log in self.log_terms.pairs)

    @cached_property
    def log_squares(self) -> tuple[float, ...]:
        """log(lambda_k)^2, the weights of -P''."""
        return tuple(log * log for _, log in self.log_terms.pairs)


def _ksum(terms, weights: tuple[float, ...] | None = None):
    """sum_k w_k t_k (w_k = 1 without weights), left to right, over a
    list of numbers or along the last axis of an array.  np.sum would add
    an array's blocks of 8 doubles pairwise, an order that no scalar loop
    shares beyond 3 complex or 7 real terms."""
    if isinstance(terms, list):
        if weights is not None:
            terms = [t * w for t, w in zip(terms, weights)]
    else:
        if weights is not None:
            terms = terms * np.asarray(weights)
        terms = [terms[..., k] for k in range(terms.shape[-1])]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


@dataclass(frozen=True)
class _ExpSum:
    """The terms c_k exp(s l_k) of an exponential sum.

    At a Python number s (numpy's float64 and complex128 are subclasses
    of float and complex) a list of numbers from math.exp or cmath.exp;
    at an array s an array with k along a new last axis, from numpy's
    complex exp, whose real part is taken for a real s.  Both round as
    the C library's exp and cexp (numpy's real exp is a vector kernel
    that can differ by an ulp), so the two paths give the same bits.
    """

    coefs: np.ndarray
    logs: np.ndarray

    @cached_property
    def pairs(self) -> tuple[tuple[float, float], ...]:
        """(c_k, l_k) as Python floats, for the scalar path."""
        return tuple(zip(self.coefs.astype(float).tolist(),
                         self.logs.tolist()))

    def terms(self, s):
        try:
            if isinstance(s, complex):
                return [c * cmath.exp(s * log) for c, log in self.pairs]
            if isinstance(s, (int, float)):
                return [c * math.exp(s * log) for c, log in self.pairs]
        except OverflowError:
            pass    # numpy's inf, as at an array
        s = np.asarray(s)
        e = np.exp((s[..., None] * self.logs).astype(complex, copy=False))
        return self.coefs * (e if np.iscomplexobj(s) else e.real)


@dataclass(frozen=True)
class DirichletPoly:
    """P(s) = 1 - sum a_k lambda_k^s, an entire function of s."""

    ratios: RatioMultiset

    def __call__(self, s):
        return 1.0 - self.moran_sum(s)

    def moran_sum(self, s):
        """sum a_k lambda_k^s (strictly decreasing along the real axis)."""
        return _ksum(self.ratios.log_terms.terms(s))

    def derivative(self, s):
        """P'(s) = sum a_k lambda_k^s log(1/lambda_k)."""
        return _ksum(self.ratios.log_terms.terms(s), self.ratios.neg_logs)

    def second_derivative(self, s):
        """P''(s) = -sum a_k lambda_k^s log(lambda_k)^2."""
        return -_ksum(self.ratios.log_terms.terms(s),
                      self.ratios.log_squares)

    def with_derivative(self, s):
        """(P(s), P'(s)) from one shared set of terms a_k lambda_k^s."""
        terms = self.ratios.log_terms.terms(s)
        return 1.0 - _ksum(terms), _ksum(terms, self.ratios.neg_logs)


# ---------------------------------------------------------------------------
# real roots: similarity dimensions


def _newton(fn, dfn, x, tol: float = NEWTON_TOL):
    """Newton iteration until a step is below tol * max(1, |x|)."""
    for _ in range(NEWTON_MAX_ITER):
        d = dfn(x)
        if d == 0:
            break
        step = fn(x) / d
        x = x - step
        if abs(step) < tol * max(1.0, abs(x)):
            break
    return x


def _increasing_root(fn, dfn, lo: float, hi: float) -> float:
    """Root of a strictly increasing function by safeguarded Newton.

    The bracket [lo, hi] is widened until fn changes sign across it.
    Newton then runs inside it, each evaluation moving one end of the
    bracket to the iterate; a step that would leave the bracket is
    replaced by the bracket's midpoint.  Once a step is below
    1e-13 * max(1, |x|), ``_newton`` polishes the result; a bracket end
    or an iterate where fn is exactly 0 is returned as it is.  A concave fn
    (Moran's P) or a convex one (the companion q) converges monotonically
    from one side, in a handful of steps where bisection takes ~45.
    """
    flo, fhi = fn(lo), fn(hi)
    while flo > 0:
        lo -= max(1.0, hi - lo)
        flo = fn(lo)
    while fhi < 0:
        hi += max(1.0, hi - lo)
        fhi = fn(hi)
    if flo == 0 or fhi == 0:
        return float(lo if flo == 0 else hi)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        fx = fn(x)
        if fx == 0:
            break
        if fx < 0:
            lo = x
        else:
            hi = x
        d = dfn(x)
        new = x - fx / d if d > 0 else math.inf
        tol = 1e-13 * max(1.0, abs(x))
        if abs(new - x) >= tol and not lo < new < hi:
            new = 0.5 * (lo + hi)
        step, x = abs(new - x), new
        if step < tol:
            break
    return float(_newton(fn, dfn, x))


def similarity_dimension(ratios: RatioMultiset) -> float:
    """Unique real solution D of Moran's equation sum a_k lambda_k^D = 1.

    P(sigma) = 1 - sum a_k lambda_k^sigma is strictly increasing and
    concave on the real axis (each lambda^sigma decreases and is convex),
    so ``_increasing_root`` brackets the root and Newton converges inside
    the bracket in a handful of steps; |P(D)| < 1e-12 on return.  D > 0
    whenever the total multiplicity is at least two.
    """
    poly = DirichletPoly(ratios)
    return _increasing_root(lambda s: float(poly(s)),
                            lambda s: float(poly.derivative(s)),
                            0.0, 1.0)


def _lower_poly(ratios: RatioMultiset):
    """q(t) = (1/m_M) r_M^-t + sum_{k<M} (m_k/m_M) (r_k/r_M)^t, increasing."""
    r = ratios.ratios
    m = ratios.multiplicities
    r_small, m_small = r[-1], m[-1]
    bases = np.concatenate(([1.0 / r_small], r[:-1] / r_small))
    coefs = np.concatenate(([1.0 / m_small], m[:-1] / m_small))
    logb = np.log(bases)
    q_terms = _ExpSum(coefs, logb)
    dq_terms = _ExpSum(coefs * logb, logb)

    def q(t):
        return _ksum(q_terms.terms(t))

    def dq(t):
        return _ksum(dq_terms.terms(t))

    return q, dq


def lower_similarity_dimension(ratios: RatioMultiset) -> float:
    """Unique real root D_l of the increasing companion polynomial.

    Solves (1/m_M)(r_M^-1)^t + sum_{k<M}(m_k/m_M)(r_k/r_M)^t = 1 where r_M
    is the smallest ratio.  D_l is a lower bound for the real part of
    every pole of the scaling zeta function.  With a single distinct
    ratio the equation reduces to Moran's, so D_l = D.
    """
    q, dq = _lower_poly(ratios)
    return _increasing_root(lambda t: q(t) - 1.0, dq, -1.0, 1.0)


# ---------------------------------------------------------------------------
# lattice structure


@dataclass(frozen=True)
class LatticeStructure:
    """Common generator lambda_0 with ratios lambda_k = lambda_0^{k_j}.

    exponents: ((k_j, multiplicity), ...) with gcd of all k_j equal to 1.
    """

    generator: float
    exponents: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ks = [k for k, _ in self.exponents]
        g = math.gcd(*ks)
        if not 0.0 < self.generator < 1.0:
            bad = f"generator={self.generator} is not in (0, 1)"
        elif not ks or any(k < 1 or m < 1 for k, m in self.exponents):
            bad = (f"exponents={self.exponents} must be a nonempty set of "
                   "(k, m) with k >= 1 and m >= 1")
        elif g != 1:
            bad = (f"the exponents k={ks} have gcd {g}, not 1; the same "
                   f"ratios have generator {self.generator}^{g} and "
                   f"exponents k/{g}")
        else:
            return
        raise ValueError(f"invalid lattice structure: {bad}")

    @property
    def vertical_period(self) -> float:
        """Exact spacing 2*pi/log(1/lambda_0) of poles on each vertical line."""
        return 2.0 * math.pi / math.log(1.0 / self.generator)


def detect_lattice(ratios: RatioMultiset,
                   max_denominator: int = LATTICE_MAX_DENOMINATOR
                   ) -> LatticeStructure | None:
    """Rational-relation test on log-ratios via continued fractions.

    Returns a structure iff every log lambda_i / log lambda_1 is rational
    with denominator at most ``max_denominator`` (to within LATTICE_TOL),
    with exponents gcd-reduced.  None is the nonlattice verdict at this
    precision: floating-point input can never be proven irrational.
    """
    logs = np.log(ratios.ratios)
    base = logs[0]
    fracs = []
    for x in logs:
        f = Fraction(x / base).limit_denominator(max_denominator)
        if f.numerator <= 0:
            return None
        if abs(x / base - float(f)) > LATTICE_TOL * max(1.0, abs(x / base)):
            return None
        fracs.append(f)
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // math.gcd(denom_lcm,
                                                          f.denominator)
    ks = [f.numerator * (denom_lcm // f.denominator) for f in fracs]
    g = 0
    for k in ks:
        g = math.gcd(g, k)
    ks = [k // g for k in ks]
    # least-squares generator: logs[i] = k_i * log(lambda0)
    karr = np.array(ks, dtype=float)
    log_lam0 = float(np.dot(karr, logs) / np.dot(karr, karr))
    if not all(abs(k * log_lam0 - x) <= 10 * LATTICE_TOL * max(1.0, abs(x))
               for k, x in zip(ks, logs)):
        return None
    exps = tuple(
        (int(k), int(m)) for k, m in zip(ks, ratios.multiplicities))
    return LatticeStructure(generator=float(np.exp(log_lam0)),
                            exponents=exps)


# ---------------------------------------------------------------------------
# complex dimension sets


@dataclass(frozen=True)
class Pole:
    omega: complex
    residue: complex
    multiplicity: int = 1


@dataclass(frozen=True)
class ComplexDimensionSet:
    """Located poles of a scaling zeta function inside a window.

    Poles are zeros of P, closed under conjugation (P has real
    coefficients) and sorted by (Im, Re).  The explicit formula takes its
    alpha from the command, not from here.
    """

    poles: tuple[Pole, ...]
    window: tuple[float, float, float]  # (re_min, re_max, im_max)
    lattice: LatticeStructure | None = None
    #: actual contour used by the search (the window's upper half, slightly
    #: expanded), and the multiplicity the window's poles must add up to:
    #: the real pole plus twice that contour's winding count less the
    #: zeros located in its top margin, for cross-checking against oracles
    search_rect: tuple[float, float, float, float] | None = None
    search_count: int | None = None

    def to_json(self) -> str:
        doc = {
            "poles": [
                {"re": p.omega.real, "im": p.omega.imag,
                 "res_re": p.residue.real, "res_im": p.residue.imag,
                 "mult": p.multiplicity}
                for p in self.poles
            ],
            "window": {"re_min": self.window[0], "re_max": self.window[1],
                       "im_max": self.window[2]},
            "lattice": None if self.lattice is None else {
                "generator": self.lattice.generator,
                "exponents": [list(e) for e in self.lattice.exponents],
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _conjugate_closed(poles: list[Pole]) -> tuple[Pole, ...]:
    """The poles with Im >= 0 and the exact conjugates of those with
    Im > 0, sorted by (Im, Re): P has real coefficients."""
    upper = [p for p in poles if p.omega.imag >= 0]
    mirror = [Pole(p.omega.conjugate(), p.residue.conjugate(),
                   p.multiplicity) for p in upper if p.omega.imag > 0]
    return tuple(sorted(upper + mirror,
                        key=lambda p: (p.omega.imag, p.omega.real)))


# ---------------------------------------------------------------------------
# direct evaluation and residues


def zeta_eval(poly: DirichletPoly, s):
    """zeta(s) = 1/P(s); refuses evaluation when |P(s)| <= NEAR_POLE_TOL."""
    ps = poly(s)
    pa = np.abs(ps)
    if np.any(pa <= NEAR_POLE_TOL):
        raise PoleProximityError(
            f"|P(s)|={float(np.min(pa)):.3e} too close to a pole",
            float(np.min(pa)))
    return 1.0 / ps


def residue_simple(poly: DirichletPoly, omega: complex) -> complex:
    """Residue 1/P'(omega) of 1/P at a verified simple pole.

    P'(omega) alone does not tell a simple zero from a multiple one
    located only to ~1e-8 (where |P'| ~ 1e-7), so the test is
    scale-aware: the pole is refused as multiple when
    |P'|^2 <= SIMPLE_POLE_MARGIN |P''| max(|P|, round-off of P).
    """
    p = complex(poly(omega))
    if abs(p) >= POLE_TOL:
        raise ValueError(f"omega={omega} is not a pole: |P|={abs(p):.3e}")
    dp = complex(poly.derivative(omega))
    d2p = complex(poly.second_derivative(omega))
    # round-off of 1 - sum a_k lambda_k^omega, whose terms have moduli
    # a_k lambda_k^Re(omega)
    noise = np.finfo(float).eps * (1.0 + float(poly.moran_sum(omega.real)))
    if (abs(dp) <= 1e-10
            or abs(dp) ** 2 <= SIMPLE_POLE_MARGIN * abs(d2p) * max(abs(p),
                                                                  noise)):
        raise MultiplePoleError(
            f"|P'(omega)|={abs(dp):.3e}: pole not simple; use contour residue")
    return complex(1.0 / dp)


def residue_contour(fn, center: complex, radius: float = 1e-4,
                    nodes: int = 256) -> complex:
    """(1/2*pi*i) contour integral of fn around a circle (trapezoid nodes)."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    z = center + radius * np.exp(1j * theta)
    vals = np.asarray([fn(zz) for zz in z])
    return complex(radius * np.mean(vals * np.exp(1j * theta)))


# ---------------------------------------------------------------------------
# lattice pole location


def lattice_poles(structure: LatticeStructure,
                  im_max: float) -> ComplexDimensionSet:
    """All poles with |Im| <= im_max from the lattice polynomial.

    Writing z = lambda_0^s turns P into the ordinary polynomial
    1 - sum m_j z^{k_j}; its roots z_j (companion-matrix eigenvalues,
    Newton-polished) give the pole lines omega = log(z_j)/log(lambda_0),
    each repeating vertically with exact period 2*pi/log(1/lambda_0).
    Poles are located on Im >= 0 and mirrored.
    """
    if im_max <= 0:
        raise ValueError("im_max must be positive")
    ks = [k for k, _ in structure.exponents]
    ms = [m for _, m in structure.exponents]
    deg = max(ks)
    coef = np.zeros(deg + 1)
    coef[deg] = 1.0              # constant term of 1 - sum m z^k
    for k, m in zip(ks, ms):
        coef[deg - k] -= m
    roots = np.roots(coef)

    def q(z):
        return 1.0 - sum(m * z ** k for k, m in zip(ks, ms))

    def dq(z):
        return -sum(m * k * z ** (k - 1) for k, m in zip(ks, ms))

    polished = [_newton(q, dq, z, tol=1e-16) for z in roots]
    # cluster multiple roots
    clusters: list[list[complex]] = []
    for z in sorted(polished, key=lambda w: (w.real, w.imag)):
        if clusters and abs(clusters[-1][0] - z) < 1e-7:
            clusters[-1].append(z)
        else:
            clusters.append([z])

    log_lam0 = math.log(structure.generator)  # negative
    period = structure.vertical_period
    ratios = RatioMultiset(tuple(
        (structure.generator ** k, m) for k, m in structure.exponents))
    poly = DirichletPoly(ratios)

    poles: list[Pole] = []
    for cluster in clusters:
        z = complex(np.mean(cluster))
        mult = len(cluster)
        if abs(z) == 0:
            raise ContourError("polynomial root at z=0", residual=abs(q(0)))
        omega0 = np.log(z) / log_lam0
        # bring the base pole's imaginary part into (-period/2, period/2]
        shift = round(omega0.imag / period)
        omega0 -= 1j * shift * period
        # the lower half is the mirror of the upper one
        m_lo = math.ceil(-omega0.imag / period - 1e-12)
        m_hi = math.floor((im_max - omega0.imag) / period + 1e-12)
        for m in range(m_lo, m_hi + 1):
            # exact vertical spacing by construction
            omega = complex(omega0.real, omega0.imag + m * period)
            omega = _newton_polish(poly, omega)
            if abs(poly(omega)) >= POLE_TOL:
                raise ContourError(
                    f"lattice pole failed verification at {omega}",
                    residual=abs(poly(omega)))
            if mult == 1:
                res = residue_simple(poly, omega)
            else:
                res = residue_contour(lambda s: zeta_eval(poly, s), omega)
            poles.append(Pole(omega, res, mult))

    d_up = similarity_dimension(ratios)
    d_lo = lower_similarity_dimension(ratios)
    return ComplexDimensionSet(poles=_conjugate_closed(poles),
                               window=(d_lo, d_up, float(im_max)),
                               lattice=structure)


def _newton_polish(poly: DirichletPoly, s: complex) -> complex:
    return complex(_newton(poly, poly.derivative, s))


# ---------------------------------------------------------------------------
# nonlattice pole location (deflated Newton, certified by a winding count)


#: Gauss-Legendre order of each winding panel
WINDING_ORDER = 16

#: nodes evaluated per block, so long contours run in flat memory
WINDING_BLOCK_NODES = 4096

#: absolute error allowed on the contour integral of P'/P
WINDING_TOL = 1e-6

SEED_ROUNDS = 6  #: seed-lattice halvings before a missing zero is reported
DISTINCT_TOL = 1e-8  #: relative gap below which two polished zeros are one

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(WINDING_ORDER)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)     # mapped to [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


def _panel_integrals(poly: DirichletPoly, start: np.ndarray,
                     step: np.ndarray) -> np.ndarray:
    """Gauss-Legendre sums of P'/P dz on each panel start + [0, 1] * step,
    evaluated WINDING_BLOCK_NODES nodes at a time."""
    f = np.empty(len(start), dtype=complex)
    per_block = WINDING_BLOCK_NODES // WINDING_ORDER
    for lo in range(0, len(start), per_block):
        sl = slice(lo, lo + per_block)
        z = start[sl, None] + step[sl, None] * _GL_NODES
        p, dp = poly.with_derivative(z)
        f[sl] = step[sl] * (dp / p * _GL_WEIGHTS).sum(axis=1)
    return f


def _winding_number(poly: DirichletPoly, rect) -> int:
    """Number of zeros of P inside a rectangle, by the argument principle.

    The boundary starts as panels about half the fastest period of
    lambda_k^z long.  Each panel's Gauss-Legendre sum of P'/P dz is
    compared with the sum over its two halves; a panel whose sum still
    changes is halved again, so refinement gathers where a zero lies
    close to the contour and stops once the count no longer changes
    (within WINDING_TOL, shared out by panel length).  A zero on the
    contour itself ends in ContourError.  The count is rounded to the
    nearest integer and rejected if it is more than 0.25 from one.
    """
    a, b, c, d = rect  # re in [a,b], im in [c,d]
    corners = np.array([complex(a, c), complex(b, c), complex(b, d),
                        complex(a, d)])
    edges = np.roll(corners, -1) - corners
    panel = np.pi / float(np.max(-np.log(poly.ratios.ratios)))
    pieces = np.maximum(1, np.ceil(np.abs(edges) / panel)).astype(int)
    start = np.concatenate([z0 + dz * np.arange(m) / m
                            for z0, dz, m in zip(corners, edges, pieces)])
    step = np.repeat(edges / pieces, pieces)
    f = _panel_integrals(poly, start, step)
    perimeter = float(np.sum(np.abs(edges)))
    total = 0.0 + 0.0j
    while len(start):
        half = 0.5 * step
        m = len(start)
        hf = _panel_integrals(poly, np.concatenate([start, start + half]),
                              np.concatenate([half, half]))
        f2 = hf[:m] + hf[m:]
        err = np.abs(f2 - f)
        if not np.all(np.isfinite(err)):
            raise ContourError(f"winding integral diverged on {rect}")
        # each panel's share of WINDING_TOL, floored above the round-off
        # of its sums so panels next to a zero can still settle
        done = err <= WINDING_TOL * np.maximum(np.abs(step) / perimeter,
                                               1e-7)
        total += f2[done].sum()
        todo = ~done
        if np.any(np.abs(half[todo]) < 1e-9 * perimeter):
            raise ContourError(
                f"winding integral did not settle on {rect}",
                residual=float(np.max(err[todo])))
        start = np.concatenate([start[todo], start[todo] + half[todo]])
        step = np.tile(half[todo], 2)
        f = np.concatenate([hf[:m][todo], hf[m:][todo]])
    count = total / (2j * np.pi)
    n = int(round(count.real))
    if abs(count - n) > 0.25:
        raise ContourError(
            f"winding count {count} too far from an integer on {rect}",
            residual=abs(count - n))
    return n


def _centres(u: float, v: float, spacing: float) -> np.ndarray:
    """Centres of the fewest equal cells no wider than spacing on [u, v]."""
    n = max(1, math.ceil((v - u) / spacing))
    return u + (np.arange(n) + 0.5) * (v - u) / n


def _deflated_newton(poly: DirichletPoly, seeds: np.ndarray,
                     zeros: list[complex], box) -> np.ndarray:
    """Limits of Newton's method on P(s) / prod_j (s - z_j) from all seeds.

    The step 1 / (P'/P - sum_j 1/(s - z_j)) repels the iterates from the
    zeros z_j already found.  A seed is dropped once its step is below
    1e-12 (and returned) or once it leaves ``box``, before P is evaluated
    there: seeds running off to Re s -> -inf never overflow lambda^s.
    """
    a, b, c, d = box
    found, s, limits = np.asarray(zeros, dtype=complex), seeds, []
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITER):
            p, dp = poly.with_derivative(s)
            step = 1.0 / (dp / p - np.sum(1.0 / (s[:, None] - found), 1))
            s = s - step
            keep = ((a <= s.real) & (s.real <= b)
                    & (c <= s.imag) & (s.imag <= d))
            small = np.abs(step) < 1e-12 * np.maximum(1.0, np.abs(s))
            limits.append(s[keep & small])
            s = s[keep & ~small]
            if not len(s):
                break
    return np.concatenate(limits)


def nonlattice_poles(poly: DirichletPoly, re_band: tuple[float, float],
                     im_max: float) -> ComplexDimensionSet:
    """Locate zeros of P in re_band x [-im_max, im_max].

    The real zero is D from ``similarity_dimension``.  Im P > 0 for
    0 < Im s < pi / log(1/lambda_min), so the others are searched in the
    rectangle above tau_0 = pi / (2 log(1/lambda_min)), whose winding
    count is the certificate.  Newton runs from a seed lattice of spacing
    tau_0 over it, deflated by the zeros already found, and each limit is
    polished on P.  The spacing is halved until the distinct zeros inside
    number the winding count; after SEED_ROUNDS rounds, or with more zeros
    than that, ContourError names both numbers.  The lower half is the
    exact mirror.  A zero on the top edge is avoided by nudging the edge
    upward by up to ~1e-5.

    Only simple zeros are located: the count matches only when each zero
    is simple, and a multiple one is refused by the count check or by
    ``residue_simple``'s MultiplePoleError.  No test or workload has one,
    and floating point cannot tell one from a tight cluster.
    """
    a, b = re_band
    if not (b > a) or im_max <= 0:
        raise ValueError("need a nonempty band and im_max > 0")
    # Expand the search band so no zero sits on the contour: the real
    # direction is always safe (no zeros outside [D_l, D]); the top margin
    # is retried until the winding count settles.
    margin_re = max(1e-6, 1e-3 * (b - a))
    lo, hi = a - margin_re, b + margin_re
    d = similarity_dimension(poly.ratios)
    real = ([Pole(complex(d, 0.0), residue_simple(poly, d))]
            if lo <= d <= hi else [])
    # Im P > 0 at every height in (0, 2 tau0): the bottom edge is zero-free
    tau0 = np.pi / (2.0 * float(np.max(-np.log(poly.ratios.ratios))))
    bottom = min(tau0, 0.5 * float(im_max))
    wi = max(1e-6, 1e-3 * float(im_max))
    for _ in range(10):
        rect = (lo, hi, bottom, float(im_max) + wi)
        try:
            count = _winding_number(poly, rect)
            break
        except ContourError:
            wi *= 1.7
    else:
        raise ContourError("could not free the outer rectangle of zeros")

    top = rect[3]
    zeros, inside, spacing = [], [], tau0
    for _ in range(SEED_ROUNDS):
        if len(inside) >= count:
            break
        seeds = (_centres(lo, hi, spacing)[None, :]
                 + 1j * _centres(bottom, top, spacing)[:, None]).ravel()
        box = (lo - spacing, hi + spacing, bottom - spacing, top + spacing)
        for w in _deflated_newton(poly, seeds, zeros, box):
            z = _newton_polish(poly, complex(w))
            if abs(poly(z)) < POLE_TOL and all(
                    abs(z - y) > DISTINCT_TOL * max(1.0, abs(z))
                    for y in zeros):
                zeros.append(z)
        inside = [z for z in zeros
                  if lo <= z.real <= hi and bottom <= z.imag <= top]
        spacing *= 0.5
    if len(inside) != count:
        raise ContourError(f"located {len(inside)} distinct zeros but "
                           f"winding count was {count} on {rect}")

    kept = [Pole(z, residue_simple(poly, z)) for z in inside
            if z.imag <= im_max + 1e-12]
    # len(inside) == count: twice the count less the top-margin zeros
    return ComplexDimensionSet(poles=_conjugate_closed(real + kept),
                               window=(a, b, float(im_max)), lattice=None,
                               search_rect=rect,
                               search_count=len(real) + 2 * len(kept))
