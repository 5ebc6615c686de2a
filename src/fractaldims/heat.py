"""Dirichlet heat inflow on polygonal domains and heat content E(t).

The model problem holds the boundary at temperature 1 with zero initial
data; E(t) integrates the temperature over the region.  Space is the
5-point Laplacian A on a masked grid: interior cells are unknowns, every
non-interior cell bordering the interior is a Dirichlet-1 ghost.  The
grid is centred on the region's bounding box, its centres at
c + (k + eps) h on each axis with eps in {0, 1/2} the offset that puts a
centre nearest the box minimum (see ``_build_masks``).  Heat
content is integrated with trapezoidal closure: interior cells at full
weight h^2, boundary-cut cells at half weight (value 1).  Without the
half-weight ring the content of the near-boundary strip of width ~h/2 is
lost, which at small t is the dominant error.

Time is backward Euler with the one step dt = h^2/2, taken t/dt times
for every t, also when t/dt is not an integer.  A 1 is the ghost source,
so 1 - u(t) = f_t(A) 1 with f_t(x) = (1 + dt x)^(-t/dt): exactly t/dt
implicit steps when t is a multiple of dt.  Between multiples f_t(x) is
the mean of exp(-T x) over a Gamma(t/dt, dt) time T (the Laplace
transform of that law), so 1 - u is a mixture of exact semi-discrete
solutions exp(-T A) 1, each in [0, 1] because A is an M-matrix with
nonnegative row sums: 0 <= u <= 1.  With f_(t+s) = f_t f_s and f_t(A)
entrywise nonnegative, 1 - u(t+s) = f_t(A) f_s(A) 1 <= f_t(A) 1, so u
grows with t.  E(t) depends on t alone, not on which other times were
requested.  One Lanczos run on A from 1/sqrt(n) gives 1^T f_t(A) 1 at
every save time by Gauss quadrature (Golub & Meurant, Matrices, Moments
and Quadrature, 2010).  f_t is completely monotone and A positive
definite, so that Gauss rule is an upper bound on E and the Gauss-Radau
rule with a node fixed at 0 a lower one; the run stops once this
bracket, a bound on the quadrature error, is narrower than KRYLOV_TOL
relative at every save time.  The same run could give 1^T exp(-tA) 1,
but at small t the step h^2/2 cancels most of the closure's spatial error:
on the unit square at h=5e-3 over t in [3e-4, 3e-3] the content is
2.3e-4 off the Fourier series, against 5.4e-3 for exp(-tA), and equal
steps of h^2/4 or 3h^2/4 are about ten times worse than h^2/2.

The run is made on a quarter of the cells when the mask is mirror
symmetric about both axes through its middle, as on the centred grid for
the square, the snowflakes on an even n-gon and the (3, 1/3) snowflake,
and on a half when it is symmetric about one, as for the other odd n.
A commutes with the mask's mirrors and 1/sqrt(n) is invariant
under them, so its Krylov space lies in the mirror-invariant subspace,
and A restricted to that subspace in an orthonormal basis of orbit sums
gives the same Lanczos T_m in exact arithmetic: the same steps, the same
bracket and the same stop (symmetry reduction, Bossavit, Comput. Methods
Appl. Mech. Engrg. 56, 1986; see ``_fold``).  Mirrors are read off the
mask by exact comparison, never off the polygon; a mask without one is
solved whole by the same code.

The run needs products A q, applied matrix-free in CSR column order
(bit-identical to a sparse matrix; see ``_assemble``), a recurrence in
plain numpy, and two tridiagonal eigensolves per stop check by scipy's
``eigh_tridiagonal``, imported only when ``solve_heat_fdm`` runs.  The
recurrence calls no BLAS: OpenBLAS threads its sums on long vectors, so
the contents' bytes would depend on the thread count.

The snowflake's remainder R(t) = E(t) - sum_k a_k lambda_k^2 E(t/lambda_k^2)
comes from ``decomposition_remainder(region, ts, h)``, as the tube's
comes from ``tubes.decomposition_remainder``: one solve on the region
its caller built, at the image times of ``sampled.sfe_split``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import GeometryError, ResolutionError
from .geom import point_in_polygon_mask, polygon_area, rotation_matrix
from .sampled import ResolutionFloor, SampledFunction, fit_window, sfe_split
from .vonkoch import SnowflakeRegion

#: Lanczos steps between stop checks, the cap on steps, and the stop
#: threshold for the relative width of the Gauss / Gauss-Radau bracket
#: of E at every save time (a bound on the quadrature error, not an
#: estimate)
KRYLOV_BLOCK = 20
KRYLOV_MAX = 2000
KRYLOV_TOL = 1e-12

#: the least t whose remainder R a grid of spacing h resolves
HEAT_FLOOR = ResolutionFloor("25h^2", lambda h: 25 * h * h)
PAD_CELLS = 2  #: grid cells around the region's bounding box
SCALING_BUDGET_REL = 0.02  #: verify_heat_scaling's relative budget
#: rotation of verify_heat_scaling's scaled copy, so that its grid cuts
#: the region differently from the base solve's grid
SCALING_ROTATION = 0.3


@dataclass(frozen=True)
class HeatProblem:
    """Unit boundary temperature, zero initial temperature on a polygon.

    The diffusivity is 1; a diffusivity C only rescales time,
    E_C(t) = E_1(C t), so callers rescale their time grids.
    """

    region: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.area <= 0:
            raise GeometryError("region must have positive area")

    @property
    def area(self) -> float:
        return abs(polygon_area(np.asarray(self.region, dtype=float)))


@dataclass(frozen=True)
class HeatField:
    """Solver output: interior mask, content series, run diagnostics."""

    interior: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    contents: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)


def _build_masks(region: np.ndarray, h: float):
    # on each axis the cell centres are c + (k + eps) h, c the midpoint of
    # the region's bounding box and eps in {0, 1/2} the offset that puts a
    # centre nearest the box minimum: polygon edges along the box at a
    # whole number of cells from each other pass through centres, so the
    # Dirichlet ghost ring sits exactly on the boundary and the
    # trapezoidal content closure is second order; and the grid is
    # symmetric about c, so a region symmetric about c has a symmetric
    # mask for ``_fold``.  PAD_CELLS centres lie beyond the box on each side
    poly = np.asarray(region, dtype=float)
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    mid = 0.5 * (lo + hi)
    nx, ny = (np.rint((hi - lo) / h).astype(int) + 2 * PAD_CELLS + 1).tolist()
    xs = mid[0] + (np.arange(nx) - 0.5 * (nx - 1)) * h
    ys = mid[1] + (np.arange(ny) - 0.5 * (ny - 1)) * h
    interior = point_in_polygon_mask(xs, ys, poly, strict=True)
    # boundary-cut ring: non-interior cells with a corner inside
    cx = mid[0] + (np.arange(nx + 1) - 0.5 * nx) * h
    cy = mid[1] + (np.arange(ny + 1) - 0.5 * ny) * h
    corner_in = point_in_polygon_mask(cx, cy, poly)
    any_corner = (corner_in[:-1, :-1] | corner_in[1:, :-1]
                  | corner_in[:-1, 1:] | corner_in[1:, 1:])
    cut = any_corner & ~interior
    # every non-interior 4-neighbor of an interior cell is a Dirichlet ghost
    nb = np.zeros_like(interior)
    nb[1:, :] |= interior[:-1, :]
    nb[:-1, :] |= interior[1:, :]
    nb[:, 1:] |= interior[:, :-1]
    nb[:, :-1] |= interior[:, 1:]
    ghost = (nb & ~interior) | cut
    return interior, ghost


def _assemble(interior: np.ndarray, h: float):
    """Matvec q -> A q of the Dirichlet Laplacian A (scaled 1/h^2) on the
    interior unknowns, without forming A.

    A CSR matvec sums each row's products in column order, x-1, y-1,
    self, y+1, x+1, with -1/h^2 off the diagonal and 4/h^2 on it; this
    adds the same products in the same order, so A q is bit-identical.
    Off-diagonal products come from s = (-1/h^2) q, whose last slot is
    the product with 0, -0.0, read for a non-interior neighbour: adding
    -0.0 changes no sum, just as a missing CSR entry does.  x-neighbours
    are gathered with ``take`` through a padded index grid; y-neighbours
    are the next and previous unknowns, so s is added shifted by one and
    the cells at the end of a y-run get their sums back.
    """
    n = int(np.count_nonzero(interior))
    idx = np.full(interior.shape, n)
    idx[interior] = np.arange(n)
    idx = np.pad(idx, ((1, 1), (0, 0)), constant_values=n)
    x_lo, x_hi = idx[:-2][interior], idx[2:][interior]
    inside = np.pad(interior, ((0, 0), (1, 1)))
    y_lo_out = np.flatnonzero(~inside[:, :-2][interior])
    y_hi_out = np.flatnonzero(~inside[:, 2:][interior])
    off, diag = -1.0 / h ** 2, 4.0 / h ** 2
    s = np.full(n + 1, -0.0)

    def lap(q):
        np.multiply(q, off, out=s[:n])
        v = s.take(x_lo)
        keep = v[y_lo_out]
        v[1:] += s[:n - 1]
        v[y_lo_out] = keep
        v += diag * q
        keep = v[y_hi_out]
        v[:-1] += s[1:n]
        v[y_hi_out] = keep
        v += s.take(x_hi)
        return v

    return lap


def _fold(interior: np.ndarray, h: float):
    """(lap, start): the matvec of A restricted to the mirror-invariant
    vectors, in an orthonormal orbit basis, and e = 1/sqrt(n) in it.

    An axis folds when the mask's occupied span along it equals its own
    flip; the region itself is not consulted.  An odd span keeps its
    middle line, an even span the line after the middle, and the kept
    mask is the quadrant (or half, or whole mask) from those lines on.
    A kept cell stands for its orbit of w = 1, 2 or 4 cells under the
    folding mirrors, by the basis vector u = (sum of the orbit's cells)
    / sqrt(w).  The matrix u^T A u' is ``_assemble``'s operator on the
    kept mask plus the axis terms: across an even span's middle a cell's
    neighbour is its own mirror, -1/h^2 more on that line's diagonal;
    across an odd span's middle line the coupling to the next line is
    -sqrt(2)/h^2 (two cells against one) in place of -1/h^2.  e has the
    coordinates sqrt(w/n).  A commutes with the mirrors and e is
    invariant under them, so the Krylov space of (A, e) lies in this
    subspace and Lanczos on (lap, start) gives the same T_m."""
    n = int(np.count_nonzero(interior))
    # per axis: the first kept line, and whether the span is odd (its
    # first kept line is the mirror line); None when the axis has no mirror
    starts, odds = [], []
    for axis in (0, 1):
        occupied = np.flatnonzero(interior.any(axis=1 - axis))
        span = np.take(interior, np.arange(occupied[0], occupied[-1] + 1),
                       axis=axis)
        if np.array_equal(span, np.flip(span, axis=axis)):
            starts.append(occupied[0] + span.shape[axis] // 2)
            odds.append(span.shape[axis] % 2 == 1)
        else:
            starts.append(0)
            odds.append(None)
    kept = interior[starts[0]:, starts[1]:]
    k = int(np.count_nonzero(kept))
    idx = np.full(kept.shape, -1)
    idx[kept] = np.arange(k)
    weight = np.ones(kept.shape)
    terms = []  # (rows, cols, coefficient): v[rows] += coefficient q[cols]
    for axis, odd in enumerate(odds):
        if odd is None:
            continue
        line = np.take(kept, 0, axis=axis)
        if odd:
            np.moveaxis(weight, axis, 0)[1:] *= 2.0  # off the mirror line
            both = line & np.take(kept, 1, axis=axis)
            a = np.take(idx, 0, axis=axis)[both]
            b = np.take(idx, 1, axis=axis)[both]
            coupling = (1.0 - np.sqrt(2.0)) / h ** 2
            terms += [(a, b, coupling), (b, a, coupling)]
        else:
            weight *= 2.0
            cells = np.take(idx, 0, axis=axis)[line]
            terms.append((cells, cells, -1.0 / h ** 2))
    start = np.sqrt(weight[kept]) / np.sqrt(n)
    lap = _assemble(kept, h)
    if not terms:
        return lap, start

    def folded(q):
        v = lap(q)
        for rows, cols, coefficient in terms:
            v[rows] += coefficient * q[cols]
        return v

    return folded, start


def _lanczos(lap, start: np.ndarray):
    """Yield (q_j, alpha_j, beta_j) of the Lanczos recurrence on the
    matvec ``lap`` from the unit vector ``start``, without
    reorthogonalization; beta_j couples q_j to q_(j+1).  The dot and the
    norm are ``einsum`` reductions and the updates in-place numpy, none
    of them BLAS, so the sums do not depend on the BLAS thread count."""
    q_prev, q = np.zeros_like(start), start
    beta = 0.0
    while True:
        v = lap(q)
        alpha = float(np.einsum("i,i", q, v))
        v -= alpha * q
        v -= beta * q_prev
        beta = float(np.einsum("i,i", v, v)) ** 0.5
        yield q, alpha, beta
        v /= beta
        q_prev, q = q, v


def _gauss_radau(alphas, betas, dt: float, save_times: np.ndarray):
    """Two-sided bracket of 1 - e^T f_t(A) e, e = 1/sqrt(n), at every save
    time, from m Lanczos steps: m alphas and m betas, the last of which
    couples q_m to the next vector.

    f_t(x) = (1 + dt x)^(-t/dt) is completely monotone, its derivatives
    alternate in sign, and A is positive definite.  The m-node Gauss rule
    e_1^T f_t(T_m) e_1 then lies below e^T f_t(A) e, and the (m+1)-node
    Gauss-Radau rule with one node fixed at 0 < lambda_min(A) lies above
    it (Golub & Meurant, Matrices, Moments and Quadrature, 2010, ch. 6);
    both signs hold for Lanczos in floating point (Golub & Strakos,
    Numer. Algorithms 8, 1994).  The Radau matrix borders T_m with
    beta_m and omega = beta_m^2 / d_m, d_m the last pivot of the LDL^T of
    T_m, which puts an eigenvalue at 0; 1/d_m = (T_m^-1)_mm is read off
    T_m's eigenpairs.

    Returns (upper, lower): the Gauss and the Radau rule for
    1 - e^T f_t(A) e, one entry per save time.
    """
    from scipy.linalg import eigh_tridiagonal  # only a solve needs scipy

    def rule(diag, offdiag):
        theta, vecs = eigh_tridiagonal(diag, offdiag)
        # log(1 / f_t(theta)), f_t(x) = (1 + dt x)^(-t/dt)
        logs = np.outer(np.log1p(dt * theta), save_times / dt)
        return theta, vecs, vecs[0] ** 2 @ -np.expm1(-logs)

    theta, vecs, upper = rule(alphas, betas[:-1])
    omega = betas[-1] ** 2 * (vecs[-1] ** 2 @ (1.0 / theta))
    *_, lower = rule([*alphas, omega], betas)
    return upper, lower


def solve_heat_fdm(problem: HeatProblem, h: float, save_times) -> HeatField:
    """Heat content of t/dt backward-Euler steps of dt = h^2/2 at each
    save time t by Lanczos quadrature.

    E(t) = h^2 (n sum_i s_i^2 (1 - f_t(theta_i)) + ring/2) with
    f_t(x) = (1 + dt x)^(-t/dt), n the interior cells, the ring from the
    whole ghost mask, and the Ritz values theta_i and first components
    s_i of their eigenvectors from the run on the mirror-folded operator
    of ``_fold``, whose size is ``meta["unknowns"]``; t/dt need not be an
    integer (see the module docstring).  This Gauss rule is an upper
    bound on the content of the grid operator, and the Gauss-Radau rule
    with a node fixed at 0 a lower bound (see ``_gauss_radau``).
    Lanczos steps are added in blocks until the bracket's relative width
    is below KRYLOV_TOL at every save time, or the Krylov space is
    exhausted; the Gauss value is reported and the width is
    ``meta["krylov_bound"]``, 0 when the space is exhausted and the rule
    exact.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    save_times = np.asarray(sorted(set(float(t) for t in save_times)))
    if save_times.size and not save_times[0] >= 0:
        raise ValueError("save times must not be negative")
    interior, ghost = _build_masks(problem.region, h)
    n = int(np.count_nonzero(interior))
    if n == 0:
        raise ResolutionError(f"no interior cells at h={h}")
    half_ring = 0.5 * float(ghost.sum())
    dt = h ** 2 / 2.0
    # Gershgorin: ||A|| <= 8/h^2; a coupling below round-off of that
    # means the Krylov space is invariant and the quadrature exact
    breakdown = KRYLOV_TOL * 8.0 / h ** 2

    lap, start = _fold(interior, h)
    lanczos = _lanczos(lap, start)
    alphas, betas = [], []
    while True:
        for _, alpha, beta in islice(lanczos, KRYLOV_BLOCK):
            alphas.append(alpha)
            betas.append(beta)
            if beta <= breakdown:
                break
        exhausted = betas[-1] <= breakdown
        m = len(alphas)
        upper, lower = _gauss_radau(alphas, betas, dt, save_times)
        contents = h ** 2 * (n * upper + half_ring)
        bound = 0.0 if exhausted else float(np.max(
            h ** 2 * n * np.abs(upper - lower) / contents, initial=0.0))
        if bound < KRYLOV_TOL:
            break
        if m >= KRYLOV_MAX:
            raise ArithmeticError(
                f"Lanczos quadrature not converged at m={m}: relative "
                f"Gauss-Radau bracket width of E {bound:.3e}")
    return HeatField(interior=interior, times=save_times,
                     contents=contents,
                     meta={"h": h, "dt": dt, "area": problem.area,
                           "unknowns": start.size, "krylov_steps": m,
                           "krylov_bound": bound})


def solve_heat_content(problem: HeatProblem, h: float,
                       save_times) -> SampledFunction:
    """E(t) at the requested times (trapezoidal cell closure)."""
    field = solve_heat_fdm(problem, h, save_times)
    return SampledFunction(field.times, field.contents, meta=dict(field.meta))


# ---------------------------------------------------------------------------
# scaling law, decomposition remainder, exponent fit


@dataclass(frozen=True)
class HeatScalingReport:
    ts: np.ndarray
    lhs: np.ndarray  # E_{lambda Omega}(t)
    rhs: np.ndarray  # lambda^2 E_Omega(t / lambda^2)
    max_rel_dev: float
    passed: bool


def verify_heat_scaling(problem: HeatProblem, lam: float, t_list,
                        h: float) -> HeatScalingReport:
    """Check E_{lambda Omega}(t) = lambda^2 E_Omega(t/lambda^2) with
    independent solves at the same relative resolution.  The scaled copy
    is also rotated by SCALING_ROTATION: heat content is invariant under
    rotation, and without it both solves would see the same cells."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    ts = np.asarray(sorted(t_list), dtype=float)
    base = solve_heat_content(problem, h, ts / lam ** 2)
    sim = lam * rotation_matrix(SCALING_ROTATION)
    scaled_problem = HeatProblem(region=np.asarray(problem.region) @ sim.T)
    scaled = solve_heat_content(scaled_problem, lam * h, ts)
    lhs = scaled.vals
    rhs = lam ** 2 * base.vals
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)
    return HeatScalingReport(ts=ts, lhs=lhs, rhs=rhs,
                             max_rel_dev=float(rel.max()),
                             passed=bool(rel.max() <= SCALING_BUDGET_REL))


def decomposition_remainder(region: SnowflakeRegion, t_list, h: float
                            ) -> tuple[SampledFunction, SampledFunction]:
    """(E, R) at the sorted t_list on a snowflake region, R(t) = E(t) -
    sum_k a_k lambda_k^2 E(t/lambda_k^2), from one solve by ``sfe_split``."""
    ts = np.asarray(sorted(t_list), dtype=float)
    HEAT_FLOOR.check("decomposition_remainder", "t", ts, h)
    problem = HeatProblem(region=region.boundary)
    e, rem = sfe_split(lambda grid: solve_heat_content(problem, h, grid),
                       region.params.ratio_pairs, 2, ts)
    return (SampledFunction(ts, e(ts), meta=dict(e.meta)),
            SampledFunction(ts, rem))


def heat_exponent_fit(content: SampledFunction,
                      window: tuple[float, float]) -> float:
    """Fractal exponent p of E(t) ~ a t^p + b t over a window.

    Scans p on a grid with the linear least squares for (a, b) of every
    candidate at once: projected off the unit t column, E and each t^p
    leave a residual r_E and r_p, and r_E - (r_p.r_E / r_p.r_p) r_p is
    the residual of that candidate's fit.  The best candidate is refined
    by parabolic interpolation; subtracting the t^1 bulk term is what
    isolates the boundary contribution.
    """
    sel = fit_window("heat_exponent_fit", content.ts, window)
    t, ev = content.ts[sel], content.vals[sel]
    grid = np.linspace(0.05, 0.98, 373)
    q = t / np.linalg.norm(t)
    ev = ev - (q @ ev) * q
    powers = t ** grid[:, None]
    powers -= np.outer(powers @ q, q)
    a = (powers @ ev) / np.einsum("ij,ij->i", powers, powers)
    resid = ev - a[:, None] * powers
    errs = np.einsum("ij,ij->i", resid, resid)
    i = int(np.argmin(errs))
    if i == 0 or i == len(grid) - 1:
        return float(grid[i])
    # parabolic refinement around the grid minimum
    p0, p1, p2 = grid[i - 1], grid[i], grid[i + 1]
    e0, e1, e2 = errs[i - 1], errs[i], errs[i + 1]
    denom = (e0 - 2 * e1 + e2)
    if denom <= 0:
        return float(p1)
    return float(p1 + 0.5 * (e0 - e2) / denom * (p1 - p0))
