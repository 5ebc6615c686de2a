"""Dirichlet heat inflow on polygonal domains and heat content E(t).

The model problem holds the boundary at temperature 1 with zero initial
data; E(t) integrates the temperature over the region.  The solver is
implicit (backward) Euler with the 5-point Laplacian on a masked grid:
interior cells are unknowns, every non-interior cell bordering the
interior is a Dirichlet-1 ghost, and each linear solve is conjugate
gradient to 1e-10 (M-matrix, so the discrete solution is monotone in
time and obeys 0 <= u <= 1).

Heat content is integrated with trapezoidal closure: interior cells at
full weight h^2, boundary-cut cells at half weight (value 1).  Without
the half-weight ring the content of the near-boundary strip of width
~h/2 is lost, which at small t is the dominant error.

Time stepping keeps dt = h^2/2 until the first requested time, then lets
dt grow geometrically with dt <= growth * t (backward Euler's local error
on the parabolic boundary layer scales like dt/t, so a capped ratio gives
a uniform relative error) while always landing exactly on save times.

An independent Brownian-path Monte Carlo estimator cross-checks E(t):
u(x, t) is the probability that a path from x exits before t, so E(t) is
area times the exit probability from a uniform start, estimated with an
Euler-Maruyama walk plus a Brownian-bridge boundary correction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.fft import dstn, idstn
from scipy.sparse.linalg import LinearOperator, cg

from .errors import GeometryError, ResolutionError
from .geom import (point_in_polygon, point_in_polygon_mask,
                   points_to_segments_distance, polygon_area)
from .sampled import SampledFunction
from .vonkoch import GKCParams, snowflake

CG_TOL = 1e-10

#: dt may grow to at most this fraction of the current time
DT_GROWTH = 0.01


@dataclass(frozen=True)
class HeatProblem:
    """Unit boundary temperature, zero initial temperature on a polygon.

    The diffusivity is 1; a diffusivity C only rescales time,
    E_C(t) = E_1(C t), so callers rescale their time grids.
    """

    region: np.ndarray = field(repr=False)

    def __post_init__(self):
        area = polygon_area(np.asarray(self.region, dtype=float))
        if abs(area) <= 0:
            raise GeometryError("region must have positive area")

    @property
    def area(self) -> float:
        return abs(polygon_area(np.asarray(self.region, dtype=float)))


@dataclass(frozen=True)
class HeatField:
    """Solver output: interior/ghost masks, content series, optional fields."""

    h: float
    bbox: tuple[float, float, float, float]
    interior: np.ndarray = field(repr=False)
    ghost: np.ndarray = field(repr=False)
    times: np.ndarray = field(repr=False)
    contents: np.ndarray = field(repr=False)
    fields: dict = field(default_factory=dict, repr=False)
    meta: dict = field(default_factory=dict)


def _build_masks(region: np.ndarray, h: float, pad_cells: int = 2):
    # grid aligned so axis-parallel polygon edges at multiples of h pass
    # through cell centers: the Dirichlet ghost ring then sits exactly on
    # the boundary and the trapezoidal content closure is second order
    poly = np.asarray(region, dtype=float)
    xmin, ymin = poly.min(axis=0)
    xmax, ymax = poly.max(axis=0)
    x0 = xmin - (pad_cells + 0.5) * h
    y0 = ymin - (pad_cells + 0.5) * h
    nx = int(np.ceil((xmax - x0) / h)) + pad_cells + 1
    ny = int(np.ceil((ymax - y0) / h)) + pad_cells + 1
    xs = x0 + (np.arange(nx) + 0.5) * h
    ys = y0 + (np.arange(ny) + 0.5) * h
    interior = point_in_polygon_mask(xs, ys, poly, strict=True)
    # boundary-cut ring: non-interior cells with a corner inside
    cx = x0 + np.arange(nx + 1) * h
    cy = y0 + np.arange(ny + 1) * h
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
    return (x0, y0, nx, ny), interior, ghost


def _rectangle_block(interior: np.ndarray):
    """Index box when the interior mask is a full rectangle, else None.

    For axis-aligned rectangular regions the masked Laplacian coincides
    with the Dirichlet Laplacian on an index box, which the discrete sine
    transform diagonalizes; CG then converges immediately with the DST
    solve as preconditioner.
    """
    ii, jj = np.nonzero(interior)
    if len(ii) == 0:
        return None
    i0, i1 = int(ii.min()), int(ii.max()) + 1
    j0, j1 = int(jj.min()), int(jj.max()) + 1
    if (i1 - i0) * (j1 - j0) != len(ii):
        return None
    if not interior[i0:i1, j0:j1].all():
        return None
    return i0, i1, j0, j1


def _dst_preconditioner(block, h: float, step: float):
    i0, i1, j0, j1 = block
    mx, my = i1 - i0, j1 - j0
    kx = np.arange(1, mx + 1)
    ky = np.arange(1, my + 1)
    lam_x = 2.0 * (1.0 - np.cos(np.pi * kx / (mx + 1))) / h ** 2
    lam_y = 2.0 * (1.0 - np.cos(np.pi * ky / (my + 1))) / h ** 2
    denom = 1.0 + step * (lam_x[:, None] + lam_y[None, :])

    def apply(vec):
        grid = vec.reshape(mx, my)
        hat = dstn(grid, type=1, norm="ortho")
        out = idstn(hat / denom, type=1, norm="ortho")
        return out.reshape(-1)

    return LinearOperator((mx * my, mx * my), matvec=apply)


def _assemble(interior: np.ndarray, h: float):
    """Dirichlet Laplacian A (scaled 1/h^2) and ghost-count source vector."""
    nx, ny = interior.shape
    ids = -np.ones(interior.shape, dtype=np.int64)
    n = int(interior.sum())
    ids[interior] = np.arange(n)
    rows, cols = [], []
    ghost_count = np.zeros(n)
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        src = np.zeros_like(interior)
        src[max(0, -dx):nx - max(0, dx), max(0, -dy):ny - max(0, dy)] = \
            interior[max(0, dx):nx - max(0, -dx),
                     max(0, dy):ny - max(0, -dy)]
        pair = interior & src
        rows.append(ids[pair])
        shifted = np.roll(np.roll(ids, -dx, axis=0), -dy, axis=1)
        cols.append(shifted[pair])
        missing = interior & ~src
        np.add.at(ghost_count, ids[missing], 1.0)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    adj = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, n))
    lap = (sparse.identity(n, format="csr") * 4.0 - adj) / h ** 2
    return ids, lap, ghost_count / h ** 2


def solve_heat_fdm(problem: HeatProblem, h: float, dt: float,
                   t_end: float, save_times,
                   keep_fields: bool = False) -> HeatField:
    """March the masked implicit-Euler system, recording E at save times."""
    if h <= 0 or dt <= 0:
        raise ValueError("h and dt must be positive")
    save_times = np.asarray(sorted(set(float(t) for t in save_times)))
    if np.any(save_times > t_end * (1 + 1e-12)):
        raise ValueError("save_times must not exceed t_end")
    (x0, y0, nx, ny), interior, ghost = _build_masks(problem.region, h)
    ids, lap, ghost_src = _assemble(interior, h)
    n = lap.shape[0]
    half_ring = 0.5 * float(ghost.sum())
    block = _rectangle_block(interior)

    u = np.zeros(n)
    t = 0.0
    times, contents = [], []
    fields = {}
    save_idx = 0
    dt_floor = dt
    dt_current = dt_floor
    matrix_dt = None
    matrix = None
    precond = None
    while save_idx < len(save_times):
        target = save_times[save_idx]
        # quantized geometric growth: dt doubles only when the growth cap
        # allows, so the system matrix stays fixed for runs of steps
        cap = max(dt_floor, DT_GROWTH * t)
        if cap >= 2.0 * dt_current:
            dt_current = cap
        step = min(dt_current, target - t)
        step = max(step, min(dt_floor, target - t))
        if matrix is None or step != matrix_dt:
            matrix = LinearOperator(
                (n, n),
                matvec=lambda v, s=step: v + s * (lap @ v))
            matrix_dt = step
            precond = (None if block is None
                       else _dst_preconditioner(block, h, step))
        rhs = u + step * ghost_src
        u_new, info = cg(matrix, rhs, x0=u, rtol=CG_TOL, atol=0.0,
                         maxiter=10000, M=precond)
        if info != 0:
            raise ArithmeticError(
                f"conjugate gradient failed (info={info}) at t={t}")
        u = u_new
        t += step
        if abs(t - target) <= 1e-12 * max(target, 1.0):
            t = target
            content = h ** 2 * (float(u.sum()) + half_ring)
            times.append(t)
            contents.append(content)
            if keep_fields:
                grid = np.full(interior.shape, np.nan)
                grid[interior] = u
                grid[ghost] = 1.0
                fields[t] = grid
            save_idx += 1
    return HeatField(h=h, bbox=(x0, y0, x0 + nx * h, y0 + ny * h),
                     interior=interior, ghost=ghost,
                     times=np.asarray(times), contents=np.asarray(contents),
                     fields=fields,
                     meta={"h": h, "dt_floor": dt_floor,
                           "dt_growth": DT_GROWTH,
                           "area": problem.area})


def heat_content(field: HeatField) -> SampledFunction:
    """E(t) series measured during the march (trapezoidal cell closure)."""
    return SampledFunction(field.times, field.contents, meta=dict(field.meta))


def solve_heat_content(problem: HeatProblem, h: float,
                       save_times) -> SampledFunction:
    """Solve with dt = h^2/2 and return E(t) at the requested times."""
    save_times = np.asarray(sorted(set(float(t) for t in save_times)))
    field = solve_heat_fdm(problem, h, h ** 2 / 2.0, float(save_times[-1]),
                           save_times)
    return heat_content(field)


# ---------------------------------------------------------------------------
# Monte Carlo cross-check


def heat_content_mc(region: np.ndarray, t_values, n_paths: int,
                    seed: int, steps_per_t: int = 1500,
                    chunk: int = 131072) -> tuple[np.ndarray, np.ndarray]:
    """Brownian exit-probability estimate of E(t) with statistical errors.

    Paths start uniformly in the region and take Euler-Maruyama steps of
    standard deviation sqrt(2 dt) per coordinate; a Brownian-bridge
    correction kills paths that cross the boundary between checkpoints.
    Each path carries a lower bound on its boundary distance so exact
    edge distances are only recomputed inside the boundary layer.
    Returns (E_estimates, one-sigma errors) aligned with t_values.  The
    RNG stream is fully determined by ``seed``.
    """
    poly = np.asarray(region, dtype=float)
    area = abs(polygon_area(poly))
    lo = poly.min(axis=0)
    hi = poly.max(axis=0)
    edge_b = np.roll(poly, -1, axis=0)  # edges run poly[i] -> edge_b[i]

    rng = np.random.default_rng(seed)
    t_values = np.asarray(t_values, dtype=float)
    estimates = np.zeros(len(t_values))
    sigmas = np.zeros(len(t_values))
    for ti, t in enumerate(t_values):
        n_steps = steps_per_t
        dt = t / n_steps
        sd = np.sqrt(2.0 * dt)
        near = 9.0 * sd  # beyond this a step cannot plausibly reach the wall
        exited_total = 0
        remaining = n_paths
        while remaining > 0:
            m = min(chunk, remaining)
            remaining -= m
            pts = np.empty((0, 2))
            while len(pts) < m:
                cand = lo + rng.random((2 * m, 2)) * (hi - lo)
                pts = np.vstack([pts, cand[point_in_polygon(cand, poly)]])
            pts = pts[:m]
            # exact at start
            d_lb = points_to_segments_distance(pts, poly, edge_b)
            alive_idx = np.arange(m)
            for _ in range(n_steps):
                k = len(alive_idx)
                if k == 0:
                    break
                step = rng.normal(0.0, sd, size=(k, 2))
                pts[alive_idx] += step
                d_lb[alive_idx] -= np.hypot(step[:, 0], step[:, 1])
                near_mask = d_lb[alive_idx] < near
                if near_mask.any():
                    ni = alive_idx[near_mask]
                    inside = point_in_polygon(pts[ni], poly)
                    d_new = points_to_segments_distance(pts[ni], poly,
                                                        edge_b)
                    dead = ~inside
                    d_old = np.maximum(d_lb[ni] + np.hypot(
                        step[near_mask, 0], step[near_mask, 1]), 0.0)
                    pcross = np.exp(-np.maximum(d_old * d_new, 0.0) / dt)
                    kill = rng.random(len(ni)) < pcross
                    dead |= kill & inside
                    d_lb[ni] = d_new
                    if dead.any():
                        keep = np.ones(k, dtype=bool)
                        keep[np.flatnonzero(near_mask)[dead]] = False
                        alive_idx = alive_idx[keep]
            exited_total += int(m - len(alive_idx))
        p = exited_total / n_paths
        estimates[ti] = area * p
        sigmas[ti] = area * np.sqrt(max(p * (1 - p), 1e-12) / n_paths)
    return estimates, sigmas


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
                        h: float, budget_rel: float = 0.02
                        ) -> HeatScalingReport:
    """Check E_{lambda Omega}(t) = lambda^2 E_Omega(t/lambda^2) with
    independent solves at the same relative resolution."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    ts = np.asarray(sorted(t_list), dtype=float)
    base = solve_heat_content(problem, h, ts / lam ** 2)
    scaled_problem = HeatProblem(region=np.asarray(problem.region) * lam)
    scaled = solve_heat_content(scaled_problem, lam * h, ts)
    lhs = scaled.vals
    rhs = lam ** 2 * base.vals
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)
    return HeatScalingReport(ts=ts, lhs=lhs, rhs=rhs,
                             max_rel_dev=float(rel.max()),
                             passed=bool(rel.max() <= budget_rel))


def decomposition_remainder(params: GKCParams, level: int, t_list,
                            h: float) -> SampledFunction:
    """R(t) = E(t) - [2 ell^2 E(t/ell^2) + (n-1) r^2 E(t/r^2)] on the
    (n, r) snowflake, using the parabolic scaling law for the images.

    The full-region heat content appears at three parabolic scales from
    one solve.  meta carries the fitted bound max |R|/t over the window.
    """
    ts = np.asarray(sorted(t_list), dtype=float)
    if np.any(ts < 25.0 * h ** 2):
        raise ResolutionError("t below 25 h^2 is not resolvable")
    region = snowflake(params, level)
    if not region.verified_simple:
        raise GeometryError("snowflake region is not verified simple; "
                            "heat checks refuse it")
    ell, r, n = params.ell, params.r, params.n
    all_ts = np.unique(np.concatenate([ts, ts / ell ** 2, ts / r ** 2]))
    problem = HeatProblem(region=region.boundary)
    e = solve_heat_content(problem, h, all_ts)

    def E(t):
        return np.interp(t, e.ts, e.vals)

    rem = E(ts) - (2 * ell ** 2 * E(ts / ell ** 2)
                   + (n - 1) * r ** 2 * E(ts / r ** 2))
    c_fit = float(np.max(np.abs(rem) / ts))
    return SampledFunction(ts, rem, meta={
        "h": h, "level": level, "n": params.n, "r": params.r,
        "linear_bound_fit": c_fit, "content_meta": dict(e.meta),
        "content_ts": [float(x) for x in e.ts],
        "content_vals": [float(v) for v in e.vals],
    })


def heat_exponent_fit(content: SampledFunction,
                      window: tuple[float, float]) -> float:
    """Fractal exponent p of E(t) ~ a t^p + b t over a window.

    Scans p with linear least squares for (a, b) at each candidate and
    refines the best by parabolic interpolation; subtracting the t^1 bulk
    term is what isolates the boundary contribution.
    """
    tmin, tmax = window
    sel = (content.ts >= tmin) & (content.ts <= tmax)
    if sel.sum() < 8:
        raise ValueError("need at least 8 samples inside the window")
    t, ev = content.ts[sel], content.vals[sel]

    def sse(p):
        design = np.column_stack([t ** p, t])
        coef, *_ = np.linalg.lstsq(design, ev, rcond=None)
        resid = ev - design @ coef
        return float(resid @ resid)

    grid = np.linspace(0.05, 0.98, 373)
    errs = np.array([sse(p) for p in grid])
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
