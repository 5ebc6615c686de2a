import csv
import json
from itertools import islice

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import splu

from fractaldims import heat
from fractaldims.cli import run_command
from fractaldims.errors import GeometryError, ResolutionError
from fractaldims.geom import rotation_matrix
from fractaldims.heat import (HeatProblem, decomposition_remainder,
                              heat_exponent_fit, solve_heat_content,
                              solve_heat_fdm)
from fractaldims.sampled import (SampledFunction, geometric_grid,
                                sfe_split)
from fractaldims.vonkoch import GKCParams, snowflake

from conftest import heat_grids

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
RECTANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.55], [0.0, 0.55]])


def lanczos_fields(problem, h, save_times):
    """Temperature grids {t: u(t)} of the solver's operator: t/dt
    backward-Euler steps of dt = h^2/2, 1 - u(t) = sqrt(n) Q_m f_t(T_m) e_1
    with f_t(x) = (1 + dt x)^(-t/dt) on the Lanczos basis Q_m of
    ``heat._lanczos`` run on the whole, unfolded grid from 1/sqrt(n).
    Steps are added in blocks until the last Krylov coefficient of every
    field is below KRYLOV_TOL (or the space is exhausted); a second pass
    then regenerates the basis to sum the fields.  Each grid is NaN off
    the interior and ghost cells and 1 on the ghosts."""
    interior, ghost = heat._build_masks(problem.region, h)
    n = int(np.count_nonzero(interior))
    lap = heat._assemble(interior, h)
    start = np.full(n, 1.0 / np.sqrt(n))
    save_times = np.asarray(save_times, dtype=float)
    dt = h ** 2 / 2.0
    breakdown = heat.KRYLOV_TOL * 8.0 / h ** 2
    lanczos = heat._lanczos(lap, start)
    alphas, betas = [], []
    while True:
        for _, alpha, beta in islice(lanczos, heat.KRYLOV_BLOCK):
            alphas.append(alpha)
            betas.append(beta)
            if beta <= breakdown:
                break
        theta, vecs = eigh_tridiagonal(alphas, betas[:-1])
        f = np.exp(-np.outer(np.log1p(dt * theta), save_times / dt))
        # 1 - u(t_k) = Q_m coef[:, k]
        coef = np.sqrt(n) * vecs @ (vecs[0][:, None] * f)
        if (betas[-1] <= breakdown
                or np.max(np.abs(coef[-1])) < heat.KRYLOV_TOL):
            break
        assert len(alphas) < heat.KRYLOV_MAX
    w = np.zeros((n, len(save_times)))
    # coef first: zip then stops without one more Lanczos step
    for row, (q, _, _) in zip(coef, heat._lanczos(lap, start)):
        w += q[:, None] * row
    grids = {}
    for k, t in enumerate(save_times):
        grid = np.full(interior.shape, np.nan)
        grid[interior] = 1.0 - w[:, k]
        grid[ghost] = 1.0
        grids[t] = grid
    return grids


@pytest.mark.parametrize("region, h", [
    (SQUARE, 0.02), (snowflake(GKCParams(3, 1 / 3), 2).boundary, 2e-2),
], ids=["square", "snowflake-L2"])
def test_field_oracle_integrates_to_the_solver_content(region, h):
    # ties the field tests to the solver's operator: the oracle's u,
    # closed with the half-weight ghost ring, is the solver's E
    problem = HeatProblem(region=region)
    times = [2e-4, 1e-3, 5e-3, 2e-2, 1e-1]
    grids = lanczos_fields(problem, h, times)
    field = solve_heat_fdm(problem, h, times)
    interior, ghost = heat._build_masks(region, h)
    for t, e in zip(field.times, field.contents):
        integral = h ** 2 * (grids[t][interior].sum() + 0.5 * ghost.sum())
        assert integral == pytest.approx(e, rel=1e-10), t


def test_initial_interior_zero_and_small_t():
    grid = lanczos_fields(HeatProblem(region=SQUARE), 0.02, [2e-4])[2e-4]
    # deep interior still cold after one step
    assert np.nanmin(grid) >= 0.0
    center = grid[grid.shape[0] // 2, grid.shape[1] // 2]
    assert center < 1e-6


def test_discrete_maximum_principle_and_monotonicity():
    times = [1e-3, 5e-3, 2e-2, 1e-1]
    problem = HeatProblem(region=SQUARE)
    grids = lanczos_fields(problem, 0.02, times)
    field = solve_heat_fdm(problem, h=0.02, save_times=times)
    prev = None
    for t in times:
        grid = grids[t]
        vals = grid[np.isfinite(grid)]
        assert np.all(vals >= -1e-12)
        assert np.all(vals <= 1.0 + 1e-12)
        if prev is not None:
            both = np.isfinite(grid) & np.isfinite(prev)
            assert np.all(grid[both] >= prev[both] - 1e-10)
        prev = grid
    assert np.all(np.diff(field.contents) > 0)


def test_steady_state_fills_region():
    problem = HeatProblem(region=SQUARE)
    grid = lanczos_fields(problem, 0.02, [3.0])[3.0]
    field = solve_heat_fdm(problem, h=0.02, save_times=[3.0])
    assert np.nanmin(grid) > 0.999
    assert field.contents[-1] == pytest.approx(1.0, rel=1e-3)


def csr_laplacian(interior, h):
    """The Dirichlet Laplacian on the interior unknowns as a CSR matrix:
    the 5-point second differences of the whole grid, restricted to the
    interior rows and columns."""
    d2 = [sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(k, k))
          for k in interior.shape[::-1]]
    grid = sparse.kronsum(*d2, format="csr")
    ids = np.flatnonzero(interior)
    return grid[ids][:, ids] / h ** 2


def backward_euler_oracle(problem, h, steps):
    """E after each number of steps in ``steps`` of sparse-LU backward
    Euler with dt = h^2/2: w_j = (I + dt A)^-1 w_(j-1), w_0 = 1, u = 1 - w."""
    interior, ghost = heat._build_masks(problem.region, h)
    lap = csr_laplacian(interior, h).tocsc()
    n = lap.shape[0]
    lu = splu(sparse.identity(n, format="csc") + h ** 2 / 2.0 * lap)
    w = np.ones(n)
    contents = []
    for j in range(1, max(steps) + 1):
        w = lu.solve(w)
        if j in steps:
            contents.append(h ** 2 * (n - w.sum() + 0.5 * ghost.sum()))
    return np.array(contents), n


def eigh_oracle(problem, h, save_times):
    """E at any t from a dense eigendecomposition A = V diag(lam) V^T:
    1 - u(t) = V (1 + dt lam)^(-t/dt) V^T 1 with dt = h^2/2.  The
    content sums weights (V^T 1)^2 against 1 - f through expm1: n minus
    the weighted sum of f cancels, up to 4.5e-14 relative at t = dt."""
    interior, ghost = heat._build_masks(problem.region, h)
    lam, vecs = np.linalg.eigh(csr_laplacian(interior, h).toarray())
    dt = h ** 2 / 2.0
    weights = vecs.sum(axis=0) ** 2
    logs = np.outer(np.log1p(dt * lam), np.asarray(save_times) / dt)
    return h ** 2 * (weights @ -np.expm1(-logs) + 0.5 * ghost.sum())


@pytest.mark.parametrize("region, h", [
    (snowflake(GKCParams(3, 1 / 3), 2).boundary, 6e-3),
    (SQUARE, 0.2),
    (SQUARE, 0.02),
])
def test_stencil_matvec_equals_csr_matvec(region, h):
    interior, _ = heat._build_masks(region, h)
    lap = heat._assemble(interior, h)
    csr = csr_laplacian(interior, h)
    n = csr.shape[0]
    rng = np.random.default_rng(7)
    for q in [*rng.standard_normal((3, n)), np.zeros(n)]:
        got, want = lap(q), csr @ q
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def orbit_matrix(interior):
    """(U, w): the n x k 0/1 matrix of interior cells against the kept
    cells that stand for their orbits, and the orbit sizes w.  Written
    apart from ``heat._fold``: on each axis whose occupied span of the
    mask equals its flip, cell i's mirror is lo + hi - i, and a cell
    stands for the orbit of which it is the largest index on both axes."""
    reps = []
    for axis in (0, 1):
        occupied = np.flatnonzero(interior.any(axis=1 - axis))
        lo, hi = occupied[0], occupied[-1]
        span = np.take(interior, np.arange(lo, hi + 1), axis=axis)
        index = np.arange(interior.shape[axis])
        if np.array_equal(span, np.flip(span, axis=axis)):
            index = np.maximum(index, lo + hi - index)
        reps.append(index)
    cells = np.argwhere(interior)
    rep = np.stack([reps[0][cells[:, 0]], reps[1][cells[:, 1]]], axis=1)
    kept = np.zeros_like(interior)
    kept[rep[:, 0], rep[:, 1]] = True
    column = np.full(interior.shape, -1)
    column[kept] = np.arange(np.count_nonzero(kept))
    u = np.zeros((len(cells), np.count_nonzero(kept)))
    u[np.arange(len(cells)), column[rep[:, 0], rep[:, 1]]] = 1.0
    return u, u.sum(axis=0)


FOLD_CASES = {
    # (region, h, unknowns after the fold; None: no fold)
    "square-odd": (SQUARE, 1 / 20, 100),
    "square-even": (SQUARE, 1 / 21, 100),
    "rectangle-odd-even": (RECTANGLE, 1 / 20, 50),
    "snowflake-3-L2": (snowflake(GKCParams(3, 1 / 3), 2).boundary, 2e-2,
                       429),
    "snowflake-4-L2": (snowflake(GKCParams(4, 0.24), 2).boundary, 2e-2,
                       842),
    "square-rotated": (SQUARE @ rotation_matrix(0.3).T, 1 / 20, None),
}


@pytest.mark.parametrize("case", list(FOLD_CASES))
def test_folded_matvec_is_the_orbit_projection(case):
    # lap = W^-1/2 U^T A U W^-1/2 on the kept cells and start = the
    # coordinates of 1/sqrt(n) in the orbit basis, W^1/2 1 / sqrt(n)
    region, h, unknowns = FOLD_CASES[case]
    interior, _ = heat._build_masks(region, h)
    u, w = orbit_matrix(interior)
    n, k = u.shape
    assert k == (n if unknowns is None else unknowns)
    scale = 1.0 / np.sqrt(w)
    want = scale[:, None] * (u.T @ (csr_laplacian(interior, h) @ u)) * scale
    lap, start = heat._fold(interior, h)
    got = np.column_stack([lap(col) for col in np.eye(k)])
    assert np.max(np.abs(got - want)) <= 1e-14 / h ** 2
    assert np.allclose(start, np.sqrt(w / n), rtol=1e-15, atol=0)
    if unknowns is None:
        assert np.array_equal(start, np.full(n, 1.0 / np.sqrt(n)))


@pytest.mark.parametrize("case", list(FOLD_CASES))
def test_folded_solve_matches_the_dense_full_grid(case):
    region, h, unknowns = FOLD_CASES[case]
    problem = HeatProblem(region=region)
    times = [2e-4, 1e-3, 5e-3, 2e-2, 1e-1]
    field = solve_heat_fdm(problem, h, times)
    n = int(np.count_nonzero(field.interior))
    assert field.meta["unknowns"] == (n if unknowns is None else unknowns)
    dense = eigh_oracle(problem, h, times)
    assert np.max(np.abs(field.contents - dense) / dense) < 1e-12


@pytest.mark.parametrize("region, h, steps, between", [
    (snowflake(GKCParams(3, 1 / 3), 2).boundary, 2e-2,
     [1, 2, 3, 5, 8, 15, 40], geometric_grid(3e-4, 3e-3, 24)),
    (SQUARE, 0.05, [1, 8, 40, 160, 800], [2e-3, 0.033, 0.31]),
    (SQUARE, 0.2, [1, 2, 5, 10, 50], [0.01, 0.05, 0.31]),
], ids=["snowflake-L2", "square-0.05", "square-0.2"])
def test_lanczos_matches_backward_euler(region, h, steps, between):
    # t = m h^2/2 is m implicit steps; between multiples the solver's
    # (1 + dt A)^(-t/dt) comes from a dense eigendecomposition
    problem = HeatProblem(region=region)
    at_steps = np.array(steps) * h ** 2 / 2.0
    save_times = np.union1d(at_steps, between)
    field = solve_heat_fdm(problem, h, save_times)
    assert np.array_equal(field.times, save_times)
    stepped, n = backward_euler_oracle(problem, h, steps)
    dense = eigh_oracle(problem, h, save_times)
    got = field.contents[np.searchsorted(save_times, at_steps)]
    assert np.max(np.abs(got - stepped) / stepped) < 1e-12
    assert np.max(np.abs(field.contents - dense) / dense) < 1e-12
    assert field.meta["krylov_bound"] < 1e-12
    if n < 20:
        # the Krylov space is exhausted inside the first block
        assert field.meta["krylov_steps"] <= min(n, heat.KRYLOV_BLOCK - 1)
        assert field.meta["krylov_bound"] == 0.0


@pytest.mark.parametrize("region, h, steps, between", [
    (snowflake(GKCParams(3, 1 / 3), 2).boundary, 2e-2,
     [1, 2, 3, 5, 8, 15, 40], geometric_grid(3e-4, 3e-3, 24)),
    (SQUARE, 0.05, [1, 8, 40, 160, 800], [2e-3, 0.033, 0.31]),
], ids=["snowflake-L2", "square-0.05"])
def test_gauss_radau_brackets_the_dense_content(region, h, steps, between):
    # at every block check the Radau rule is below the exact content of
    # the grid operator and the Gauss rule above it, up to round-off
    problem = HeatProblem(region=region)
    save_times = np.union1d(np.array(steps) * h ** 2 / 2.0, between)
    dense = eigh_oracle(problem, h, save_times)
    field = solve_heat_fdm(problem, h, save_times)
    interior, ghost = heat._build_masks(region, h)
    n = int(np.count_nonzero(interior))
    # the solver's own run: its folded operator and start vector
    lanczos = heat._lanczos(*heat._fold(interior, h))
    alphas, betas = [], []
    slack = 1e-14 * dense
    for m in range(heat.KRYLOV_BLOCK, field.meta["krylov_steps"] + 1,
                   heat.KRYLOV_BLOCK):
        for _, alpha, beta in islice(lanczos, heat.KRYLOV_BLOCK):
            alphas.append(alpha)
            betas.append(beta)
        upper, lower = heat._gauss_radau(alphas, betas, h ** 2 / 2.0,
                                         save_times)
        e_upper = h ** 2 * (n * upper + 0.5 * ghost.sum())
        e_lower = h ** 2 * (n * lower + 0.5 * ghost.sum())
        assert np.all(e_lower <= dense + slack), m
        assert np.all(dense <= e_upper + slack), m
    assert m == field.meta["krylov_steps"]
    assert np.array_equal(field.contents, e_upper)
    error = np.max(np.abs(field.contents - dense) / dense)
    assert error <= field.meta["krylov_bound"] + 1e-14


@pytest.mark.parametrize("region, unknowns", [
    (snowflake(GKCParams(3, 1 / 3), 3).boundary, 6781), (SQUARE, 10000),
], ids=["snowflake-L3", "square"])
def test_bracket_stops_the_bench_solves_at_80_steps(region, unknowns,
                                                    monkeypatch):
    # the Gauss rule is within 1e-12 from m = 79 on both bench configs,
    # and the bracket certifies it at the next check; both fold in two
    problem = HeatProblem(region=region)
    ts = geometric_grid(3e-4, 3e-3, 24)
    field = solve_heat_fdm(problem, 5e-3, ts)
    assert field.meta["unknowns"] == unknowns
    assert field.meta["krylov_steps"] == 80
    assert field.meta["krylov_bound"] < 1e-12
    monkeypatch.setattr(heat, "KRYLOV_BLOCK", 160)
    reference = solve_heat_fdm(problem, 5e-3, ts)
    assert reference.meta["krylov_steps"] == 160
    assert np.max(np.abs(field.contents - reference.contents)
                  / reference.contents) < 1e-12


def test_content_ignores_the_other_save_times():
    # E at t is f_t of one step h^2/2, whatever else was requested
    region = snowflake(GKCParams(3, 1 / 3), 3)
    problem = HeatProblem(region=region.boundary)
    ts = geometric_grid(3e-4, 3e-3, 24)
    alone = solve_heat_fdm(problem, 5e-3, ts)
    union, _ = sfe_split(lambda grid: solve_heat_content(problem, 5e-3, grid),
                         region.params.ratio_pairs, 2, ts)
    at_ts = np.searchsorted(union.ts, ts)
    assert len(union.ts) > len(ts)
    assert np.array_equal(union.ts[at_ts], ts)
    assert np.max(np.abs(union.vals[at_ts] - alone.contents)
                  / alone.contents) < 1e-12


def test_negative_save_time_is_rejected():
    with pytest.raises(ValueError, match="save times must not be negative"):
        solve_heat_fdm(HeatProblem(region=SQUARE), 0.05, [-1e-3, 1e-2])


def test_lanczos_cap_raises(monkeypatch):
    monkeypatch.setattr(heat, "KRYLOV_MAX", 2 * heat.KRYLOV_BLOCK)
    region = snowflake(GKCParams(3, 1 / 3), 2).boundary
    with pytest.raises(ArithmeticError,
                       match=r"m=40: relative Gauss-Radau bracket width "
                             r"of E \d\.\d+e"):
        solve_heat_fdm(HeatProblem(region=region), 6e-3, [1e-3, 3e-3])


def test_content_bounded_by_area():
    # the trapezoidal corner closure can overshoot by O(h^2) per corner
    prob = HeatProblem(region=SQUARE)
    h = 0.01
    e = solve_heat_content(prob, h=h, save_times=[0.01, 0.1, 1.0])
    assert np.all(e.vals <= prob.area + 4 * h * h)


def test_content_matches_square_oracle_coarse(square_oracle):
    for h, window, bound in [(4e-3, (1e-4, 1e-2), 0.01),
                             (2.5e-3, (3e-4, 3e-3), 1e-4)]:
        ts = geometric_grid(*window, 8)
        e = solve_heat_content(HeatProblem(region=SQUARE), h=h,
                               save_times=ts)
        rel = np.abs(e.vals - square_oracle(ts)) / square_oracle(ts)
        assert rel.max() < bound, h


def test_centerline_profile_matches_rod_oracle(rod_profile_oracle):
    rect = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 2.0], [0.0, 2.0]])
    t, h = 0.01, 4e-3
    grid = lanczos_fields(HeatProblem(region=rect), h, [t])[t]
    (xs, ys), _ = heat_grids(rect, h)
    j = int(np.argmin(np.abs(ys - 1.0)))
    sel = np.isfinite(grid[:, j]) & (grid[:, j] < 1.0)
    profile = grid[sel, j]
    exact = rod_profile_oracle(xs[sel], t)
    assert np.max(np.abs(profile - exact)) < 0.01


def test_small_t_perimeter_law(square_oracle):
    # leading law E ~ (2/sqrt(pi)) |dOmega| sqrt(t); perimeter 4
    ts = geometric_grid(1e-6, 1e-5, 8)
    coef = square_oracle(ts) / np.sqrt(ts)
    assert np.allclose(coef, 8 / np.sqrt(np.pi), rtol=0.03)


def test_exact_tiling_toy():
    # four disjoint half-scale squares tile the unit square; with every
    # sub-boundary held at 1 the decomposition is exact, so independent
    # solves of one half-square agree with the rescaled full solve up to
    # discretization.
    ts = geometric_grid(2e-4, 2e-3, 6)
    half = 0.5 * SQUARE
    e_half = solve_heat_content(HeatProblem(region=half), h=1e-3,
                                save_times=ts)
    e_full = solve_heat_content(HeatProblem(region=SQUARE), h=2e-3,
                                save_times=4 * ts)
    union = 4 * e_half.vals           # E of the 4-square union
    predicted = e_full.vals           # = 4 * (1/4) E(4t)
    rel = np.abs(union - predicted) / predicted
    assert rel.max() < 0.01


def test_rotation_invariance_of_content():
    ang = 0.35
    rot = np.array([[np.cos(ang), -np.sin(ang)],
                    [np.sin(ang), np.cos(ang)]])
    ts = geometric_grid(5e-4, 5e-3, 5)
    e1 = solve_heat_content(HeatProblem(region=SQUARE), h=2.5e-3,
                            save_times=ts)
    e2 = solve_heat_content(HeatProblem(region=SQUARE @ rot.T), h=2.5e-3,
                            save_times=ts)
    rel = np.abs(e1.vals - e2.vals) / e1.vals
    assert rel.max() < 0.02


def test_decomposition_remainder_small_level():
    ts = np.array([1e-3, 2e-3, 3e-3])
    _, rem = decomposition_remainder(snowflake(GKCParams(3, 1 / 3), 2), ts,
                                     h=4e-3)
    # contents tend to zero with t, so the remainder does too
    assert np.all(np.abs(rem.vals) < 0.2)


def test_decomposition_remainder_resolution_guard():
    with pytest.raises(ResolutionError):
        decomposition_remainder(snowflake(GKCParams(3, 1 / 3), 2), [1e-6],
                                h=4e-3)


def test_heat_refuses_unverified_region():
    # no region, so no solve, above the bound
    with pytest.raises(GeometryError, match="not verified simple"):
        snowflake(GKCParams(6, 0.3), 2)


def test_exponent_fit_pure_power():
    ts = geometric_grid(1e-4, 1e-2, 24)
    content = SampledFunction(ts, 0.8 * ts ** 0.4)
    assert heat_exponent_fit(content, (1e-4, 1e-2)) == \
        pytest.approx(0.4, abs=1e-3)


def test_exponent_fit_square_is_half(square_oracle):
    ts = geometric_grid(1e-4, 1e-2, 24)
    content = SampledFunction(ts, square_oracle(ts))
    p = heat_exponent_fit(content, (1e-4, 1e-2))
    assert abs(p - 0.5) < 0.05


def lstsq_exponent_fit(content, window):
    """Reference for heat_exponent_fit: one lstsq of E on [t^p, t] per
    candidate p, then the same parabolic refinement."""
    sel = (content.ts >= window[0]) & (content.ts <= window[1])
    t, ev = content.ts[sel], content.vals[sel]

    def sse(p):
        design = np.column_stack([t ** p, t])
        coef, *_ = np.linalg.lstsq(design, ev, rcond=None)
        resid = ev - design @ coef
        return float(resid @ resid)

    grid = np.linspace(0.05, 0.98, 373)
    errs = np.array([sse(p) for p in grid])
    i = int(np.argmin(errs))
    assert 0 < i < len(grid) - 1
    e0, e1, e2 = errs[i - 1], errs[i], errs[i + 1]
    return grid[i] + 0.5 * (e0 - e2) / (e0 - 2 * e1 + e2) * (grid[i]
                                                            - grid[i - 1])


def test_exponent_fit_matches_lstsq_scan(square_oracle):
    ts = geometric_grid(1e-4, 1e-2, 24)
    flake_ts = geometric_grid(3e-4, 3e-3, 24)
    flake = snowflake(GKCParams(3, 1 / 3), 3).boundary
    cases = [(SampledFunction(ts, 0.8 * ts ** 0.4), (1e-4, 1e-2)),
             (SampledFunction(ts, square_oracle(ts)), (1e-4, 1e-2)),
             (solve_heat_content(HeatProblem(region=flake), 5e-3, flake_ts),
              (3e-4, 3e-3))]
    for content, window in cases:
        p = heat_exponent_fit(content, window)
        assert abs(p - lstsq_exponent_fit(content, window)) <= 1e-12


def test_diffusivity_rescales_time(tmp_path):
    # CLI heat at diffusivity C reports E_1(C t) against the unscaled t
    cfg = {"n": 3, "r": 1 / 3, "level": 2, "h": 6e-3,
           "t_min": 1e-3, "t_max": 2e-3, "points_per_decade": 24}
    out = run_command("heat", dict(cfg, diffusivity=2), tmp_path / "c2")
    with open(out / "heat.csv", newline="") as fh:
        table = np.array([[float(v) for v in row]
                          for row in list(csv.reader(fh))[1:]])
    ts = geometric_grid(1e-3, 2e-3, 24)
    region = snowflake(GKCParams(3, 1 / 3), 2)
    problem = HeatProblem(region=region.boundary)
    e = solve_heat_content(problem, 6e-3, 2 * ts)
    assert np.array_equal(table[:, 0], ts)
    assert np.array_equal(table[:, 1], e.vals)
    # R_C(t) = R_1(C t), labelled at the same t as the content
    out = run_command("heat", dict(cfg, diffusivity=2, remainder=True),
                      tmp_path / "c2-rem")
    rem = decomposition_remainder(region, 2 * ts, 6e-3)[1]
    table = np.loadtxt(out / "remainder.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], ts)
    assert np.array_equal(table[:, 1], rem.vals)
    report = (out / "heat_report.json").read_text()
    assert json.loads(report)["remainder_linear_bound_fit"] == \
        np.max(np.abs(rem.vals) / ts)
    for bad in (0, -1.0):
        with pytest.raises(ValueError, match="diffusivity"):
            run_command("heat", dict(cfg, diffusivity=bad), tmp_path / "bad")
