from dataclasses import dataclass

import numpy as np
import pytest

from fractaldims import tubes
from fractaldims.errors import GeometryError, ResolutionError
from fractaldims.sampled import SampledFunction, antiderivative, geometric_grid
from fractaldims.tubes import (SUB, TILE, distance_field, grid_error_budget,
                               minkowski_fit, prefractal_gap, tube_function,
                               verify_gkf_sfe)
from fractaldims.vonkoch import (GKCParams, prefractal, sector_region,
                                 snowflake)

from conftest import Similitude
from test_geom import points_to_segments_distance

BOX = np.array([[-1.0, -1.0], [2.0, -1.0], [2.0, 1.5], [-1.0, 1.5]])


def rotated_segment(angle=0.3, offset=(0.01637, 0.02843)):
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    return np.array([[0.0, 0.0], [1.0, 0.0]]) @ rot.T + np.asarray(offset)


def test_point_segment_distances():
    seg = np.array([[0.0, 0.0], [1.0, 0.0]])
    fld = distance_field(seg, BOX, h=0.05)
    xs, ys = fld.grid.xs, fld.grid.ys
    ix = int(np.argmin(np.abs(xs - 0.0)))
    iy = int(np.argmin(np.abs(ys - 1.0)))
    # grid centers are within h/2 of the probe points
    assert fld.grid.values[ix, iy] == pytest.approx(
        np.hypot(xs[ix] - np.clip(xs[ix], 0, 1), ys[iy]), abs=1e-12)
    ix2 = int(np.argmin(np.abs(xs - 2.0 + 0.025)))
    assert fld.grid.values[ix2, int(np.argmin(np.abs(ys)))] == \
        pytest.approx(np.hypot(xs[ix2] - 1.0, ys[np.argmin(np.abs(ys))]),
                      abs=1e-12)


def test_field_is_lipschitz():
    curve = prefractal(GKCParams(3, 1 / 3), 3)
    region = np.array([[-0.2, -0.2], [1.2, -0.2], [1.2, 0.6], [-0.2, 0.6]])
    fld = distance_field(curve, region, h=0.01)
    v = fld.grid.values
    h = fld.h
    assert np.all(np.abs(np.diff(v, axis=0)) <= h + 1e-12)
    assert np.all(np.abs(np.diff(v, axis=1)) <= h + 1e-12)


def test_pruned_field_is_exact():
    # per-tile and per-sub-tile segment pruning must not change a single
    # inside cell, and the cells outside Ω are not measured
    sf3 = snowflake(GKCParams(3, 1 / 3), 3)
    sf4 = snowflake(GKCParams(4, 0.24), 3)
    koch = prefractal(GKCParams(3, 1 / 3), 3)
    pentagon = np.array([[-0.2, -0.2], [1.2, -0.2], [1.25, 0.3],
                         [0.5, 0.7], [-0.25, 0.3]])
    zero = prefractal(GKCParams(4, 0.24), 2)
    zero = np.insert(zero, 7, zero[7], axis=0)  # segment 7 has length 0
    triangle = np.array([[-0.1, -0.3], [1.1, -0.3], [0.5, 0.9]])
    cases = [(sf3.boundary, sector_region(sf3, 0), 1e-2),
             # 187 x 323 and 65 x 39 cells: no side a multiple of SUB,
             # so tiles and sub-tiles are cut at the grid's edges
             (sf3.closed_boundary, sector_region(sf3, 1), 3.1e-3),
             (koch, pentagon, 0.0233),
             (zero, triangle, 7e-3),
             (zero[6:9], triangle, 7e-3),
             (sf4.closed_boundary, sector_region(sf4, 0), 3e-3)]
    shapes = []
    for curve, region, h in cases:
        fld = distance_field(curve, region, h)
        assert fld.inside.any() and not fld.inside.all()
        gx, gy = np.meshgrid(fld.grid.xs, fld.grid.ys, indexing="ij")
        pts = np.column_stack([gx[fld.inside], gy[fld.inside]])
        full = points_to_segments_distance(pts, curve[:-1], curve[1:])
        assert np.array_equal(fld.grid.values[fld.inside], full)
        assert np.all(np.isinf(fld.grid.values[~fld.inside]))
        shapes.append((fld.grid.nx, fld.grid.ny))
    assert shapes[1:3] == [(187, 323), (65, 39)]
    assert all(n % SUB and n % TILE for n in (187, 323, 65, 39))


def test_sub_tiles_prune_the_pairs(monkeypatch):
    # the (3, 1/3) L4 sector at h = 3e-3: the tile bound alone measures
    # 36 segments per inside cell; with the sub-tiles, 7
    region = snowflake(GKCParams(3, 1 / 3), 4)
    kernel, pairs = tubes._squared_distances, []

    def counting_kernel(px, py, frames):
        d2 = kernel(px, py, frames)
        pairs.append(d2.size)
        return d2

    monkeypatch.setattr(tubes, "_squared_distances", counting_kernel)
    fld = distance_field(region.closed_boundary, sector_region(region, 0),
                         3e-3)
    inside = int(fld.inside.sum())
    # per row of tiles: the tile table, the sub-tile pairs, the cell pairs
    cells = sum(pairs[2::3])
    assert cells < 8 * inside
    assert sum(pairs) < 14 * inside


def test_tiles_without_inside_cells_are_skipped():
    # the sector's bounding box holds whole tiles outside Ω; skipping
    # them must leave every inside cell measured and every count exact
    region = snowflake(GKCParams(3, 1 / 3), 3)
    curve = region.closed_boundary
    fld = distance_field(curve, sector_region(region, 0), h=2e-3)
    nx, ny = fld.grid.nx, fld.grid.ny
    padded = np.zeros((-(-nx // TILE) * TILE, -(-ny // TILE) * TILE), bool)
    padded[:nx, :ny] = fld.inside
    tiles = padded.reshape(len(padded) // TILE, TILE, -1, TILE)
    assert not tiles.any(axis=(1, 3)).all()
    d = fld.grid.values[fld.inside]
    assert not np.any(np.isinf(d))
    gx, gy = np.meshgrid(fld.grid.xs, fld.grid.ys, indexing="ij")
    pts = np.column_stack([gx[fld.inside], gy[fld.inside]])
    full = points_to_segments_distance(pts, curve[:-1], curve[1:])
    ts = np.geomspace(5e-3, 0.3, 20)
    counts = (full[:, None] < ts).sum(axis=0)
    assert np.array_equal(tube_function(fld, ts).vals, fld.h ** 2 * counts)


def test_inside_distances_are_sorted_once(monkeypatch):
    region = snowflake(GKCParams(3, 1 / 3), 2)
    fld = distance_field(region.closed_boundary, sector_region(region, 0),
                         h=1e-2)
    sort, sorted_sizes = np.sort, []

    def counting_sort(a, *args, **kwargs):
        sorted_sizes.append(np.size(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counting_sort)
    ts = np.geomspace(0.02, 0.2, 8)
    first, second = tube_function(fld, ts), tube_function(fld, ts)
    assert sorted_sizes == [int(fld.inside.sum())]
    assert np.array_equal(first.vals, second.vals)


def test_snowflake_tube_sees_the_closing_edge():
    # the boundary lists each vertex once, so the tube distance must add
    # the edge from the last vertex back to the first.  In its canonical
    # frame sector 2 has cells nearest to that edge, below the mirror
    # axis; they hold the distances of their mirror images above it
    curve, _, fld = half_and_whole(snowflake(GKCParams(3, 1 / 3), 3), 2,
                                   1e-2)
    b = curve[:-1]
    ny = fld.grid.ny // 2
    gx, gy = np.meshgrid(fld.grid.xs, (np.arange(ny) + 0.5) * fld.h,
                         indexing="ij")
    upper = fld.inside[:, ny:]
    pts = np.column_stack([gx[upper], gy[upper]])
    closed = points_to_segments_distance(pts, b, np.roll(b, -1, axis=0))
    assert np.array_equal(fld.grid.values[:, ny:][upper], closed)
    assert np.array_equal(fld.grid.values[:, :ny],
                          fld.grid.values[:, ny:][:, ::-1])
    below = pts * [1.0, -1.0]
    without = points_to_segments_distance(below, b[:-1], b[1:])
    assert np.any(without > closed + 1e-9)
    assert fld.curve_length == pytest.approx(64 / 9, rel=1e-12)


#: (params, level, h) of the half-sector tests: every half grid is cut
#: at its edges, no side a multiple of SUB
HALF_CASES = [(GKCParams(3, 1 / 3), 3, 1e-2),
              (GKCParams(3, 1 / 3), 4, 3e-3),
              (GKCParams(4, 0.24), 3, 3.1e-3),
              (GKCParams(5, 0.19), 3, 5.1e-3)]


def half_and_whole(region, index, h):
    """The field on the upper half of a sector and the mirrored field."""
    curve, half = tubes.sector_half(region, index)
    upper = distance_field(curve, half, h)
    return curve, upper, tubes.mirror_field(upper)


@pytest.mark.parametrize("params, level, h", HALF_CASES)
def test_half_sector_field_is_exact_and_mirrored(params, level, h):
    region = snowflake(params, level)
    index = params.n - 1
    curve, upper, fld = half_and_whole(region, index, h)
    # the canonical boundary is its own mirror image, vertex for vertex
    b = curve[:-1]
    mirrored = b * [1.0, -1.0]
    assert np.array_equal(b[np.lexsort(b.T)],
                          mirrored[np.lexsort(mirrored.T)])
    nx, ny = upper.grid.nx, upper.grid.ny
    assert nx % SUB and ny % SUB
    assert upper.grid.bbox[1] == 0.0
    # the upper half is the exact minimum over every stored segment
    gx, gy = np.meshgrid(upper.grid.xs, upper.grid.ys, indexing="ij")
    pts = np.column_stack([gx[upper.inside], gy[upper.inside]])
    direct = points_to_segments_distance(pts, curve[:-1], curve[1:])
    assert np.array_equal(upper.grid.values[upper.inside], direct)
    # the lower half is its reflection, exactly
    assert (fld.grid.nx, fld.grid.ny) == (nx, 2 * ny)
    assert np.array_equal(fld.grid.values[:, ny:], upper.grid.values)
    assert np.array_equal(fld.grid.values[:, :ny],
                          upper.grid.values[:, ::-1])
    assert np.array_equal(fld.inside[:, :ny], upper.inside[:, ::-1])
    assert np.array_equal(fld.inside[:, ny:], upper.inside)
    # and measured directly it differs by round-off only: the kernel
    # loses about eps |b - a| measuring from the other end of a segment
    below = points_to_segments_distance(pts * [1.0, -1.0], curve[:-1],
                                        curve[1:])
    longest = np.max(np.hypot(*np.diff(curve, axis=0).T))
    eps = np.finfo(float).eps
    assert np.all(np.abs(below - direct) <= 4 * eps * (direct + longest))
    assert fld.region_area == 2 * upper.region_area
    assert fld.curve_length == upper.curve_length
    assert fld.meta["cells_measured"] == upper.inside.sum()
    assert np.array_equal(fld.sorted_inside_distances,
                          np.sort(fld.grid.values[fld.inside]))


@pytest.mark.parametrize("params, level, h", HALF_CASES)
def test_every_sector_has_the_same_tube(params, level, h):
    # all sectors are congruent: in their canonical frames their tubes
    # agree within one mirrored pair of cells, and each is within its
    # grid budget of the sector measured in the original frame
    region = snowflake(params, level)
    ts = np.geomspace(5 * h, 0.3, 30)
    tubes_ = []
    for index in range(params.n):
        fld = half_and_whole(region, index, h)[2]
        tubes_.append(tube_function(fld, ts).vals)
        whole = distance_field(region.closed_boundary,
                               sector_region(region, index), h)
        budget = grid_error_budget(fld) + grid_error_budget(whole)
        assert np.all(np.abs(tubes_[-1] - tube_function(whole, ts).vals)
                      <= budget)
    assert np.all(np.abs(np.array(tubes_) - tubes_[0]) <= 2 * h ** 2)


def test_half_sector_measures_half_the_cells(monkeypatch):
    # the (3, 1/3) L4 sector at h = 3e-3: the CLI's field, sector_field,
    # measures the half above the mirror axis, about half the sector's
    # inside cells, in about half the kernel's (point, segment) pairs
    region = snowflake(GKCParams(3, 1 / 3), 4)
    kernel, pairs = tubes._squared_distances, []

    def counting_kernel(px, py, frames):
        d2 = kernel(px, py, frames)
        pairs.append(d2.size)
        return d2

    monkeypatch.setattr(tubes, "_squared_distances", counting_kernel)
    whole = distance_field(region.closed_boundary, sector_region(region, 0),
                           3e-3)
    whole_pairs = sum(pairs)
    pairs.clear()
    fields = []
    build = tubes.distance_field

    def recorded(*args, **kwargs):
        fields.append(build(*args, **kwargs))
        return fields[-1]

    monkeypatch.setattr(tubes, "distance_field", recorded)
    fld = tubes.sector_field(region, 3e-3)
    (upper,) = fields
    measured = int(np.isfinite(upper.grid.values).sum())
    assert measured == upper.inside.sum() == fld.meta["cells_measured"]
    assert 2 * measured == fld.inside.sum()
    assert 0.49 < measured / whole.inside.sum() < 0.51
    assert sum(pairs) < 0.6 * whole_pairs


def test_tube_monotone_and_bounded():
    curve = prefractal(GKCParams(3, 1 / 3), 2)
    region = np.array([[-0.2, -0.2], [1.2, -0.2], [1.2, 0.6], [-0.2, 0.6]])
    fld = distance_field(curve, region, h=5e-3)
    ts = geometric_grid(0.02, 0.5, 24)
    v = tube_function(fld, ts)
    assert np.all(np.diff(v.vals) >= 0)
    assert v.vals[-1] <= fld.region_area + fld.h ** 2


def test_tube_grid_convergence_on_segment():
    seg = rotated_segment()
    ts = np.linspace(0.05, 0.3, 6)
    exact = 2 * ts + np.pi * ts ** 2
    for h in (4e-3, 2e-3):
        fld = distance_field(seg, BOX, h=h)
        v = tube_function(fld, ts)
        # well within the declared 4 h * perimeter budget for t >= 10h
        assert np.max(np.abs(v.vals - exact)) <= 4 * h * 2.0


def test_tube_isometry_invariance():
    ts = np.linspace(0.05, 0.25, 5)
    v1 = tube_function(distance_field(rotated_segment(0.0), BOX, 2e-3), ts)
    v2 = tube_function(distance_field(rotated_segment(0.9), BOX, 2e-3), ts)
    budget = 2 * 4 * 2e-3 * 2.0
    assert np.max(np.abs(v1.vals - v2.vals)) <= budget


# ------------------------------------------------ similitude scaling oracle


@dataclass(frozen=True)
class ScalingReport:
    ts: np.ndarray
    lhs: np.ndarray          # V_{phi X, phi Omega}(t)
    rhs: np.ndarray          # lambda^2 V_{X, Omega}(t / lambda)
    budget_abs: float
    max_rel_dev: float
    passed: bool


def verify_tube_scaling(curve: np.ndarray, region: np.ndarray,
                        sim: Similitude, ts, h: float) -> ScalingReport:
    """Check V_{phi X, phi Omega}(t) = lambda^2 V_{X,Omega}(t/lambda)
    with both sides measured on independent grids."""
    ts = np.asarray(ts, dtype=float)
    lam = sim.scale
    fld1 = distance_field(curve, region, h)
    base_ts = np.unique(ts / lam)
    v1 = tube_function(fld1, base_ts)
    fld2 = distance_field(sim(curve), sim(region), lam * h)
    v2 = tube_function(fld2, ts)
    rhs = lam ** 2 * np.interp(ts / lam, v1.ts, v1.vals)
    lhs = v2.vals
    budget = grid_error_budget(fld2) + lam ** 2 * grid_error_budget(fld1)
    dev = np.abs(lhs - rhs)
    rel = float(np.max(dev / np.maximum(np.abs(lhs), 1e-300)))
    return ScalingReport(ts=ts, lhs=lhs, rhs=rhs, budget_abs=budget,
                         max_rel_dev=rel,
                         passed=bool(np.all(dev <= budget)))


def test_scaling_rotation_only_is_isometry():
    # lambda = 1 is outside the similitude type; rotation via pose change
    seg = rotated_segment(0.0)
    sim = Similitude(scale=0.5, rotation=0.7, translation=(0.1, 0.05))
    ts = np.linspace(0.04, 0.12, 5)
    report = verify_tube_scaling(seg, BOX, sim, ts, h=2e-3)
    assert report.passed
    assert report.max_rel_dev < 0.02


def test_scaling_segment_closed_forms():
    # V_{X}(t) = 2t + pi t^2 for the unit segment; scaled by 1/2:
    # V_{phi X}(t) = (1/4) V_X(2t) = t + pi t^2
    sim = Similitude(scale=0.5)
    ts = np.linspace(0.04, 0.12, 5)
    report = verify_tube_scaling(rotated_segment(), BOX, sim, ts, h=2e-3)
    assert report.passed
    expect = ts + np.pi * ts ** 2
    assert np.allclose(report.lhs, expect, rtol=5e-3)
    assert np.allclose(report.rhs, expect, rtol=5e-3)


def test_scaling_koch_curve():
    curve = prefractal(GKCParams(3, 1 / 3), 4)
    region = np.array([[-0.2, -0.2], [1.2, -0.2], [1.2, 0.6], [-0.2, 0.6]])
    sim = Similitude(scale=1 / 3, rotation=0.2, translation=(0.05, -0.02))
    ts = np.linspace(0.02, 0.08, 4)
    report = verify_tube_scaling(curve, region, sim, ts, h=1.5e-3)
    assert report.passed
    assert report.max_rel_dev <= 0.02


def snowflake_sector(params, level, h):
    """The snowflake and the distance field on its sector 0."""
    region = snowflake(params, level)
    fld = distance_field(region.closed_boundary, sector_region(region, 0), h)
    return region, fld


def test_sfe_refuses_unverified_region():
    # no region, so no field or tube check, above the bound
    with pytest.raises(GeometryError, match="not verified simple"):
        snowflake(GKCParams(6, 0.3), 2)


def test_sfe_rejects_unresolvable_t():
    region, fld = snowflake_sector(GKCParams(3, 1 / 3), 2, 5e-3)
    with pytest.raises(ResolutionError):
        verify_gkf_sfe(region, fld, np.array([1e-4]))


def test_sfe_small_level_passes():
    region, fld = snowflake_sector(GKCParams(3, 1 / 3), 4, 2e-3)
    report = verify_gkf_sfe(region, fld, np.geomspace(0.02, 0.05, 5))
    assert report.passed
    bound_coef = 2 / np.tan(np.pi / 3) + 2 * np.pi / 3
    assert bound_coef == pytest.approx(3.2490956408, abs=1e-9)
    assert np.allclose(report.bound, bound_coef * report.ts ** 2)


def test_prefractal_gap_decays():
    params = GKCParams(3, 1 / 3)
    gaps = [prefractal_gap(params, L) for L in (2, 3, 4)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] / gaps[0] == pytest.approx(1 / 3, rel=1e-6)
    # d(X_0, X_1) is the height of the generator's apex
    assert prefractal_gap(params, 0) * (1 - 1 / 3) == \
        pytest.approx(np.sqrt(3) / 6, rel=1e-12)
    params = GKCParams(5, 0.19)
    lam = max(params.ell, params.r)
    assert prefractal_gap(params, 0) * (1 - lam) == \
        pytest.approx(0.29237993603, rel=1e-10)


def test_minkowski_fit_segment_dimension_one():
    ts = geometric_grid(1e-3, 1e-1, 48)
    v = SampledFunction(ts, 2 * ts + np.pi * ts ** 2)
    d, c = minkowski_fit(v, (1e-3, 1e-1))
    assert abs(d - 1.0) < 0.05
    assert c == pytest.approx(2.0, rel=0.2)


def test_minkowski_fit_point_dimension_zero():
    ts = geometric_grid(1e-3, 1e-1, 48)
    v = SampledFunction(ts, np.pi * ts ** 2)
    d, _ = minkowski_fit(v, (1e-3, 1e-1))
    assert abs(d) < 0.05


def test_minkowski_fit_requires_samples():
    ts = geometric_grid(1e-2, 1e-1, 4)
    v = SampledFunction(ts, ts)
    with pytest.raises(ValueError):
        minkowski_fit(v, (0.5, 0.6))


# ----------------------------------------------------------- antiderivative


def test_antiderivative_linear():
    # from the first sample: the trapezoid rule is exact on t
    ts = geometric_grid(1e-5, 1.0, 200)
    f = SampledFunction(ts, ts)
    f1 = antiderivative(f, 1)
    assert np.allclose(f1.vals, (ts ** 2 - ts[0] ** 2) / 2, rtol=1e-5,
                       atol=0)


def test_antiderivative_power_pochhammer_pattern():
    # the antiderivative from 0 less its degree-1 start polynomial
    a = 0.7
    ts = geometric_grid(1e-6, 1.0, 400)
    f = SampledFunction(ts, ts ** a)
    f2 = antiderivative(f, 2)
    t0 = ts[0]
    expect = (ts ** (a + 2) / ((a + 1) * (a + 2))
              - t0 ** (a + 1) / (a + 1) * (ts - t0)
              - t0 ** (a + 2) / ((a + 1) * (a + 2)))
    assert f2.vals[0] == 0.0
    # the trapezoid's first steps are 7e-4 off relative to values that
    # start at 0; from 2 t0 on the grid error is below 6e-6
    late = ts >= 2 * t0
    assert np.allclose(f2.vals[late], expect[late], rtol=1e-5, atol=0)


def test_antiderivative_identity_k0():
    ts = geometric_grid(1e-4, 1.0, 50)
    f = SampledFunction(ts, np.cos(ts))
    assert antiderivative(f, 0) is f
