from dataclasses import dataclass

import numpy as np
import pytest

from fractaldims import tubes
from fractaldims.errors import GeometryError, ResolutionError
from fractaldims.sampled import SampledFunction, antiderivative, geometric_grid
from fractaldims.tubes import (SIDES, distance_field, grid_error_budget,
                               minkowski_fit, prefractal_gap, tube_function,
                               verify_gkf_sfe)
from fractaldims.vonkoch import (GKCParams, prefractal, sector_region,
                                 snowflake)

from conftest import Similitude, polygon_tube_volume
from test_geom import points_to_segments_distance

BOX = np.array([[-1.0, -1.0], [2.0, -1.0], [2.0, 1.5], [-1.0, 1.5]])
#: relative error of the ramp against the polygon oracle at h <= 2e-3,
#: t in [5h, 0.02]: the 45-degree edges of the (4, 0.24) polygons come
#: nearest, 1.99e-3 at their worst t
POLYGON_RTOL = 2e-3


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


def signed_oracle(fld, curve):
    """The field's values from the brute-force distances d of every
    cell: d inside, -d outside within h/2 of the curve, +inf elsewhere."""
    gx, gy = np.meshgrid(fld.grid.xs, fld.grid.ys, indexing="ij")
    d = points_to_segments_distance(
        np.column_stack([gx.ravel(), gy.ravel()]), curve[:-1],
        curve[1:]).reshape(gx.shape)
    return np.where(fld.inside, d, np.where(d < fld.h / 2, -d, np.inf))


def boxes_held(inside, side):
    """Whether each side x side box of cells, cut at the grid's edge,
    holds an inside cell."""
    nx, ny = inside.shape
    padded = np.zeros((-(-nx // side) * side, -(-ny // side) * side), bool)
    padded[:nx, :ny] = inside
    return padded.reshape(len(padded) // side, side, -1, side).any(
        axis=(1, 3))


def test_pruned_field_is_exact():
    # pruning the segments box by box must not change a single inside
    # or band cell, and no other cell is measured
    sf3 = snowflake(GKCParams(3, 1 / 3), 3)
    sf4 = snowflake(GKCParams(4, 0.24), 3)
    koch = prefractal(GKCParams(3, 1 / 3), 3)
    pentagon = np.array([[-0.2, -0.2], [1.2, -0.2], [1.25, 0.3],
                         [0.5, 0.7], [-0.25, 0.3]])
    zero = prefractal(GKCParams(4, 0.24), 2)
    zero = np.insert(zero, 7, zero[7], axis=0)  # segment 7 has length 0
    triangle = np.array([[-0.1, -0.3], [1.1, -0.3], [0.5, 0.9]])
    cases = [(sf3.boundary, sector_region(sf3, 0), 1e-2),
             # 187 x 323 and 65 x 39 cells: no side a multiple of a
             # box side, so the boxes are cut at the grid's edges
             (sf3.closed_boundary, sector_region(sf3, 1), 3.1e-3),
             (koch, pentagon, 0.0233),
             (zero, triangle, 7e-3),
             (zero[6:9], triangle, 7e-3),
             (sf4.closed_boundary, sector_region(sf4, 0), 3e-3)]
    shapes = []
    for curve, region, h in cases:
        fld = distance_field(curve, region, h)
        assert fld.inside.any() and not fld.inside.all()
        assert np.array_equal(fld.grid.values, signed_oracle(fld, curve))
        band = np.isfinite(fld.grid.values) & ~fld.inside
        assert fld.meta["band_cells"] == band.sum()
        # a 2 x 2 box with no inside cell is kept for its band cells
        bx, by = np.nonzero(band)
        assert (~boxes_held(fld.inside, 2)[bx // 2, by // 2]).any() == \
            band.any()
        shapes.append((fld.grid.nx, fld.grid.ny))
    assert shapes[1:3] == [(187, 323), (65, 39)]
    assert all(n % side for n in (187, 323, 65, 39) for side in SIDES)


@pytest.mark.parametrize("level, h, bound", [(4, 3e-3, 13), (5, 1e-3, 16)])
def test_nested_boxes_prune_the_pairs(monkeypatch, level, h, bound):
    # the CLI's (3, 1/3) half-sectors: the kernel measures 11.9 (point,
    # segment) pairs per inside or band cell at L4, 12.9 at L5; boxes of
    # 16 cells pruned from every segment, then 4-cell boxes, need 14.0
    # and 24.8
    region = snowflake(GKCParams(3, 1 / 3), level)
    kernel, pairs = tubes._squared_distances, []

    def counting_kernel(px, py, frames):
        d2 = kernel(px, py, frames)
        pairs.append(d2.size)
        return d2

    monkeypatch.setattr(tubes, "_squared_distances", counting_kernel)
    fld = tubes.sector_field(region, h)
    assert sum(pairs) < bound * fld.meta["cells_measured"]


def test_tiles_without_inside_cells_are_skipped():
    # the sector's bounding box holds whole 16 x 16 boxes outside Ω;
    # dropping them must leave every inside and band cell measured, and
    # the tube function is the ramp summed cell by cell
    region = snowflake(GKCParams(3, 1 / 3), 3)
    curve = region.closed_boundary
    fld = distance_field(curve, sector_region(region, 0), h=2e-3)
    assert not boxes_held(fld.inside, SIDES[1]).all()
    s = signed_oracle(fld, curve)
    assert np.array_equal(fld.grid.values, s)
    s, h = s[np.isfinite(s)], fld.h
    ts = np.geomspace(5e-3, 0.3, 20)
    ramp = (np.clip((ts - s[:, None]) / h + 0.5, 0, 1)
            - np.clip(0.5 - s[:, None] / h, 0, 1)).sum(axis=0)
    assert np.allclose(tube_function(fld, ts).vals, h ** 2 * ramp,
                       rtol=1e-12, atol=0)


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
    assert sorted_sizes == [int(fld.inside.sum()) + fld.meta["band_cells"]]
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


#: (params, level, h) of the half-sector tests: every half grid cuts the
#: boxes of sides 4 and up at its edges, no side a multiple of 4
HALF_CASES = [(GKCParams(3, 1 / 3), 3, 1e-2),
              (GKCParams(3, 1 / 3), 4, 3e-3),
              (GKCParams(4, 0.24), 3, 3.1e-3),
              (GKCParams(5, 0.19), 3, 5.1e-3)]


def half_and_whole(region, index, h):
    """The field on the upper half of a sector and the mirrored field."""
    curve, half, wedge = tubes.sector_half(region, index)
    upper = distance_field(curve, half, h, wedge=wedge)
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
    assert all(n % side for n in (nx, ny) for side in SIDES[:-1])
    assert upper.grid.bbox[1] == 0.0
    # the upper half is the exact minimum over every stored segment
    gx, gy = np.meshgrid(upper.grid.xs, upper.grid.ys, indexing="ij")
    pts = np.column_stack([gx[upper.inside], gy[upper.inside]])
    direct = points_to_segments_distance(pts, curve[:-1], curve[1:])
    assert np.array_equal(upper.grid.values[upper.inside], direct)
    # the lower half is its reflection, exactly, band included
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
    band = int(upper.meta["band_cells"])
    assert band > 0
    assert fld.meta["cells_measured"] == upper.inside.sum() + band
    assert fld.meta["band_cells"] == 2 * band
    assert np.array_equal(fld.sorted_signed_distances,
                          np.sort(fld.grid.values[np.isfinite(
                              fld.grid.values)]))


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
    inside = int(upper.inside.sum())
    assert measured == fld.meta["cells_measured"] == \
        inside + upper.meta["band_cells"]
    assert 2 * inside == fld.inside.sum()
    assert 0.49 < inside / whole.inside.sum() < 0.51
    assert sum(pairs) < 0.6 * whole_pairs


@pytest.mark.parametrize("params, level", [(GKCParams(3, 1 / 3), 3),
                                           (GKCParams(4, 0.24), 2)])
def test_ramp_on_a_4x_coarser_grid_beats_the_cell_count(params, level):
    # against the polygon oracle, before the first offset event: the
    # ramp at h = 4e-3 is no further off than the cell-centre count,
    # h^2 #{inside: d < t}, at h = 1e-3 on 16 times the cells
    region = snowflake(params, level)
    ts = np.array([0.01, 0.02])
    exact = polygon_tube_volume(region.boundary, ts)
    fine = distance_field(region.closed_boundary, region.boundary, 1e-3)
    d = fine.grid.values[fine.inside]
    count = 1e-6 * (d[:, None] < ts).sum(axis=0)
    coarse = distance_field(region.closed_boundary, region.boundary, 4e-3)
    ramp = tube_function(coarse, ts).vals
    assert np.all(np.abs(ramp - exact) <= np.abs(count - exact))


def test_ramp_on_the_rotated_square():
    # V(t) = 4t - 4t^2 for t <= 1/2 on every unit square; rotated by
    # 0.3 rad the ramp at h = 2e-3 is within 1e-5 relative, where the
    # cell-centre count is up to 1.0e-4 off
    square = (np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
              @ np.array([[np.cos(0.3), np.sin(0.3)],
                          [-np.sin(0.3), np.cos(0.3)]])
              + [0.123, 0.0456])
    ts = np.geomspace(0.01, 0.2, 8)
    exact = polygon_tube_volume(square, ts)
    assert np.allclose(exact, 4 * ts - 4 * ts ** 2, rtol=1e-12, atol=0)
    fld = distance_field(np.vstack([square, square[:1]]), square, 2e-3)
    assert fld.meta["band_cells"] > 0
    ramp = tube_function(fld, ts).vals
    assert np.all(np.abs(ramp / exact - 1) <= 1e-5)
    d = fld.grid.values[fld.inside]
    count = 4e-6 * (d[:, None] < ts).sum(axis=0)
    assert np.max(np.abs(count / exact - 1)) > 5e-5


@pytest.mark.parametrize("h", [1e-3, 2e-3])
def test_ramp_is_within_the_polygon_oracle_budget(h):
    # before the first offset event the whole polygon's tube is exactly
    # P t - K t^2; from t = 5h (TUBE_FLOOR) the ramp stays within
    # POLYGON_RTOL of it, on grid-slanted and 45-degree edges alike
    rot = np.array([[np.cos(0.3), np.sin(0.3)], [-np.sin(0.3), np.cos(0.3)]])
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    polygons = [snowflake(GKCParams(3, 1 / 3), 3).boundary,
                snowflake(GKCParams(4, 0.24), 2).boundary,
                square @ rot + [0.123, 0.0456]]
    ts = np.geomspace(5 * h, 0.02, 24)
    for polygon in polygons:
        fld = distance_field(np.vstack([polygon, polygon[:1]]), polygon, h)
        exact = polygon_tube_volume(polygon, ts)
        ramp = tube_function(fld, ts).vals
        assert np.all(np.abs(ramp / exact - 1) <= POLYGON_RTOL)


def test_sector_tube_times_n_is_the_whole_polygon_tube():
    # the ramp smooths membership across the curve only, so n mirrored
    # half-sectors measure what the whole polygon does
    params = GKCParams(3, 1 / 3)
    region = snowflake(params, 3)
    ts = np.geomspace(0.01, 0.08, 10)
    whole = distance_field(region.closed_boundary, region.boundary, 1e-3)
    sector = tubes.sector_field(region, 1e-3)
    v = params.n * tube_function(sector, ts).vals
    assert np.all(np.abs(v / tube_function(whole, ts).vals - 1) <= 2e-4)


@pytest.mark.parametrize("params, level, h", HALF_CASES)
def test_no_band_cell_lies_across_the_cut_or_below_the_axis(params, level,
                                                           h):
    # the half's band is every cell outside it within h/2 of the curve
    # whose centre lies above the axis and on the sector's side of the
    # radial cut through the base vertex at angle pi/n
    curve, upper, fld = half_and_whole(snowflake(params, level), 0, h)
    gx, gy = np.meshgrid(upper.grid.xs, upper.grid.ys, indexing="ij")
    cut = np.pi / params.n
    in_wedge = (gy > 0) & (gx * np.sin(cut) - gy * np.cos(cut) > 0)
    s = signed_oracle(upper, curve)
    band = np.isfinite(upper.grid.values) & ~upper.inside
    assert np.array_equal(band, np.isfinite(s) & ~upper.inside & in_wedge)
    assert np.array_equal(upper.grid.values[band], s[band])
    # outside the half-wedge the curve has cells within h/2 too
    assert np.any(np.isfinite(s) & ~upper.inside & ~in_wedge)
    assert fld.meta["band_cells"] == 2 * band.sum()


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


@pytest.mark.parametrize("h, message", [
    (0, r"^h must be > 0; got 0$"), (-1e-3, r"^h must be > 0; got -0.001$"),
])
def test_distance_field_refusal_names_h(h, message):
    with pytest.raises(ValueError, match=message):
        distance_field(BOX, BOX, h)
