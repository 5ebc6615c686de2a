"""Distance fields, relative tube functions V(t) = |X_t ∩ Ω|, and checks.

The tube function of a curve X relative to a region Ω is measured on a
uniform grid over Ω's bounding box by the ramp of level-set quadrature
(the smeared Heaviside of Engquist, Tornberg & Tsai, J. Comput. Phys.
207, 2005).  Each cell holds a signed distance s: d(centre, X) for a
centre inside Ω, and -d(centre, X) for a centre outside Ω within h/2 of
X, the band.  Then

    V(t) = h^2 sum_s [clamp((t - s)/h + 1/2, 0, 1) - clamp(1/2 - s/h, 0, 1)],

second order in h where X bounds Ω: each cell counts the share of it in
{s < t} less its share in {s < 0}, as if s were linear across it along a
grid axis, which is exact on an edge along one.  A cell outside Ω
farther than h/2 adds 0 at every t, so only the inside and band cells
are measured; every other cell holds +inf.  The next centre out from
the box lies h/2 beyond it, so the box grid holds every centre within
h/2 of Ω's boundary, and the inside cells are those of the cell-centre
count, bit for bit.  A curve with Ω on both of its sides is taken for a
boundary too, and its tube comes out about h/4 per unit length short.

Distances are exact point-to-segment distances, found in one pass of
nested square boxes of cells, of the sides in SIDES, over strips of the
grid one root box wide.  A box of cells whose centres lie within r of
its centre c need only keep the segments within d_min(c) + 2r of c,
where d_min(c) is c's nearest distance: a segment farther than that is
farther from every cell of the box than c's nearest segment.  Each root
box applies the bound to every segment, and each smaller box, with its
own centre and radius, to its parent's segments only, which is exact
because its centre lies in its parent, so its nearest segment survived
the parent's pass.  No cell of a box lies nearer the curve than
d_min(c) - r, so a box is kept only if it holds an inside cell or
d_min(c) - r < h/2; the others can hold no inside or band cell, and
their children are never measured.  Each cell of a kept 2 x 2 box then
takes the nearest of its box's segments, the inside cells and the band
alike; every level runs on one set of ragged (point, segment) pair
arrays per strip.

A snowflake sector is measured in its canonical frame, on one side of
its mirror axis.  Every (n, r) snowflake is mirror-symmetric about the
bisector of each of its sectors, and ``sector_half`` rotates the region
so that this bisector lies on the +x axis.  The mirror then sends
boundary vertex p to vertex (c - p) mod N for one offset c, and each
vertex is replaced by the mean of itself and its partner's image
(x, -y).  IEEE negation and addition commute exactly, so the pairs are
exact mirrors, the vertices on the axis get y = 0, and the boundary
meets the axis, where the sector is clipped to y >= 0, exactly on it:
an edge that crosses the axis joins a mirror pair, so its crossing has
y = 0 in floating point.  ``distance_field`` measures the cells of that
upper half, whose rows lie at y = (j + 1/2) h, so no cell centre lies
on the axis.  The ramp smooths membership across the curve only: a band
cell is kept only if its centre lies in the half-wedge, above the axis
and on the sector's side of its radial cut, and membership across the
cut stays by cell centre.  ``mirror_field`` gives the rows at
-(j + 1/2) h their mirror images' values, the band's included.  The
lower half is defined as that reflection rather than measured: the
polyline stores each mirrored segment reversed, and the
clamp-and-project kernel measures from the segment's first end, so a
direct distance at (x, -y) can differ from the one at (x, y) by
round-off, a few eps times the segment's length.  The upper half stays
the exact minimum over every stored segment.

``sector_field(region, h)`` measures sector 0 so, all sectors being
congruent, and ``decomposition_remainder(region, ts, h)`` owns the tube
data as ``heat``'s owns the heat content's: V and R(t) = V(t) -
sum_k a_k lambda_k^2 V(t/lambda_k) at ts, from one field sampled by
``sampled.sfe_split``.  ``verify_gkf_sfe(region, fld, ts)`` checks that
equation on its caller's field with a declared grid budget 4h*perimeter
+ prefractal sandwich width, not a bare tolerance; ``minkowski_fit``
reads a box dimension off V(t).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import SizeLimitError
from .geom import (_ranges, _segment_frames, _squared_distances,
                   clip_polygon_halfplane, point_in_polygon_mask,
                   polygon_area, polyline_length, rotation_matrix,
                   segment_distances)
from .sampled import (ResolutionFloor, SampledFunction, fit_window,
                      sfe_images, sfe_split)
from .vonkoch import (GKCParams, SnowflakeRegion, generator_vertices,
                      sector_region)
# not called here: the benchmark's layer probes wrap tubes.snowflake
from .vonkoch import snowflake  # noqa: F401

#: cap on grid cells
CELL_CAP = 1 << 27

#: sides of the nested square boxes of cells that prune the segments,
#: root first; the grid is measured in strips one root box wide
SIDES = (64, 16, 4, 2)
#: the least t whose tube volume a grid of spacing h resolves
TUBE_FLOOR = ResolutionFloor("5h", lambda h: 5 * h)
#: largest distance of a rotated boundary vertex from its partner's
#: mirror image that ``sector_half`` takes for round-off
MIRROR_TOL = 1e-12


@dataclass(frozen=True)
class Grid2:
    bbox: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    h: float
    nx: int
    ny: int
    values: np.ndarray = field(repr=False)

    @property
    def xs(self) -> np.ndarray:
        return self.bbox[0] + (np.arange(self.nx) + 0.5) * self.h

    @property
    def ys(self) -> np.ndarray:
        return self.bbox[1] + (np.arange(self.ny) + 0.5) * self.h


@dataclass(frozen=True)
class DistanceField:
    """Signed distances from cell centres to a polyline X, for the ramp.

    ``grid.values`` holds d(centre, X) in the cells of the ``inside``
    mask, -d(centre, X) in the band, the cells outside Ω within h/2 of
    X, and +inf in every other cell (see the module docstring).  Each
    distance is the minimum over every segment: the nested boxes' bound
    keeps every measured cell's nearest segment.
    """

    grid: Grid2
    inside: np.ndarray = field(repr=False)
    curve_length: float = 0.0
    region_area: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def h(self) -> float:
        return self.grid.h

    @cached_property
    def sorted_signed_distances(self) -> np.ndarray:
        """The signed distances of the inside and band cells in
        increasing order, sorted once."""
        values = self.grid.values
        return np.sort(values[np.isfinite(values)])

    @cached_property
    def running_sums(self) -> np.ndarray:
        """0 and the running sums of ``sorted_signed_distances``."""
        return np.concatenate([[0.0],
                               np.cumsum(self.sorted_signed_distances)])


def distance_field(curve: np.ndarray, region: np.ndarray, h: float,
                   meta: dict | None = None,
                   wedge: tuple = ()) -> DistanceField:
    """Signed distances to ``curve`` from the cells inside ``region``
    and from the band outside it.

    The grid covers the region polygon's bounding box; inside membership
    uses the even-odd rule on the region polygon.  A band cell lies
    outside the region within h/2 of the curve, and in every half-plane
    (p0, normal) of ``wedge``, where (centre - p0) . normal > 0.  One
    pass of nested boxes of the sides in SIDES measures both, a strip
    of the grid one root box wide at a time: a box that holds no inside
    cell and whose cells all lie h/2 or more from the curve is dropped,
    its centre measured but none of its cells.  Every other cell holds
    +inf.  ``meta`` gains h and ``band_cells``.
    """
    if h <= 0:
        raise ValueError(f"h must be > 0; got {h}")
    verts = np.atleast_2d(np.asarray(curve, dtype=float))
    if len(verts) == 1:
        verts = np.vstack([verts, verts])
    poly = np.asarray(region, dtype=float)
    xmin, ymin = poly.min(axis=0)
    xmax, ymax = poly.max(axis=0)
    nx = int(np.ceil((xmax - xmin) / h))
    ny = int(np.ceil((ymax - ymin) / h))
    if nx * ny > CELL_CAP:
        raise SizeLimitError(f"grid {nx}x{ny} exceeds cap {CELL_CAP}")
    grid = Grid2(bbox=(xmin, ymin, xmax, ymax), h=h, nx=nx, ny=ny,
                 values=np.full((nx, ny), np.inf))
    xs, ys, values = grid.xs, grid.ys, grid.values
    inside = point_in_polygon_mask(xs, ys, poly)

    frames = _segment_frames(verts[:-1], verts[1:])
    root, segments, band = SIDES[0], frames.shape[1], 0
    for x0 in range(0, nx, root):
        # the strip's inside cells, counted for ``_held``
        counts = np.zeros((min(root, nx - x0) + 1, ny + 1), dtype=np.int32)
        np.cumsum(np.cumsum(inside[x0:x0 + root], axis=0, dtype=np.int32),
                  axis=1, out=counts[1:, 1:])
        # the strip's root boxes, each with every segment
        by = np.arange(0, ny, root)
        bx, box = np.full_like(by, x0), np.zeros_like(by)
        cand, count = np.arange(segments), np.array([segments])
        for side, sub in zip(SIDES, SIDES[1:] + (1,)):
            cand, count = _inherit(cand, count, box)
            cx, cy, r = _boxes(xs, ys, bx, by, side)
            cand, count, d_min = _prune(cx, cy, r, cand, count, frames)
            # a box holds an inside cell or may hold a band cell: none
            # of its cells lies nearer the curve than d_min - r
            keep = np.flatnonzero(_held(counts, bx - x0, by, side)
                                  | (d_min - r < 0.5 * h))
            bx, by, box = _split(bx[keep], by[keep], side, sub, nx, ny)
            box = keep[box]
        # each cell of a kept 2 x 2 box takes the nearest of its box's
        cand, count = _inherit(cand, count, box)
        d = np.sqrt(np.minimum.reduceat(
            _squared_distances(np.repeat(xs[bx], count),
                               np.repeat(ys[by], count),
                               np.take(frames, cand, axis=1)),
            np.cumsum(count) - count))
        own = inside[bx, by]
        values[bx[own], by[own]] = d[own]
        near = ~own & (d < 0.5 * h)
        for p0, normal in wedge:
            near &= ((xs[bx] - p0[0]) * normal[0]
                     + (ys[by] - p0[1]) * normal[1] > 0)
        values[bx[near], by[near]] = -d[near]
        band += int(near.sum())

    return DistanceField(grid=grid, inside=inside,
                         curve_length=polyline_length(verts),
                         region_area=abs(polygon_area(poly)),
                         meta={"h": h, "band_cells": band, **(meta or {})})


def _held(counts, x0, y0, side):
    """Whether the side x side boxes at corners (x0, y0), cut at the
    grid's edge, hold a cell of a mask whose running sums along both
    axes, after a row and a column of zeros, are ``counts``."""
    x1 = np.minimum(x0 + side, counts.shape[0] - 1)
    y1 = np.minimum(y0 + side, counts.shape[1] - 1)
    return (counts[x1, y1] - counts[x0, y1] - counts[x1, y0]
            + counts[x0, y0] > 0)


def _split(x0, y0, side, sub, nx, ny):
    """The corners of the sub x sub boxes that tile the side x side boxes
    at corners (x0, y0), those on the nx x ny grid, and each one's box."""
    step = np.arange(0, side, sub)
    x = (x0[:, None] + np.repeat(step, len(step))).ravel()
    y = (y0[:, None] + np.tile(step, len(step))).ravel()
    on = np.flatnonzero((x < nx) & (y < ny))
    return x[on], y[on], on // len(step) ** 2


def _boxes(xs, ys, x0, y0, side):
    """Centres and radii of the boxes of cell centres [x0, x0 + side) x
    [y0, y0 + side), cut at the grid's edge.  The radius bounds the
    distance from the centre to every cell centre of its box."""
    x1 = np.minimum(x0 + side, len(xs)) - 1
    y1 = np.minimum(y0 + side, len(ys)) - 1
    cx = 0.5 * (xs[x0] + xs[x1])
    cy = 0.5 * (ys[y0] + ys[y1])
    return cx, cy, np.hypot(xs[x1] - cx, ys[y1] - cy) + 1e-12


def _inherit(cand, count, parent):
    """Candidate lists copied from groups to their children: child j
    gets group parent[j]'s count[parent[j]] consecutive entries of cand."""
    start = np.cumsum(count) - count
    return cand[_ranges(start[parent], count[parent])], count[parent]


def _prune(cx, cy, radii, cand, count, frames):
    """Keep, of the count[j] consecutive entries of cand that box j holds,
    those within d_min[j] + 2 radii[j] of its centre (cx[j], cy[j]), where
    d_min[j] is the centre's nearest distance among them.  Returns cand,
    count and d_min."""
    d = np.sqrt(_squared_distances(np.repeat(cx, count),
                                   np.repeat(cy, count),
                                   np.take(frames, cand, axis=1)))
    first = np.cumsum(count) - count
    d_min = np.minimum.reduceat(d, first)
    keep = d <= np.repeat(d_min + 2.0 * radii, count)
    return cand[keep], np.add.reduceat(keep, first), d_min


def sector_half(region: SnowflakeRegion, index: int
                ) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Sector ``index`` of ``region`` in its canonical frame: the closed
    boundary polyline, the part of the sector on or above the x axis,
    and the half-wedge that holds that part's band, as ``distance_field``
    takes it.

    Sector k lies between base vertices k and k + 1, and its bisector is
    at angle -pi (2k + 1) / n; the frame rotates the region by the
    opposite angle and makes the boundary exactly mirror-symmetric about
    the x axis (see the module docstring).  ``vonkoch.sector_region``
    cuts the sector out of the rotated region and checks ``index``; the
    half-wedge lies above the axis and on the sector's side of the cut
    through base vertex k, now at angle pi / n.
    """
    n = region.params.n
    rot = rotation_matrix(np.pi * (2 * index + 1) / n).T
    b = region.boundary @ rot
    # vertex p is vertex count - 1 - p of the curve copies laid on the
    # base edges in turn, m = count / n per edge; the mirror sends copy
    # vertex i to (2k + 1) m - i, and so vertex p to (c - p) mod count
    count = len(b)
    c = -2 - (2 * index + 1) * (count // n)
    image = b[(c - np.arange(count)) % count] * [1.0, -1.0]
    pairing = float(np.max(np.abs(b - image)))
    if pairing > MIRROR_TOL:
        raise AssertionError(f"sector {index} is {pairing:.3g} off its "
                             "mirror")
    b = 0.5 * (b + image)
    base = region.n_gon_vertices @ rot
    sector = sector_region(replace(region, boundary=b, n_gon_vertices=base),
                           index)
    apex = np.zeros(2)
    half = clip_polygon_halfplane(sector, apex, (0.0, 1.0))
    # the wedge's apex is cut from two rays, so the clip's points next
    # to it can land a rounding below the axis
    np.maximum(half[:, 1], 0.0, out=half[:, 1])
    cut = base[index] / np.hypot(*base[index])
    wedge = ((apex, (0.0, 1.0)), (apex, (cut[1], -cut[0])))
    return np.vstack([b, b[:1]]), half, wedge


def mirror_field(half: DistanceField) -> DistanceField:
    """The field on a whole sector from ``half``, its field on the upper
    half of ``sector_half``.

    The half's grid starts on the x axis, so its rows lie at
    y = (j + 1/2) h, and the rows at -(j + 1/2) h below the axis take
    their values by reflection, the band's included; the whole grid's
    ``ys`` give those centres up to round-off only.  Curve length and
    meta are the half's; the area is twice the half's, and meta gains
    ``cells_measured``, the half's inside and band cells, and
    ``band_cells`` counts the whole field's.
    """
    g = half.grid
    if g.bbox[1] != 0.0:
        raise ValueError("the half field's grid must start on the x axis")
    grid = Grid2(bbox=(g.bbox[0], -g.ny * g.h, g.bbox[2], g.bbox[3]),
                 h=g.h, nx=g.nx, ny=2 * g.ny,
                 values=np.concatenate([g.values[:, ::-1], g.values],
                                       axis=1))
    band = half.meta["band_cells"]
    fld = DistanceField(grid=grid,
                        inside=np.concatenate([half.inside[:, ::-1],
                                               half.inside], axis=1),
                        curve_length=half.curve_length,
                        region_area=2.0 * half.region_area,
                        meta={**half.meta, "band_cells": 2 * band,
                              "cells_measured":
                                  int(half.inside.sum()) + band})
    # every signed distance is there twice: the half's sorted, repeated
    fld.__dict__["sorted_signed_distances"] = np.repeat(
        half.sorted_signed_distances, 2)
    return fld


def sector_field(region: SnowflakeRegion, h: float,
                 kernel=None) -> DistanceField:
    """``region``'s field at spacing h on sector 0, measured above its
    mirror axis by ``kernel`` (``distance_field`` when None) and
    mirrored; meta carries the level, n and r.

    The ramp smooths membership across the curve only: the half's band
    is kept in the half-wedge of ``sector_half``, above the axis and on
    the sector's side of its radial cut, so that membership across the
    cut stays by cell centre, as the inside cells' does.
    """
    curve, half, wedge = sector_half(region, 0)
    return mirror_field((kernel or distance_field)(curve, half, h, meta={
        "level": region.level, "n": region.params.n, "r": region.params.r},
        wedge=wedge))


def tube_function(fld: DistanceField, ts) -> SampledFunction:
    """V(t) = h^2 sum_s [clamp((t - s)/h + 1/2, 0, 1) - clamp(1/2 - s/h,
    0, 1)] over the field's signed distances s, nondecreasing in t.

    The second term is the ramp of the region itself, the first its
    ramp at the level t.  Over the sorted s, each is the count of the s
    at or below its lower edge plus the window's linear part, read off
    the running sums: two bisections per level.  The signed distances
    are sorted, and summed, once per field however many times this is
    called.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("ts must be positive and increasing")
    h, s, sums = fld.h, fld.sorted_signed_distances, fld.running_sums
    level = np.concatenate([[0.0], ts])
    lo = np.searchsorted(s, level - 0.5 * h, side="right")
    hi = np.searchsorted(s, level + 0.5 * h, side="left")
    ramp = lo + (hi - lo) * (level / h + 0.5) - (sums[hi] - sums[lo]) / h
    vals = h ** 2 * (ramp[1:] - ramp[0])
    meta = {**fld.meta, "h": h, "curve_length": fld.curve_length,
            "region_area": fld.region_area}
    return SampledFunction(ts, vals, meta=meta)


def grid_error_budget(fld: DistanceField) -> float:
    """Declared grid error of the tube volume: 4h * curve perimeter."""
    return 4.0 * fld.h * fld.curve_length


def prefractal_gap(params: GKCParams, level: int) -> float:
    """Hausdorff gap bound between a level-L prefractal and the attractor.

    Uses the fixed-point estimate gap <= lam_max^L * d(X_0, X_1)/(1-lam_max).
    X_1 is the segment X_0 with a convex bump on its middle, so d(X_0, X_1)
    is the largest distance of a generator vertex from X_0.
    """
    lam = max(params.ell, params.r)
    d01 = segment_distances(generator_vertices(params), [[0.0, 0.0]],
                            [[1.0, 0.0]]).max()
    return lam ** level * float(d01) / (1.0 - lam)


@dataclass(frozen=True)
class SFEReport:
    """Residual of the von Koch tube scaling functional equation.

    rho(t) = V(t) - sum_k a_k lambda_k^2 V(t/lambda_k), summed over
    GKCParams.ratio_pairs, must lie in [0, (2 cot(theta/2) + theta) t^2]
    up to the declared grid budget.
    """

    ts: np.ndarray
    rho: np.ndarray
    bound: np.ndarray
    budget: np.ndarray
    passed: bool
    gap: float


def verify_gkf_sfe(region: SnowflakeRegion, fld: DistanceField,
                   ts) -> SFEReport:
    """Test the functional equation of the tube function of ``fld``, a
    distance field to ``region``'s boundary on one of its sectors."""
    ts = np.asarray(ts, dtype=float)
    TUBE_FLOOR.check("verify_gkf_sfe", "t", ts, fld.h)
    params = region.params
    pairs = params.ratio_pairs
    # V on the whole image grid: the slack reads it between the samples
    v, rho = sfe_split(lambda grid: tube_function(fld, grid), pairs, 1, ts)
    theta = params.theta
    bound = (2.0 / np.tan(theta / 2.0) + theta) * ts ** 2

    gap = prefractal_gap(params, region.level)
    base = grid_error_budget(fld)

    def slack(t):
        # grid budget plus the prefractal sandwich width of V at t
        hi = np.minimum(t + gap, v.ts[-1])
        lo = np.maximum(t - gap, v.ts[0])
        return base + (v(hi) - v(lo))

    # every term of the equation carries its own slack
    budget = slack(ts) + sfe_images(slack, pairs, 1, ts)
    passed = bool(np.all(rho >= -budget) and np.all(rho <= bound + budget))
    return SFEReport(ts=ts, rho=rho, bound=bound, budget=budget,
                     passed=passed, gap=gap)


def decomposition_remainder(region: SnowflakeRegion, t_list, h: float
                            ) -> tuple[SampledFunction, SampledFunction]:
    """(V, R) at the sorted t_list on a snowflake region, R(t) = V(t) -
    sum_k a_k lambda_k^2 V(t/lambda_k), from one field by ``sfe_split``."""
    ts = np.asarray(sorted(t_list), dtype=float)
    TUBE_FLOOR.check("decomposition_remainder", "t", ts, h)
    fld = sector_field(region, h)
    v, rem = sfe_split(lambda grid: tube_function(fld, grid),
                       region.params.ratio_pairs, 1, ts)
    return (SampledFunction(ts, v(ts), meta=dict(v.meta)),
            SampledFunction(ts, rem))


def minkowski_fit(samples: SampledFunction,
                  window: tuple[float, float]) -> tuple[float, float]:
    """Box-dimension estimate from the log-log slope of V(t).

    Least squares of log V against log t over the window; the slope is
    the codimension 2 - D.  Returns (D_est, c_est) where V ~ c * t^(2-D).
    """
    sel = fit_window("minkowski_fit", samples.ts, window)
    t, v = samples.ts[sel], samples.vals[sel]
    if np.any(v <= 0):
        raise ValueError("nonpositive tube values in the fit window")
    slope, intercept = np.polyfit(np.log(t), np.log(v), 1)
    return 2.0 - float(slope), float(np.exp(intercept))
