"""Distance fields, relative tube functions V(t) = |X_t ∩ Ω|, and checks.

The tube function of a curve X relative to a region Ω is measured on a
uniform grid by cell-center counting: V(t) ~ h^2 #{cells inside Ω with
d(center, X) < t}.  Only the cells inside Ω are measured, since only
they are counted; the others hold +inf.  Distances are exact
point-to-segment distances, found through a two-level bound on square
tiles of TILE x TILE cells and their SUB x SUB sub-tiles.  A box of
cells whose centres lie within r of its centre c need only keep the
segments within d_min(c) + 2r of c, where d_min(c) is c's nearest
distance: a segment farther than that is farther from every cell of
the box than c's nearest segment.  Per row of tiles, every tile with
an inside cell applies the bound to every segment; every sub-tile with
an inside cell applies it again, with its own centre and radius, to
its tile's segments only, which is exact because the sub-tile centre
lies in the tile, so its nearest segment survived the first pass.  Each
inside cell then takes the nearest of its sub-tile's segments; every
level runs on one set of ragged (point, segment) pair arrays per row.

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
y = 0 in floating point.  ``distance_field`` measures
the cells of that upper half, whose rows lie at y = (j + 1/2) h, so no
cell centre lies on the axis.  ``mirror_field`` gives the rows at
-(j + 1/2) h their mirror images' values.  The lower half is defined as
that reflection rather than measured: the polyline stores each mirrored
segment reversed, and the clamp-and-project kernel measures from the
segment's first end, so a direct distance at (x, -y) can differ from
the one at (x, y) by round-off, a few eps times the segment's length.
The upper half stays the exact minimum over every stored segment.

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
from .sampled import (FIT_MIN_SAMPLES, ResolutionFloor, SampledFunction,
                      sfe_images, sfe_split)
from .vonkoch import (GKCParams, SnowflakeRegion, generator_vertices,
                      sector_region)
# not called here: the benchmark's layer probes wrap tubes.snowflake
from .vonkoch import snowflake  # noqa: F401

#: cap on grid cells
CELL_CAP = 1 << 27

#: side of the square cell tiles that share one pruned segment set
TILE = 16
#: side of the sub-tiles that prune their tile's segment set again
SUB = 4
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
    """Exact distances from the cell centres inside Ω to a polyline.

    ``grid.values`` covers Ω's bounding box, but only the cells of the
    ``inside`` mask hold distances; every other cell holds +inf.  The
    two-level tile bound (see the module docstring) keeps each cell's
    nearest segment, so each distance is the minimum over all of them.
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
    def sorted_inside_distances(self) -> np.ndarray:
        """The inside distances in increasing order, sorted once."""
        return np.sort(self.grid.values[self.inside])


def distance_field(curve: np.ndarray, region: np.ndarray, h: float,
                   meta: dict | None = None) -> DistanceField:
    """Exact distances to ``curve`` from the cells inside ``region``.

    The grid covers the region polygon's bounding box; inside membership
    uses the even-odd rule on the region polygon.  Only inside cells are
    measured, and every other cell holds +inf, so ``d < t`` never counts
    it.  A tile or sub-tile with no inside cell is skipped, its centre
    included.
    """
    if h <= 0:
        raise ValueError("h must be positive")
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
    nsy = -(-ny // SUB)
    for tx0 in range(0, nx, TILE):
        ix, iy = np.nonzero(inside[tx0:tx0 + TILE])
        if not len(ix):
            continue
        # the live sub-tiles of this row of tiles, and the live tiles
        subs, cell_sub = _live(ix // SUB * nsy + iy // SUB, TILE // SUB * nsy)
        sx, sy = np.divmod(subs, nsy)
        tiles, sub_tile = _live(sy // (TILE // SUB), -(-ny // TILE))
        # a tile keeps the segments within its centre's nearest distance
        # plus its diameter
        cx, cy, r = _boxes(xs, ys, np.full_like(tiles, tx0), tiles * TILE,
                           TILE)
        d = np.sqrt(_squared_distances(cx[:, None], cy[:, None], frames))
        near = d <= d.min(axis=1, keepdims=True) + 2.0 * r[:, None]
        cand, count = np.nonzero(near)[1], near.sum(axis=1)
        # each sub-tile prunes its tile's segments again
        cand, count = _prune(*_boxes(xs, ys, tx0 + sx * SUB, sy * SUB, SUB),
                             *_inherit(cand, count, sub_tile), frames)
        # and each inside cell takes the nearest of its sub-tile's
        cand, count = _inherit(cand, count, cell_sub)
        ix += tx0
        d2 = _squared_distances(np.repeat(xs[ix], count),
                                np.repeat(ys[iy], count),
                                np.take(frames, cand, axis=1))
        values[ix, iy] = np.sqrt(np.minimum.reduceat(d2, np.cumsum(count)
                                                     - count))

    return DistanceField(grid=grid, inside=inside,
                         curve_length=polyline_length(verts),
                         region_area=abs(polygon_area(poly)),
                         meta={"h": h, **(meta or {})})


def _live(key, size):
    """The distinct values of ``key``, all in [0, size), in increasing
    order, and the index of each key among them."""
    seen = np.zeros(size, dtype=bool)
    seen[key] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[key]


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
    those within d_min + 2 radii[j] of its centre (cx[j], cy[j]), where
    d_min is the centre's nearest distance.  Returns cand and count."""
    d = np.sqrt(_squared_distances(np.repeat(cx, count),
                                   np.repeat(cy, count),
                                   np.take(frames, cand, axis=1)))
    first = np.cumsum(count) - count
    keep = d <= np.repeat(np.minimum.reduceat(d, first) + 2.0 * radii,
                          count)
    return cand[keep], np.add.reduceat(keep, first)


def sector_half(region: SnowflakeRegion, index: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sector ``index`` of ``region`` in its canonical frame: the closed
    boundary polyline and the part of the sector on or above the x axis.

    Sector k lies between base vertices k and k + 1, and its bisector is
    at angle -pi (2k + 1) / n; the frame rotates the region by the
    opposite angle and makes the boundary exactly mirror-symmetric about
    the x axis (see the module docstring).  ``vonkoch.sector_region``
    cuts the sector out of the rotated region and checks ``index``.
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
    sector = sector_region(replace(region, boundary=b,
                                   n_gon_vertices=region.n_gon_vertices
                                   @ rot), index)
    half = clip_polygon_halfplane(sector, np.zeros(2), (0.0, 1.0))
    # the wedge's apex is cut from two rays, so the clip's points next
    # to it can land a rounding below the axis
    np.maximum(half[:, 1], 0.0, out=half[:, 1])
    return np.vstack([b, b[:1]]), half


def mirror_field(half: DistanceField) -> DistanceField:
    """The field on a whole sector from ``half``, its field on the upper
    half of ``sector_half``.

    The half's grid starts on the x axis, so its rows lie at
    y = (j + 1/2) h, and the rows at -(j + 1/2) h below the axis take
    their values by reflection; the whole grid's ``ys`` give those
    centres up to round-off only.  Curve length and meta are the half's;
    the area is twice the half's, and meta gains ``cells_measured``, the
    inside cells whose distances the kernel computed.
    """
    g = half.grid
    if g.bbox[1] != 0.0:
        raise ValueError("the half field's grid must start on the x axis")
    grid = Grid2(bbox=(g.bbox[0], -g.ny * g.h, g.bbox[2], g.bbox[3]),
                 h=g.h, nx=g.nx, ny=2 * g.ny,
                 values=np.concatenate([g.values[:, ::-1], g.values],
                                       axis=1))
    measured = int(half.inside.sum())
    fld = DistanceField(grid=grid,
                        inside=np.concatenate([half.inside[:, ::-1],
                                               half.inside], axis=1),
                        curve_length=half.curve_length,
                        region_area=2.0 * half.region_area,
                        meta={**half.meta, "cells_measured": measured})
    # every inside distance is there twice: the half's sorted, repeated
    fld.__dict__["sorted_inside_distances"] = np.repeat(
        half.sorted_inside_distances, 2)
    return fld


def sector_field(region: SnowflakeRegion, h: float,
                 kernel=None) -> DistanceField:
    """``region``'s field at spacing h on sector 0, measured above its
    mirror axis by ``kernel`` (``distance_field`` when None) and
    mirrored; meta carries the level, n and r."""
    curve, half = sector_half(region, 0)
    return mirror_field((kernel or distance_field)(curve, half, h, meta={
        "level": region.level, "n": region.params.n, "r": region.params.r}))


def tube_function(fld: DistanceField, ts) -> SampledFunction:
    """V(t) = h^2 #{cells: d < t and inside}, nondecreasing in t.

    Counts by bisection in the field's inside distances, which are
    sorted once per field however many times this is called.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("ts must be positive and increasing")
    d = fld.sorted_inside_distances
    counts = np.searchsorted(d, ts, side="left")
    vals = fld.h ** 2 * counts
    meta = {**fld.meta, "h": fld.h, "curve_length": fld.curve_length,
            "region_area": fld.region_area}
    return SampledFunction(ts, vals, meta=meta)


def grid_error_budget(fld: DistanceField) -> float:
    """Declared cell-counting error: 4h * curve perimeter."""
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
    tmin, tmax = window
    sel = (samples.ts >= tmin) & (samples.ts <= tmax)
    if sel.sum() < FIT_MIN_SAMPLES:
        raise ValueError(f"need at least {FIT_MIN_SAMPLES} samples inside "
                         "the window")
    t, v = samples.ts[sel], samples.vals[sel]
    if np.any(v <= 0):
        raise ValueError("nonpositive tube values in the fit window")
    slope, intercept = np.polyfit(np.log(t), np.log(v), 1)
    return 2.0 - float(slope), float(np.exp(intercept))
