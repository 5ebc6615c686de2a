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

``verify_gkf_sfe(region, fld, ts)`` checks the von Koch scaling
functional equation: it takes the snowflake and the sector field its
caller built and forms rho through the shared kernel
``sampled.sfe_remainder``.  The check carries a declared grid-error
budget 4h*perimeter + prefractal sandwich width rather than a bare
tolerance; ``minkowski_fit`` reads a box dimension off V(t).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GeometryError, ResolutionError, SizeLimitError
from .geom import (_ranges, _segment_frames, _squared_distances,
                   point_in_polygon_mask, polygon_area, polyline_length,
                   segment_distances)
from .sampled import SampledFunction, sfe_grid, sfe_images, sfe_remainder
from .vonkoch import GKCParams, SnowflakeRegion, generator_vertices
# not called here: the benchmark's layer probes wrap tubes.snowflake
from .vonkoch import snowflake  # noqa: F401

#: cap on grid cells
CELL_CAP = 1 << 27

#: side of the square cell tiles that share one pruned segment set
TILE = 16
#: side of the sub-tiles that prune their tile's segment set again
SUB = 4


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
    if np.any(ts < 5 * fld.h):
        raise ResolutionError("requested t below 5h is not resolvable")
    if not region.verified_simple:
        raise GeometryError("snowflake region is not verified simple; "
                            "tube checks refuse it")
    params = region.params
    pairs = params.ratio_pairs
    all_ts = sfe_grid(ts, pairs, 1)
    v = tube_function(fld, all_ts)
    _, rho = sfe_remainder(v, pairs, 1, ts)
    theta = params.theta
    bound = (2.0 / np.tan(theta / 2.0) + theta) * ts ** 2

    gap = prefractal_gap(params, region.level)
    base = grid_error_budget(fld)

    def slack(t):
        # grid budget plus the prefractal sandwich width of V at t
        hi = np.minimum(t + gap, all_ts[-1])
        lo = np.maximum(t - gap, all_ts[0])
        return base + (v(hi) - v(lo))

    # every term of the equation carries its own slack
    budget = slack(ts) + sfe_images(slack, pairs, 1, ts)
    passed = bool(np.all(rho >= -budget) and np.all(rho <= bound + budget))
    return SFEReport(ts=ts, rho=rho, bound=bound, budget=budget,
                     passed=passed, gap=gap)


def minkowski_fit(samples: SampledFunction,
                  window: tuple[float, float]) -> tuple[float, float]:
    """Box-dimension estimate from the log-log slope of V(t).

    Least squares of log V against log t over the window; the slope is
    the codimension 2 - D.  Returns (D_est, c_est) where V ~ c * t^(2-D).
    """
    tmin, tmax = window
    sel = (samples.ts >= tmin) & (samples.ts <= tmax)
    if sel.sum() < 8:
        raise ValueError("need at least 8 samples inside the window")
    t, v = samples.ts[sel], samples.vals[sel]
    if np.any(v <= 0):
        raise ValueError("nonpositive tube values in the fit window")
    slope, intercept = np.polyfit(np.log(t), np.log(v), 1)
    return 2.0 - float(slope), float(np.exp(intercept))
