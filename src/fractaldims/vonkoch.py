"""Generalized von Koch curves and snowflakes.

The (n, r) family replaces the middle r-portion of a segment by the other
n-1 sides of a regular n-gon of side r, leaving two flanking segments of
length ell = (1-r)/2 each.  The dimension theory reads only the n+1
scaling ratios of that step (``GKCParams.ratio_pairs``); the geometry is
its n+2 generator vertices, and the level-L prefractal polyline
substitutes the generator into every segment L times.

Snowflakes place n curve copies on the edges of a unit-side regular
n-gon, bumps outward.  Below the self-avoidance bound the boundary is a
simple closed polygon at every level: ``snowflake`` verifies it so, and
raises at or above the bound, where ``snowflake_boundary`` is the same
polygon unverified, for drawing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, SizeLimitError
from .geom import (check_closed_polyline_simple, clip_polygon_halfplane,
                   polygon_area)

#: cap on prefractal segment counts
SEGMENT_CAP = 10_000_000
SVG_DIGITS = 8  #: significant digits of SVG path coordinates


@dataclass(frozen=True)
class GKCParams:
    """Parameters of an (n, r) von Koch construction.

    ell = (1-r)/2 is the flank length, theta = 2*pi/n the central angle
    and alpha_int = pi - 2*pi/n the interior angle of the regular n-gon.
    """

    n: int
    r: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"n must be >= 3; got {self.n!r}")
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"r must be in (0,1); got {self.r!r}")

    @property
    def ell(self) -> float:
        return (1.0 - self.r) / 2.0

    @property
    def theta(self) -> float:
        return 2.0 * math.pi / self.n

    @property
    def alpha_int(self) -> float:
        return math.pi - 2.0 * math.pi / self.n

    @property
    def ratio_pairs(self) -> tuple[tuple[float, int], ...]:
        """Unmerged (ratio, multiplicity) pairs: two flanks scale by ell,
        the n-1 bump sides by r."""
        return ((self.ell, 2), (self.r, self.n - 1))


def self_avoidance_bound(n: int) -> float:
    """Largest proven-safe r: sin^2(pi/n)/(cos^2(pi/n)+1) for even n,
    1-cos(pi/n) for odd n.  Sufficient but not necessary."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if n % 2 == 0:
        return math.sin(math.pi / n) ** 2 / (math.cos(math.pi / n) ** 2 + 1.0)
    return 1.0 - math.cos(math.pi / n)


def _warn_bound_band(n: int, r: float):
    # For n=6 two published sufficient bounds disagree (1/7 vs 1-sqrt(3)/2);
    # we use the even-n closed form but flag the contested band.
    if n == 6:
        alt = 1.0 - math.cos(math.pi / 6)
        if alt <= r < self_avoidance_bound(6):
            warnings.warn(
                f"r={r} lies between the two published n=6 self-avoidance "
                f"bounds ({alt:.6f} and {self_avoidance_bound(6):.6f}); "
                "simplicity is uncertain here", stacklevel=3)


def generator_vertices(params: GKCParams) -> np.ndarray:
    """Level-1 vertices on the unit interval: (n+2, 2), from (0, 0) to
    (1, 0) up to round-off.

    The flank [0, ell], then n-1 sides of length r in the directions
    alpha_int - (k-1)*theta, k = 1..n-1, then the flank [ell+r, 1].  Each
    vertex is its predecessor plus one step, summed in that order.
    """
    n, r, ell = params.n, params.r, params.ell
    verts = np.zeros((n + 2, 2))
    verts[1, 0] = ell
    for k in range(1, n):
        angle = params.alpha_int - (k - 1) * params.theta
        verts[k + 1] = verts[k] + r * np.array([np.cos(angle), np.sin(angle)])
    verts[n + 1, 0] = ell + (ell + r)
    return verts


def prefractal(params: GKCParams, level: int) -> np.ndarray:
    """Level-L substitution polyline from (0, 0) to (1, 0): the (m, 2)
    vertices of its (n+1)^level segments, each of length r^a * ell^b
    with a + b = level."""
    if level < 0:
        raise ValueError(f"level must be >= 0; got {level}")
    n = params.n
    if (n + 1) ** level > SEGMENT_CAP:
        raise SizeLimitError(f"level {level} needs {(n + 1) ** level} "
                             f"segments (cap {SEGMENT_CAP})")
    gen = generator_vertices(params)
    genc = gen[:, 0] + 1j * gen[:, 1]
    verts = np.array([0.0 + 0.0j, 1.0 + 0.0j])
    for _ in range(level):
        a = verts[:-1]
        w = verts[1:] - a
        # orientation-preserving image of the generator in each segment
        pieces = a[:, None] + w[:, None] * genc[None, :-1]
        verts = np.append(pieces.reshape(-1), verts[-1])
    return np.column_stack([verts.real, verts.imag])


@dataclass(frozen=True)
class SnowflakeRegion:
    """The region a snowflake bounds, with its base n-gon metadata.

    ``boundary`` lists the vertices once, counterclockwise (positive
    signed area); the closing edge is implied.  ``snowflake`` builds one
    only when it has verified the boundary simple.
    """

    boundary: np.ndarray = field(repr=False)
    n_gon_vertices: np.ndarray = field(repr=False)
    level: int
    params: GKCParams

    @property
    def closed_boundary(self) -> np.ndarray:
        """``boundary`` with the first vertex repeated at the end, the
        polyline whose segments include the closing edge."""
        return np.vstack([self.boundary, self.boundary[:1]])


def base_polygon(n: int) -> np.ndarray:
    """Unit-side regular n-gon centered at the origin, first vertex on +x,
    listed clockwise so curve bumps protrude outward."""
    circum = 1.0 / (2.0 * math.sin(math.pi / n))
    ang = -2.0 * math.pi * np.arange(n) / n
    return circum * np.column_stack([np.cos(ang), np.sin(ang)])


def snowflake_boundary(params: GKCParams, level: int) -> np.ndarray:
    """n prefractal copies stitched around the base n-gon, bumps outward:
    the boundary vertices once, counterclockwise, at any r and not
    checked for self-intersection."""
    curve = prefractal(params, level)
    cc = curve[:, 0] + 1j * curve[:, 1]
    a = base_polygon(params.n)
    a = a[:, 0] + 1j * a[:, 1]
    # one copy per base edge [a_k, a_k+1], less the end it shares with
    # the next copy
    pieces = a[:, None] + (np.roll(a, -1) - a)[:, None] * cc[None, :-1]
    boundary = pieces.reshape(-1)[::-1]  # counterclockwise, positive area
    return np.column_stack([boundary.real, boundary.imag])


def snowflake(params: GKCParams, level: int) -> SnowflakeRegion:
    """The region inside ``snowflake_boundary``, verified simple with
    positive area.  Raises GeometryError for r at or above the
    self-avoidance bound, where simplicity is not proven."""
    n, r = params.n, params.r
    bound = self_avoidance_bound(n)
    if r >= bound:
        raise GeometryError(
            f"snowflake n={n}, r={r:g} is not verified simple: r is at or "
            f"above the self-avoidance bound {bound:.6g}; lower r below it")
    _warn_bound_band(n, r)
    boundary = snowflake_boundary(params, level)
    check_closed_polyline_simple(boundary)  # raises GeometryError
    if polygon_area(boundary) <= 0:
        raise GeometryError("snowflake boundary has nonpositive area")
    return SnowflakeRegion(boundary=boundary, n_gon_vertices=base_polygon(n),
                           level=level, params=params)


def sector_region(region: SnowflakeRegion, index: int) -> np.ndarray:
    """Clip the snowflake polygon to one symmetry wedge of angle 2*pi/n.

    The wedge is bounded by rays from the center through base vertices
    ``index`` and ``index+1``; the n wedges tile the region up to seams.
    Returns the clipped polygon (vertices, counterclockwise).
    """
    n = region.params.n
    if not (0 <= index < n):
        raise ValueError(f"sector index {index} out of range")
    base = region.n_gon_vertices
    d0 = base[index] / np.hypot(*base[index])
    d1 = base[(index + 1) % n] / np.hypot(*base[(index + 1) % n])
    apex = np.array([0.0, 0.0])
    # wedge swept clockwise from d0 to d1: right of d0, left of d1
    n0 = np.array([d0[1], -d0[0]])
    n1 = np.array([-d1[1], d1[0]])
    poly = clip_polygon_halfplane(region.boundary, apex, n0)
    poly = clip_polygon_halfplane(poly, apex, n1)
    if len(poly) < 3:
        raise GeometryError("sector clip produced a degenerate polygon")
    if polygon_area(poly) < 0:
        poly = poly[::-1].copy()
    return poly


def snowflake_area_series(params: GKCParams, level: int) -> float:
    """Closed-form area of the level-L snowflake polygon.

    Each substitution step adds, per segment of length s, a regular n-gon
    bump of side r*s; summing squared segment lengths gives the geometric
    series below.  No command calls it: the benchmark checks the polygon
    area against it, and the tests check it against the polygon.
    """
    n, r = params.n, params.r
    unit_ngon = n / (4.0 * math.tan(math.pi / n))
    growth = sum(a * lam ** 2 for lam, a in params.ratio_pairs)
    total = 1.0
    for j in range(1, level + 1):
        total += n * r ** 2 * growth ** (j - 1)
    return unit_ngon * total


def polyline_to_svg_path(vertices: np.ndarray) -> str:
    v = np.asarray(vertices, dtype=float)
    parts = [f"M {v[0, 0]:.{SVG_DIGITS}g} {v[0, 1]:.{SVG_DIGITS}g}"]
    parts += [f"L {x:.{SVG_DIGITS}g} {y:.{SVG_DIGITS}g}" for x, y in v[1:]]
    return " ".join(parts)
