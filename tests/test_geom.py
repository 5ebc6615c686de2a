import math
from fractions import Fraction

import numpy as np
import pytest

from fractaldims import heat
from fractaldims.geom import (SEGMENT_CHUNK, point_in_polygon_mask,
                              points_to_segments_distance, rotation_matrix,
                              segment_distances)
from fractaldims.vonkoch import GKCParams, snowflake


# the reference repeats the kernel's arithmetic, but math.hypot may round
# differently from numpy's hypot: tolerances are a few ulps of O(1) values
def reference_distance(p, a, b) -> float:
    """Scalar clamp-and-project distance from p to the segment [a, b]."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    den = abx * abx + aby * aby
    t = 0.0 if den == 0.0 else ((p[0] - a[0]) * abx
                                + (p[1] - a[1]) * aby) / den
    t = min(1.0, max(0.0, t))
    return math.hypot(p[0] - (a[0] + t * abx), p[1] - (a[1] + t * aby))


def reference_table(points, seg_a, seg_b) -> np.ndarray:
    return np.array([[reference_distance(p, a, b)
                      for a, b in zip(seg_a, seg_b)] for p in points])


def test_segment_distances_closed_cases():
    seg_a = np.array([[0.0, 0.0], [0.3, 0.2]])
    seg_b = np.array([[1.0, 0.0], [0.3, 0.2]])  # second: zero length
    points = np.array([[-1.0, 0.0],   # beyond a, on the line
                       [2.0, 1.0],    # beyond b
                       [0.5, 0.3],    # projects inside
                       [0.3, 0.2]])   # on both segments
    d = segment_distances(points, seg_a, seg_b)
    assert d.shape == (4, 2)
    assert np.allclose(d[:, 0], [1.0, math.sqrt(2.0), 0.3, 0.2],
                       rtol=0, atol=1e-15)
    assert np.allclose(d[:, 1], np.hypot(points[:, 0] - 0.3,
                                         points[:, 1] - 0.2),
                       rtol=0, atol=1e-15)
    assert np.allclose(d, reference_table(points, seg_a, seg_b),
                       rtol=0, atol=1e-15)


def test_chunked_minimum_matches_reference():
    rng = np.random.default_rng(7)
    k = 2 * SEGMENT_CHUNK + 37  # three passes of the chunked minimum
    seg_a = rng.uniform(-1.0, 1.0, (k, 2))
    seg_b = seg_a + rng.normal(0.0, 0.2, (k, 2))
    seg_b[5] = seg_a[5]             # zero-length segments in two chunks
    seg_b[k - 3] = seg_a[k - 3]
    points = rng.uniform(-1.5, 1.5, (40, 2))
    points[0] = seg_a[k - 3] + 1e-3  # nearest segment in the last chunk
    table = reference_table(points, seg_a, seg_b)
    d = segment_distances(points, seg_a, seg_b)
    assert np.allclose(d, table, rtol=0, atol=1e-14)
    nearest = points_to_segments_distance(points, seg_a, seg_b)
    assert np.array_equal(nearest, d.min(axis=1))
    assert np.allclose(nearest, table.min(axis=1), rtol=0, atol=1e-14)
    assert int(np.argmin(table[0])) >= 2 * SEGMENT_CHUNK


def test_no_segments_is_infinitely_far():
    d = points_to_segments_distance(np.zeros((3, 2)), np.zeros((0, 2)),
                                    np.zeros((0, 2)))
    assert np.all(np.isinf(d))


def exact_distance(p, a, b) -> float:
    """Clamp-and-project distance from p to [a, b] in exact rational
    arithmetic, rounded once to a float."""
    px, py, ax, ay, bx, by = map(Fraction, (*p, *a, *b))
    abx, aby = bx - ax, by - ay
    t = ((px - ax) * abx + (py - ay) * aby) / (abx * abx + aby * aby)
    t = min(Fraction(1), max(Fraction(0), t))
    dx, dy = px - ax - t * abx, py - ay - t * aby
    return math.sqrt(dx * dx + dy * dy)


@pytest.mark.parametrize("level", [4, 7])
def test_near_curve_distances_match_exact_arithmetic(level):
    # points 1e-7 to 1e-5 off interior points of tilted snowflake
    # segments, where p - (a + t (b - a)) cancels to a few digits.
    # Rounding t (b - a) costs about eps |b - a| absolute, so the bound
    # is 1e-12 relative, or eps |b - a| / delta where that is larger
    # (level 4 below delta ~ 1e-6); at level 7 it is 1e-12 throughout.
    # Forming a + t (b - a) first costs eps |a| instead, tens to
    # thousands of times more here, and fails the bound.
    b = snowflake(GKCParams(3, 1 / 3), level).closed_boundary
    seg_a, seg_b = b[:-1], b[1:]
    ab = seg_b - seg_a
    length = np.hypot(ab[:, 0], ab[:, 1])
    tilted = np.flatnonzero(np.abs(ab[:, 1]) > 0.1 * length)
    rng = np.random.default_rng(11)
    sel = rng.choice(tilted, 100)
    delta = 10.0 ** rng.uniform(-7.0, -5.0, 100)
    normal = np.column_stack([-ab[sel, 1], ab[sel, 0]]) / length[sel, None]
    side = rng.choice([-1.0, 1.0], (100, 1))
    points = (seg_a[sel] + rng.uniform(0.2, 0.8, (100, 1)) * ab[sel]
              + side * delta[:, None] * normal)
    exact = np.array([exact_distance(p, seg_a[j], seg_b[j])
                      for p, j in zip(points, sel)])
    d = np.diag(segment_distances(points, seg_a[sel], seg_b[sel]))
    nearest = points_to_segments_distance(points, seg_a, seg_b)
    bound = np.maximum(1e-12, np.finfo(float).eps * length[sel] / delta)
    rel = np.abs(d - exact) / exact
    assert np.all(rel <= bound), rel.max()
    assert np.array_equal(nearest, d)


def row_scan_mask(xs, ys, polygon, strict=False):
    """Reference inside mask: a scanline per row, whose straddling edges
    are solved for their sorted x-crossings and counted left of each
    center, with the same nudges and probes as the kernel."""
    poly = np.asarray(polygon, dtype=float)
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    span_y = max(np.ptp(ys), 1.0)
    span_x = max(np.ptp(xs), 1.0)
    if strict:
        eps_y, eps_x = span_y * 1e-9, span_x * 1e-9
        nudges, probes = (eps_y, -eps_y), (-eps_x, eps_x)
    else:
        nudges, probes = (span_y * 1e-12 * np.sqrt(2.0),), (0.0,)
    mask = np.ones((len(xs), len(ys)), dtype=bool)
    for j in range(len(ys)):
        row = np.ones(len(xs), dtype=bool)
        for dy in nudges:
            y = ys[j] + dy
            straddle = (y1 <= y) != (y2 <= y)
            xa, yaa = x1[straddle], y1[straddle]
            xb, ybb = x2[straddle], y2[straddle]
            xc = np.sort(xa + (y - yaa) * (xb - xa) / (ybb - yaa))
            for dx in probes:
                counts = np.searchsorted(xc, xs + dx, side="right")
                row &= (counts % 2) == 1
        mask[:, j] = row
    return mask


SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
H_ALIGNED = 1 / 64  # with it the heat grid's centers hit 0 and 1 exactly
#: horizontal edges, vertices on center rows and columns of the
#: H_ALIGNED grid, and a vertex that is a local maximum on a row
STAIRS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.75, 0.5],
                   [0.75, 0.25], [0.5, 0.75], [0.25, 0.25], [0.25, 0.5],
                   [0.0, 0.5]])
TRIANGLE = np.array([[0.4, 0.45], [0.6, 0.45], [0.5, 0.55]])


def heat_grids(box, h):
    """Center and corner coordinates of ``heat._build_masks``'s grid
    around the polygon ``box``."""
    (x0, y0, nx, ny), _, _ = heat._build_masks(box, h)
    return ((x0 + (np.arange(nx) + 0.5) * h, y0 + (np.arange(ny) + 0.5) * h),
            (x0 + np.arange(nx + 1) * h, y0 + np.arange(ny + 1) * h))


MASK_CASES = {
    "square-aligned": (SQUARE, SQUARE, (H_ALIGNED, 5e-3, 5e-2)),
    "square-offset": (SQUARE + [0.37 * H_ALIGNED, 0.61 * H_ALIGNED],
                      SQUARE, (H_ALIGNED, 5e-3)),
    "square-rotated": (SQUARE @ rotation_matrix(0.3).T, None, (5e-3, 5e-2)),
    "stairs": (STAIRS, None, (H_ALIGNED, 1e-2)),
    # a grid reaching far above and below the polygon: empty rows
    "empty-rows": (TRIANGLE, SQUARE, (1e-2, 5e-2)),
    "snowflake-3-L2": ((3, 1 / 3, 2), None, (5e-3, 5e-2)),
    "snowflake-3-L3": ((3, 1 / 3, 3), None, (3e-3, 1e-2)),
    "snowflake-3-L4": ((3, 1 / 3, 4), None, (5e-3,)),
    "snowflake-4-L3": ((4, 0.24, 3), None, (5e-3, 1e-2)),
}


@pytest.mark.parametrize("case", list(MASK_CASES))
def test_polygon_mask_matches_row_scan(case):
    poly, box, hs = MASK_CASES[case]
    if isinstance(poly, tuple):
        n, r, level = poly
        poly = snowflake(GKCParams(n, r), level).boundary
    for h in hs:
        for xs, ys in heat_grids(poly if box is None else box, h):
            for strict in (False, True):
                mask = point_in_polygon_mask(xs, ys, poly, strict)
                oracle = row_scan_mask(xs, ys, poly, strict)
                assert mask.any()
                assert np.array_equal(mask, oracle), (h, len(xs), strict)


def test_polygon_mask_vertex_on_a_nudged_row():
    # vertices exactly on rows as the kernel nudges them: the half-open
    # rule lo <= y < hi decides which edges cross such a row
    (xs, ys), _ = heat_grids(SQUARE, H_ALIGNED)
    span = max(np.ptp(ys), 1.0)
    plain = ys + span * 1e-12 * np.sqrt(2.0)
    up, down = ys + span * 1e-9, ys - span * 1e-9
    poly = np.array([[0.1, plain[10]], [0.9, plain[10]], [0.9, up[30]],
                     [0.7, down[40]], [0.5, plain[50]], [0.3, up[40]],
                     [0.1, down[30]]])
    for strict in (False, True):
        assert np.array_equal(point_in_polygon_mask(xs, ys, poly, strict),
                              row_scan_mask(xs, ys, poly, strict))
