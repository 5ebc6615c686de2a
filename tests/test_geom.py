import math

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
