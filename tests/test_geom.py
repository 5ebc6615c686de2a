import math
from fractions import Fraction

import numpy as np
import pytest

from fractaldims import geom, heat
from fractaldims.errors import GeometryError
from fractaldims.geom import (SNAP_TOL, _segment_frames, _squared_distances,
                              check_closed_polyline_simple,
                              clip_polygon_halfplane, point_in_polygon_mask,
                              rotation_matrix, segment_distances, snap)
from fractaldims.vonkoch import GKCParams, snowflake

#: segments per pass of the brute-force nearest-segment minimum; bounds
#: its memory to O(m * SEGMENT_CHUNK)
SEGMENT_CHUNK = 256


def points_to_segments_distance(points, seg_a, seg_b) -> np.ndarray:
    """Brute-force field oracle: the distance from each point to the
    nearest of all the segments [a_j, b_j], +inf for k = 0.

    The minimum is taken over the shared kernel's squared distances,
    chunk by chunk, and each point takes one square root at the end.
    """
    p = np.asarray(points, dtype=float)
    seg_a = np.asarray(seg_a, dtype=float)
    seg_b = np.asarray(seg_b, dtype=float)
    out = np.full(len(p), np.inf)
    for k0 in range(0, len(seg_a), SEGMENT_CHUNK):
        sl = slice(k0, k0 + SEGMENT_CHUNK)
        d2 = _squared_distances(p[:, :1], p[:, 1:],
                                _segment_frames(seg_a[sl], seg_b[sl]))
        np.minimum(out, d2.min(axis=1), out=out)
    return np.sqrt(out, out=out)


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


@pytest.mark.parametrize("box, h", [
    (SQUARE, H_ALIGNED), (SQUARE, 1 / 20), (SQUARE, 1 / 21),
    (SQUARE, 5e-3), (SQUARE, 0.3), (TRIANGLE, 1e-2), (TRIANGLE, 3e-2),
    (SQUARE @ rotation_matrix(0.3).T + [0.2, -0.7], 1e-2),
    (np.array([[0.1, -0.2], [1.1, -0.2], [1.1, 0.35], [0.1, 0.35]]), 1 / 20),
])
def test_heat_grid_is_centred_on_the_box(box, h):
    # the centres mirror about the box midpoint on each axis, and the box
    # minimum is a centre when the box is a whole number of cells long
    centres, corners = heat_grids(box, h)
    lo, hi = box.min(axis=0), box.max(axis=0)
    for axis, (xs, cs) in enumerate(zip(centres, corners)):
        mid = 0.5 * (lo[axis] + hi[axis])
        assert np.allclose(xs + xs[::-1], 2 * mid, rtol=0, atol=1e-12)
        assert np.allclose(cs + cs[::-1], 2 * mid, rtol=0, atol=1e-12)
        assert xs[0] < lo[axis] - 1.5 * h and xs[-1] > hi[axis] + 1.5 * h
        cells = (hi[axis] - lo[axis]) / h
        gap = np.min(np.abs(xs - lo[axis]))
        if abs(cells - round(cells)) < 1e-9:
            assert gap < 1e-12
        else:
            # the nearer of the two lattices c + k h and c + (k + 1/2) h
            assert gap <= 0.25 * h + 1e-12


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


# ------------------------------------------------ scalar simplicity oracle


def _orient(a, b, c):
    """Sign of the cross product (b-a) x (c-a); 0 for collinear."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return 0 if v == 0 else (1 if v > 0 else -1)


def _on_segment(a, b, p):
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_properly_intersect(a, b, c, d) -> bool:
    """True if segments [a,b] and [c,d] intersect (orientation predicates).

    Shared endpoints count as intersections here; callers exclude adjacent
    segments before asking.
    """
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(a, b, c):
        return True
    if o2 == 0 and _on_segment(a, b, d):
        return True
    if o3 == 0 and _on_segment(c, d, a):
        return True
    if o4 == 0 and _on_segment(c, d, b):
        return True
    return False


def scalar_crossing(vertices):
    """The message of the first crossing the bucket loop finds, or None.

    Segments enter the buckets their bounding boxes meet, segment by
    segment; the buckets are scanned in the order they were filled and
    each bucket's pairs in increasing order, one pair at a time.
    """
    v = snap(np.asarray(vertices, dtype=float), SNAP_TOL)
    m = len(v)
    a = v
    b = np.roll(v, -1, axis=0)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    cell = max(float(np.max(np.hypot(*(b - a).T))), SNAP_TOL)
    inv = 1.0 / cell
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(m):
        i0, i1 = int(np.floor(lo[i, 0] * inv)), int(np.floor(hi[i, 0] * inv))
        j0, j1 = int(np.floor(lo[i, 1] * inv)), int(np.floor(hi[i, 1] * inv))
        for ii in range(i0, i1 + 1):
            for jj in range(j0, j1 + 1):
                buckets.setdefault((ii, jj), []).append(i)
    checked = set()
    for ids in buckets.values():
        for u in range(len(ids)):
            for w in range(u + 1, len(ids)):
                i, j = ids[u], ids[w]
                if abs(i - j) in (0, 1) or abs(i - j) == m - 1:
                    continue  # adjacent segments share a vertex
                if (i, j) in checked:
                    continue
                checked.add((i, j))
                if (lo[i, 0] > hi[j, 0] or lo[j, 0] > hi[i, 0]
                        or lo[i, 1] > hi[j, 1] or lo[j, 1] > hi[i, 1]):
                    continue
                if segments_properly_intersect(a[i], b[i], a[j], b[j]):
                    return f"non-adjacent segments {i} and {j} intersect"
    return None


def array_crossing(vertices):
    """The message ``check_closed_polyline_simple`` raises, or None."""
    try:
        check_closed_polyline_simple(vertices)
    except GeometryError as err:
        return str(err)
    return None


def random_polylines(rng, count):
    """Closed polylines of 3 to 40 vertices in three kinds, in turn: on a
    5 x 5 integer lattice (touching vertices, collinear overlaps and
    repeated points), star-shaped with a perturbation (simple or
    slightly tangled) and uniformly scattered at a random scale."""
    for trial in range(count):
        m = int(rng.integers(3, 41))
        kind = trial % 3
        if kind == 0:
            yield rng.integers(0, 5, (m, 2)).astype(float)
        elif kind == 1:
            ang = np.sort(rng.uniform(0.0, 2 * np.pi, m))
            rad = rng.uniform(0.5, 1.5, m)
            star = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
            yield star + rng.normal(0.0, rng.choice([0.0, 0.02, 0.3]),
                                    star.shape)
        else:
            yield rng.uniform(-1.0, 1.0, (m, 2)) * rng.uniform(0.01, 100.0)


def test_simplicity_matches_scalar_oracle():
    rng = np.random.default_rng(2024)
    verdicts = []
    for v in random_polylines(rng, 3000):
        expect = scalar_crossing(v)
        assert array_crossing(v) == expect, v
        verdicts.append(expect is None)
    # both verdicts are well represented
    assert 300 < sum(verdicts) < 2700


def test_simplicity_pair_chunks_do_not_change_the_verdict(monkeypatch):
    # 5 pairs per pass: buckets and crossings straddle the chunk edges
    monkeypatch.setattr(geom, "PAIR_CHUNK", 5)
    rng = np.random.default_rng(99)
    for v in random_polylines(rng, 300):
        assert array_crossing(v) == scalar_crossing(v), v
    check_closed_polyline_simple(snowflake(GKCParams(4, 0.24), 2).boundary)


def test_bow_tie_names_the_crossing_pair():
    bow_tie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(GeometryError, match="segments 0 and 2 intersect"):
        check_closed_polyline_simple(bow_tie)
    assert scalar_crossing(bow_tie) == array_crossing(bow_tie)


def test_vertex_touching_a_segment_raises():
    # vertex 3 = (2, 0) lies on segment 0 without being one of its ends
    touch = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [2.0, 0.0],
                      [0.0, 3.0]])
    for poly in (touch, 0.1 * touch + 0.3):
        assert array_crossing(poly) is not None
        assert array_crossing(poly) == scalar_crossing(poly)


def test_closing_edge_is_not_flagged_against_its_neighbours():
    # the closing edge shares a vertex with segments 0 and m - 2; a
    # triangle has only adjacent pairs, and the thin comb's closing edge
    # runs right along its first and last teeth
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    triangle = square[:3]
    comb = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [2.5, 1.0],
                     [2.5, 0.1], [0.5, 0.1], [0.5, 1.0], [0.0, 1.0]])
    for poly in (square, triangle, comb):
        check_closed_polyline_simple(poly)
        assert scalar_crossing(poly) is None


@pytest.mark.parametrize("n, r", [(3, 1 / 3), (4, 0.24), (3, 0.05)])
def test_level_5_snowflakes_are_verified_simple(n, r):
    region = snowflake(GKCParams(n, r), 5)
    assert region.verified_simple
    assert scalar_crossing(region.boundary) is None


# ------------------------------------------------ scalar clipping oracle


def scalar_clip(polygon, p0, normal):
    """Sutherland-Hodgman, one vertex at a time: keep the side where
    (p - p0) . normal >= 0."""
    poly = np.asarray(polygon, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    n = np.asarray(normal, dtype=float)
    out = []
    m = len(poly)
    d = (poly - p0) @ n
    for i in range(m):
        j = (i + 1) % m
        di, dj = d[i], d[j]
        if di >= 0:
            out.append(poly[i])
        if (di >= 0) != (dj >= 0):
            t = di / (di - dj)
            out.append(poly[i] + t * (poly[j] - poly[i]))
    if len(out) < 3:
        return np.zeros((0, 2))
    return np.asarray(out)


def assert_bitwise_equal(x, y):
    assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_clip_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    kept = dropped = 0
    for v in random_polylines(rng, 1500):
        if rng.random() < 0.5:
            # a lattice line through lattice points: vertices with d = 0
            p0 = rng.integers(0, 5, 2).astype(float)
            normal = rng.integers(-2, 3, 2).astype(float)
        else:
            p0 = rng.uniform(-1.0, 1.0, 2)
            normal = rng.normal(size=2)
        got = clip_polygon_halfplane(v, p0, normal)
        assert_bitwise_equal(got, scalar_clip(v, p0, normal))
        kept += len(got) == len(v) and np.array_equal(got, v)
        dropped += len(got) == 0
    assert kept > 50 and dropped > 50


def test_clip_keeps_whole_or_nothing_and_cuts_on_the_line():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    whole = clip_polygon_halfplane(square, [0.0, 0.0], [0.0, 1.0])
    assert_bitwise_equal(whole, square)
    assert len(clip_polygon_halfplane(square, [0.0, 2.0], [0.0, 1.0])) == 0
    # the diagonal through vertices 0 and 2 (d = 0 there): each is kept,
    # and the edge between it and the dropped vertex 1 adds it again at
    # t = 0 or t = 1
    half = clip_polygon_halfplane(square, [0.0, 0.0], [-1.0, 1.0])
    assert_bitwise_equal(half, scalar_clip(square, [0.0, 0.0], [-1.0, 1.0]))
    assert_bitwise_equal(half, square[[0, 0, 2, 2, 3]])
    # a cut through two edges adds the points at t = d_i / (d_i - d_j)
    cut = clip_polygon_halfplane(square, [0.25, 0.0], [1.0, 0.0])
    assert_bitwise_equal(cut, scalar_clip(square, [0.25, 0.0], [1.0, 0.0]))
    assert_bitwise_equal(cut, np.array([[0.25, 0.0], [1.0, 0.0], [1.0, 1.0],
                                        [0.25, 1.0]]))
