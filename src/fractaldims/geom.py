"""Planar geometry helpers: segment distances, polygon predicates, clipping.

Everything here operates on plain numpy arrays: a polyline is an (m, 2)
float array of vertices, a polygon is the same with an implied closing
edge from the last vertex back to the first.  All functions are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError


def rotation_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def polyline_length(vertices: np.ndarray) -> float:
    """Total length of an open polyline."""
    d = np.diff(np.asarray(vertices, dtype=float), axis=0)
    return float(np.sum(np.hypot(d[:, 0], d[:, 1])))


def polygon_area(vertices: np.ndarray) -> float:
    """Signed area (shoelace); positive for counterclockwise orientation."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


#: segments per pass of the nearest-segment minimum; bounds its memory to
#: O(m * SEGMENT_CHUNK)
SEGMENT_CHUNK = 256
SNAP_TOL = 1e-14  #: lattice the simplicity test snaps vertices to


def _squared_distances(points: np.ndarray, seg_a: np.ndarray,
                       seg_b: np.ndarray) -> np.ndarray:
    """Squared distances from each point to each segment [a_j, b_j].

    Clamp-and-project: t = clip((p - a).(b - a) / |b - a|^2, 0, 1), and
    the squared length of (p - a) - t (b - a).  Each segment's direction
    and 1/|b - a|^2 are formed once; the (m, k) arrays are then updated
    in place, with no division and no square root per pair.  Measured
    from p - a, a point near the curve loses to rounding about eps |b - a|
    of its distance, against eps |a| for p - (a + t (b - a)).  A
    zero-length segment gets t = 0: its single point.
    """
    p = np.asarray(points, dtype=float)
    a = np.asarray(seg_a, dtype=float)
    ab = np.asarray(seg_b, dtype=float) - a
    den = np.einsum("ij,ij->i", ab, ab)
    inv = np.divide(1.0, den, out=np.zeros_like(den), where=den != 0.0)
    dx = p[:, 0][:, None] - a[:, 0]
    dy = p[:, 1][:, None] - a[:, 1]
    t = dx * ab[:, 0]
    tmp = dy * ab[:, 1]
    t += tmp
    t *= inv
    np.clip(t, 0.0, 1.0, out=t)
    dx -= np.multiply(t, ab[:, 0], out=tmp)
    dy -= np.multiply(t, ab[:, 1], out=tmp)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def segment_distances(points: np.ndarray, seg_a: np.ndarray,
                      seg_b: np.ndarray) -> np.ndarray:
    """Exact distances from each point to each segment [a_j, b_j].

    points: (m, 2); seg_a, seg_b: (k, 2).  Returns (m, k), the square
    root of the squared clamp-and-project distances.  A zero-length
    segment is its single point.
    """
    return np.sqrt(_squared_distances(points, seg_a, seg_b))


def points_to_segments_distance(points: np.ndarray, seg_a: np.ndarray,
                                seg_b: np.ndarray) -> np.ndarray:
    """Distance from each point to the nearest of a batch of segments.

    points: (m, 2); seg_a, seg_b: (k, 2).  Returns (m,), +inf for k = 0.
    The minimum is taken over squared distances, chunk by chunk, and
    each point takes one square root at the end.
    """
    seg_a = np.asarray(seg_a, dtype=float)
    seg_b = np.asarray(seg_b, dtype=float)
    out = np.full(len(points), np.inf)
    for k0 in range(0, len(seg_a), SEGMENT_CHUNK):
        sl = slice(k0, k0 + SEGMENT_CHUNK)
        d2 = _squared_distances(points, seg_a[sl], seg_b[sl])
        np.minimum(out, d2.min(axis=1), out=out)
    return np.sqrt(out, out=out)


def snap(points: np.ndarray, tol: float) -> np.ndarray:
    """Round coordinates onto a tol-spaced lattice (for robust predicates)."""
    return np.round(np.asarray(points, dtype=float) / tol) * tol


def point_in_polygon_mask(xs: np.ndarray, ys: np.ndarray,
                          polygon: np.ndarray,
                          strict: bool = False) -> np.ndarray:
    """Even-odd (crossing number) inside test on a grid of cell centers.

    xs: (nx,), ys: (ny,) increasing center coordinates.  Returns a boolean
    (nx, ny) array.  An edge crosses the rows y with lo <= y < hi of its
    endpoint ordinates, found by bisection.  Every (edge, row) crossing
    toggles the first center at or right of its x; the cumulative parity
    of the toggles along x is then the parity of the crossing number, odd
    inside.  Test rows are nudged by a tiny irrational offset so polygon
    vertices lying exactly on a row are handled deterministically.

    With ``strict`` the test is run with the nudge in both directions and
    both crossing sides, and only centers inside under all variants count:
    centers sitting exactly on a boundary edge are then excluded
    symmetrically on all sides of the polygon.
    """
    poly = np.asarray(polygon, dtype=float)
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    nx, ny = len(xs), len(ys)
    span_y = max(np.ptp(ys), 1.0)
    span_x = max(np.ptp(xs), 1.0)
    if strict:
        # a center within ~1e-9 span of the boundary counts as outside,
        # symmetrically in all four directions (stable against the +/-1 ulp
        # placement of centers constructed to sit exactly on an edge)
        eps_y, eps_x = span_y * 1e-9, span_x * 1e-9
        nudges = (eps_y, -eps_y)
        probes = (-eps_x, eps_x)
    else:
        nudges = (span_y * 1e-12 * np.sqrt(2.0),)
        probes = (0.0,)
    mask = np.ones((nx, ny), dtype=bool)
    for dy in nudges:
        y = ys + dy
        # edge e crosses the runs[e] rows from first[e]: lo <= y < hi
        first = np.searchsorted(y, np.minimum(y1, y2))
        runs = np.searchsorted(y, np.maximum(y1, y2)) - first
        edge = np.repeat(np.arange(len(poly)), runs)
        row = np.arange(len(edge)) - np.repeat(np.cumsum(runs) - runs
                                               - first, runs)
        xa, yaa, xb, ybb = x1[edge], y1[edge], x2[edge], y2[edge]
        xc = xa + (y[row] - yaa) * (xb - xa) / (ybb - yaa)
        for dx in probes:
            # a crossing flips the parity of every center at or right of it
            flips = np.zeros((nx + 1, ny), dtype=bool)
            np.logical_xor.at(flips, (np.searchsorted(xs + dx, xc), row), True)
            mask &= np.logical_xor.accumulate(flips[:nx], axis=0)
    return mask


def clip_polygon_halfplane(polygon: np.ndarray, p0, normal) -> np.ndarray:
    """Sutherland-Hodgman clip: keep the side where (p - p0) . normal >= 0."""
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


def check_closed_polyline_simple(vertices: np.ndarray):
    """Verify that a closed polyline has no non-adjacent segment crossings.

    Coordinates are snapped to a lattice before the orientation tests so
    that touching configurations are classified consistently.  Raises
    GeometryError on the first crossing found.
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
                key = (min(i, j), max(i, j))
                if key in checked:
                    continue
                checked.add(key)
                if (lo[i, 0] > hi[j, 0] or lo[j, 0] > hi[i, 0]
                        or lo[i, 1] > hi[j, 1] or lo[j, 1] > hi[i, 1]):
                    continue
                if segments_properly_intersect(a[i], b[i], a[j], b[j]):
                    raise GeometryError(
                        f"non-adjacent segments {i} and {j} intersect")
