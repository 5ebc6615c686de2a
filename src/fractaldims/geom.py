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


SNAP_TOL = 1e-14  #: lattice the simplicity test snaps vertices to
#: bucket pairs per pass of the simplicity test; bounds its memory
PAIR_CHUNK = 1 << 16


def _segment_frames(seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """The (5, k) rows a_x, a_y, (b - a)_x, (b - a)_y and 1/|b - a|^2 of
    the segments [a_j, b_j], the last 0 for a zero-length segment."""
    a = np.asarray(seg_a, dtype=float)
    ab = np.asarray(seg_b, dtype=float) - a
    den = np.einsum("ij,ij->i", ab, ab)
    inv = np.divide(1.0, den, out=np.zeros_like(den), where=den != 0.0)
    return np.vstack([a.T, ab.T, inv])


def _squared_distances(px: np.ndarray, py: np.ndarray,
                       frames: np.ndarray) -> np.ndarray:
    """Squared distances from points (px, py) to segments, broadcast.

    ``frames`` holds the segments' ``_segment_frames`` columns, whose
    trailing axes broadcast with px and py: (m, 1) points against (5, k)
    frames give the (m, k) table, (P,) points against (5, P) gathered
    frames the P (point, segment) pairs.  Clamp-and-project: t =
    clip((p - a).(b - a) / |b - a|^2, 0, 1), and the squared length of
    (p - a) - t (b - a), updated in place with no division and no square
    root.  Measured from p - a, a point near the curve loses to rounding
    about eps |b - a| of its distance, against eps |a| for
    p - (a + t (b - a)).  A zero-length segment gets t = 0: its single
    point.
    """
    ax, ay, abx, aby, inv = frames
    dx = px - ax
    dy = py - ay
    t = dx * abx
    tmp = dy * aby
    t += tmp
    t *= inv
    np.clip(t, 0.0, 1.0, out=t)
    dx -= np.multiply(t, abx, out=tmp)
    dy -= np.multiply(t, aby, out=tmp)
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
    p = np.asarray(points, dtype=float)
    return np.sqrt(_squared_distances(p[:, :1], p[:, 1:],
                                      _segment_frames(seg_a, seg_b)))


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
    """Sutherland-Hodgman clip: keep the side where (p - p0) . normal >= 0.

    Vertex i is kept where d_i >= 0, and the edge to vertex i + 1 adds
    the point at t = d_i / (d_i - d_{i+1}) where d changes side; the two
    outputs of step i take the places 2i and 2i + 1.
    """
    poly = np.asarray(polygon, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    n = np.asarray(normal, dtype=float)
    d = (poly - p0) @ n
    keep = d >= 0
    cross = keep != np.roll(keep, -1)
    nxt = np.roll(poly, -1, axis=0)[cross]
    dc = d[cross]
    t = dc / (dc - np.roll(d, -1)[cross])
    out = np.stack([poly, poly], axis=1)
    out[cross, 1] += t[:, None] * (nxt - poly[cross])
    out = out[np.column_stack([keep, cross])]
    if len(out) < 3:
        return np.zeros((0, 2))
    return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[j] + arange(counts[j])."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def check_closed_polyline_simple(vertices: np.ndarray):
    """Verify that a closed polyline has no non-adjacent segment crossings.

    Coordinates are snapped to a lattice before the orientation tests so
    that touching configurations are classified consistently.  Each
    segment enters the buckets (squares of the longest segment's side)
    its bounding box meets; every non-adjacent pair sharing a bucket
    whose bounding boxes meet is tested with the orientation predicates,
    where a shared endpoint counts as an intersection.  Buckets are
    taken in the order segment by segment fills them, pairs in
    increasing segment order within a bucket, PAIR_CHUNK pairs per
    pass.  Raises GeometryError on the first crossing found.
    """
    v = snap(np.asarray(vertices, dtype=float), SNAP_TOL)
    m = len(v)
    a = v
    b = np.roll(v, -1, axis=0)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    cell = max(float(np.max(np.hypot(*(b - a).T))), SNAP_TOL)
    inv = 1.0 / cell
    c0 = np.floor(lo * inv).astype(np.int64)
    span = np.floor(hi * inv).astype(np.int64) - c0 + 1
    # one entry per (segment, bucket), segment by segment, x before y
    seg = np.repeat(np.arange(m), span[:, 0] * span[:, 1])
    k = _ranges(np.zeros(m, np.int64), span[:, 0] * span[:, 1])
    bx = c0[seg, 0] + k // span[seg, 1]
    by = c0[seg, 1] + k % span[seg, 1]
    key = (bx - bx.min()) * (by.max() - by.min() + 1) + (by - by.min())
    # group the entries by bucket, buckets in the order they were filled
    _, first, which = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first[which], kind="stable")
    seg, filled = seg[order], first[which][order]
    # entry e pairs with the later entries of its bucket
    end = np.searchsorted(filled, filled, side="right")
    partners = end - np.arange(len(seg)) - 1
    done = np.cumsum(partners)
    e0 = 0
    while e0 < len(seg):
        e1 = max(int(np.searchsorted(done, done[e0] - partners[e0]
                                     + PAIR_CHUNK, side="right")), e0 + 1)
        cnt = partners[e0:e1]
        i = np.repeat(seg[e0:e1], cnt)
        j = seg[_ranges(np.arange(e0 + 1, e1 + 1), cnt)]
        gap = np.abs(i - j)
        near = ((gap > 1) & (gap != m - 1)
                & np.all(lo[i] <= hi[j], axis=1)
                & np.all(lo[j] <= hi[i], axis=1))
        i, j = i[near], j[near]
        hit = np.flatnonzero(_segments_meet(a, b, lo, hi, i, j))
        if len(hit):
            i, j = i[hit[0]], j[hit[0]]
            raise GeometryError(
                f"non-adjacent segments {i} and {j} intersect")
        e0 = e1


def _segments_meet(a, b, lo, hi, i, j):
    """Whether segments [a_i, b_i] and [a_j, b_j], with bounding boxes
    [lo, hi], meet, pair by pair; a shared endpoint counts."""
    def orient(p, q, r):
        # sign of (q - p) x (r - p); 0 for collinear
        return np.sign((q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1])
                       - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0]))

    def on(s, p):
        return np.all((lo[s] <= p) & (p <= hi[s]), axis=1)

    ai, bi, aj, bj = a[i], b[i], a[j], b[j]
    o1, o2 = orient(ai, bi, aj), orient(ai, bi, bj)
    o3, o4 = orient(aj, bj, ai), orient(aj, bj, bi)
    return (((o1 != o2) & (o3 != o4))
            | ((o1 == 0) & on(i, aj)) | ((o2 == 0) & on(i, bj))
            | ((o3 == 0) & on(j, ai)) | ((o4 == 0) & on(j, bi)))
