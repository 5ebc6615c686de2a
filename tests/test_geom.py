import math

import numpy as np

from fractaldims.geom import (SEGMENT_CHUNK, points_to_segments_distance,
                              segment_distances)


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
