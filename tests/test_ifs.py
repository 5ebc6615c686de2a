"""The (n, r) construction read as an iterated function system.

The maps of ``conftest.koch_maps`` are the oracle: the generator
vertices are their images of (1, 0), and the ratios they contract by are
``GKCParams.ratio_pairs``.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from fractaldims.vonkoch import (GKCParams, generator_vertices, prefractal,
                                 self_avoidance_bound)
from fractaldims.zeta import RatioMultiset

from conftest import koch_maps


def test_generator_vertices_chain_the_maps():
    # the vertex chain sums the steps the maps chain, in the same order,
    # so it reproduces their images of (1, 0) bit for bit
    for n in range(3, 13):
        bound = self_avoidance_bound(n)
        rs = [bound * j / 30 for j in range(1, 30)]
        rs += [1 / 3, 0.24] if n in (3, 4) else []
        for r in rs:
            params = GKCParams(n, r)
            maps = koch_maps(params)
            oracle = np.array([(0.0, 0.0)] + [m((1.0, 0.0)) for m in maps])
            verts = generator_vertices(params)
            assert np.array_equal(verts, oracle), (n, r)
            # consecutive maps chain: each starts where the last one ends
            for left, right in zip(maps, maps[1:]):
                assert np.allclose(left((1.0, 0.0)), right((0.0, 0.0)),
                                   atol=1e-12)
            assert np.allclose(maps[-1]((1.0, 0.0)), (1.0, 0.0))
            steps = np.hypot(*np.diff(verts, axis=0).T)
            assert np.allclose(steps, [params.ell] + [r] * (n - 1)
                               + [params.ell], rtol=0, atol=1e-12)


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    return float(max(cKDTree(b).query(a)[0].max(),
                     cKDTree(a).query(b)[0].max()))


def test_vonkoch_system_convergence():
    # the level-L prefractal vertices are the L-th image of {(0,0), (1,0)}
    # under the system's set map (checked in test_vonkoch.py), so
    # successive levels approach each other at a rate of at most the
    # largest ratio
    params = GKCParams(3, 1 / 3)
    lam = max(ratio for ratio, _ in params.ratio_pairs)
    levels = [prefractal(params, level) for level in range(9)]
    gaps = [hausdorff_distance(levels[k], levels[k + 1]) for k in range(2, 8)]
    for g0, g1 in zip(gaps, gaps[1:]):
        assert g1 <= lam * g0 * (1 + 1e-9)


def test_ratio_entries_grouping():
    # the ratio pairs are the maps' scales, and equal scales merge into
    # one ratio entry: ell twice, r four times; ell > r here
    for r in (0.19, 1 / 5):
        params = GKCParams(5, r)
        entries = RatioMultiset.from_pairs(params.ratio_pairs).entries
        assert entries == RatioMultiset.from_pairs(
            (m.scale, 1) for m in koch_maps(params)).entries
        assert len(entries) == 2
        (r1, m1), (r2, m2) = entries
        assert (m1, m2) == (2, 4)
        assert r1 == pytest.approx((1 - r) / 2)
        assert r2 == pytest.approx(r)
