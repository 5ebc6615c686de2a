import numpy as np
import pytest

from fractaldims import vonkoch
from fractaldims.errors import GeometryError, SizeLimitError
from fractaldims.geom import polygon_area
from fractaldims.vonkoch import (GKCParams, base_polygon, generator_vertices,
                                 prefractal, sector_region,
                                 self_avoidance_bound, snowflake,
                                 snowflake_area_series, snowflake_boundary)
from fractaldims.zeta import RatioMultiset

from conftest import koch_maps

SQRT3 = np.sqrt(3.0)


def test_params_derived_quantities():
    p = GKCParams(5, 0.2)
    assert p.ell == pytest.approx(0.4)
    assert p.r + 2 * p.ell == pytest.approx(1.0)
    assert p.theta == pytest.approx(2 * np.pi / 5)
    assert p.alpha_int == pytest.approx(np.pi - 2 * np.pi / 5)


@pytest.mark.parametrize("n, r, message", [
    (2, 0.3, r"^n must be >= 3; got 2$"),
    (3, 0.0, r"^r must be in \(0,1\); got 0\.0$"),
    (3, 1.5, r"^r must be in \(0,1\); got 1\.5$"),
], ids=["n-two", "r-zero", "r-above-one"])
def test_params_refusals_name_the_value(n, r, message):
    with pytest.raises(ValueError, match=message):
        GKCParams(n, r)


def test_generator_vertices_koch():
    verts = generator_vertices(GKCParams(3, 1 / 3))
    expected = np.array([[0, 0], [1 / 3, 0], [0.5, SQRT3 / 6],
                         [2 / 3, 0], [1, 0]])
    assert np.allclose(verts, expected, atol=1e-14)


# The construction's iterated function system is the chain of maps of
# ``conftest.koch_maps``; its ratios are ``GKCParams.ratio_pairs`` and its
# images of (1, 0) are the generator vertices.

def test_build_system_ratio_multiset():
    params = GKCParams(5, 1 / 5)
    entries = RatioMultiset.from_pairs(params.ratio_pairs).entries
    assert entries == ((pytest.approx(0.4), 2), (pytest.approx(0.2), 4))
    assert entries == RatioMultiset.from_pairs(
        (m.scale, 1) for m in koch_maps(params)).entries


def test_build_system_endpoints_fixed():
    params = GKCParams(4, 0.22)
    maps = koch_maps(params)
    assert np.allclose(maps[0]((0.0, 0.0)), (0.0, 0.0))
    assert np.allclose(maps[-1]((1.0, 0.0)), (1.0, 0.0))
    verts = generator_vertices(params)
    assert np.allclose(verts[0], (0.0, 0.0))
    assert np.allclose(verts[-1], (1.0, 0.0))


def test_build_system_chain_continuity():
    for n, r in ((3, 1 / 3), (4, 0.2), (6, 0.1), (7, 0.17)):
        params = GKCParams(n, r)
        maps = koch_maps(params)
        for left, right in zip(maps, maps[1:]):
            assert np.allclose(left((1.0, 0.0)), right((0.0, 0.0)),
                               atol=1e-12)
        assert np.allclose(generator_vertices(params)[1:],
                           [m((1.0, 0.0)) for m in maps], atol=1e-12)


@pytest.mark.parametrize("n,expected", [
    (3, 0.5),
    (5, 1 - np.cos(np.pi / 5)),
    (6, (0.25) / (0.75 + 1.0)),
])
def test_self_avoidance_bound_values(n, expected):
    assert self_avoidance_bound(n) == pytest.approx(expected, abs=1e-12)


def test_self_avoidance_warning_band_n6():
    with pytest.warns(UserWarning):
        snowflake(GKCParams(6, 0.138), 1)


def test_prefractal_level0():
    assert np.allclose(prefractal(GKCParams(3, 1 / 3), 0), [[0, 0], [1, 0]])


def test_prefractal_counts_and_endpoints():
    for n, r, level in ((3, 1 / 3, 4), (5, 0.19, 3)):
        curve = prefractal(GKCParams(n, r), level)
        assert len(curve) == (n + 1) ** level + 1
        assert np.allclose(curve[0], (0, 0), atol=1e-15)
        assert np.allclose(curve[-1], (1, 0), atol=1e-12)


def test_prefractal_segment_lengths_are_mixed_powers():
    params = GKCParams(4, 0.21)
    level = 3
    curve = prefractal(params, level)
    seg = np.diff(curve, axis=0)
    lens = np.hypot(seg[:, 0], seg[:, 1])
    allowed = sorted({params.r ** a * params.ell ** (level - a)
                      for a in range(level + 1)})
    for length in lens:
        assert min(abs(length - x) for x in allowed) < 1e-12


def test_prefractal_total_length_scaling():
    params = GKCParams(3, 1 / 3)
    for level in range(7):
        curve = prefractal(params, level)
        seg = np.diff(curve, axis=0)
        total = np.hypot(seg[:, 0], seg[:, 1]).sum()
        assert total == pytest.approx((4 / 3) ** level, rel=1e-12)


def test_prefractal_general_length_scaling():
    params = GKCParams(5, 0.15)
    per_step = 2 * params.ell + 4 * params.r
    for level in range(5):
        curve = prefractal(params, level)
        seg = np.diff(curve, axis=0)
        total = np.hypot(seg[:, 0], seg[:, 1]).sum()
        assert total == pytest.approx(per_step ** level, rel=1e-12)


def test_prefractal_cap(monkeypatch):
    # 4^12 = 16.8M segments is above SEGMENT_CAP, and the level is
    # refused before any vertex is built
    def no_generator(*args):
        raise AssertionError("generator built before the cap was checked")

    monkeypatch.setattr(vonkoch, "generator_vertices", no_generator)
    with pytest.raises(SizeLimitError, match="level 12 needs 16777216"):
        prefractal(GKCParams(3, 1 / 3), 12)


def test_prefractal_matches_hutchinson_iteration():
    params = GKCParams(3, 1 / 3)
    maps = koch_maps(params)
    cloud = np.array([[0.0, 0.0], [1.0, 0.0]])
    for level in range(5):
        verts = prefractal(params, level)
        got = {tuple(np.round(p, 10)) for p in cloud}
        expect = {tuple(np.round(p, 10)) for p in verts}
        assert got == expect
        # the set map X -> union of phi_i(X) over the construction's maps
        cloud = np.vstack([m(cloud) for m in maps])


def test_snowflake_level0_is_ngon():
    for n in (3, 4, 6):
        region = snowflake(GKCParams(n, 0.1), 0)
        assert len(region.boundary) == n
        assert polygon_area(region.boundary) == pytest.approx(
            n / (4 * np.tan(np.pi / n)), rel=1e-12)


def test_snowflake_area_matches_series_oracle():
    for n, r, level in ((3, 1 / 3, 4), (4, 0.2, 3), (5, 0.19, 3)):
        region = snowflake(GKCParams(n, r), level)
        assert polygon_area(region.boundary) == pytest.approx(
            snowflake_area_series(GKCParams(n, r), level), rel=1e-9)


def test_koch_snowflake_area_limit():
    # the (3, 1/3) region area converges to 2 sqrt(3) / 5
    areas = [snowflake_area_series(GKCParams(3, 1 / 3), L)
             for L in range(0, 30)]
    assert areas[-1] == pytest.approx(2 * SQRT3 / 5, rel=1e-9)


def test_snowflake_rotational_symmetry():
    for n, r in ((3, 1 / 3), (5, 0.19)):
        region = snowflake(GKCParams(n, r), 3)
        theta = 2 * np.pi / n
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        rotated = region.boundary @ rot.T
        a = {tuple(np.round(p, 9)) for p in region.boundary}
        b = {tuple(np.round(p, 9)) for p in rotated}
        assert a == b


def test_snowflake_simple_below_bound():
    # snowflake verifies the boundary simple or raises
    for n, r, level in ((3, 0.32, 5), (4, 0.24, 4), (5, 0.18, 4)):
        assert r < self_avoidance_bound(n)
        snowflake(GKCParams(n, r), level)


def test_snowflake_above_bound_not_verified():
    with pytest.raises(GeometryError, match=r"n=6, r=0\.3 is not verified "
                       r"simple.*bound 0\.142857.*lower r"):
        snowflake(GKCParams(6, 0.3), 2)
    # the unverified polygon is still there to draw
    boundary = snowflake_boundary(GKCParams(6, 0.3), 2)
    assert len(boundary) == 6 * 7 ** 2 and polygon_area(boundary) > 0


# at n = 6, 0.99 times the bound lies in the band that warns
@pytest.mark.filterwarnings("ignore:r=.* n=6 self-avoidance bounds")
@pytest.mark.parametrize("n", range(3, 9))
def test_snowflake_is_built_only_below_the_bound(n):
    bound = self_avoidance_bound(n)
    region = snowflake(GKCParams(n, 0.99 * bound), 3)
    assert np.array_equal(region.boundary,
                          snowflake_boundary(GKCParams(n, 0.99 * bound), 3))
    with pytest.raises(GeometryError, match="not verified simple"):
        snowflake(GKCParams(n, bound), 3)


def test_sector_partition_areas():
    for n, r in ((3, 1 / 3), (4, 0.2)):
        region = snowflake(GKCParams(n, r), 3)
        sectors = [sector_region(region, i) for i in range(n)]
        areas = [abs(polygon_area(s)) for s in sectors]
        area = polygon_area(region.boundary)
        assert sum(areas) == pytest.approx(area, rel=1e-9)
        for a in areas:
            assert a == pytest.approx(area / n, rel=1e-9)


def test_sector_of_triangle_level0():
    region = snowflake(GKCParams(3, 1 / 3), 0)
    wedge = sector_region(region, 0)
    assert abs(polygon_area(wedge)) == pytest.approx(SQRT3 / 12, rel=1e-12)


def test_base_polygon_unit_side():
    for n in (3, 4, 5, 8):
        poly = base_polygon(n)
        side = np.hypot(*(poly[1] - poly[0]))
        assert side == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(poly.mean(axis=0), 0.0, atol=1e-12)


def test_sector_index_out_of_range():
    region = snowflake(GKCParams(3, 1 / 3), 1)
    with pytest.raises(ValueError):
        sector_region(region, 3)


def test_prefractal_refusal_names_the_level():
    with pytest.raises(ValueError, match=r"^level must be >= 0; got -1$"):
        prefractal(GKCParams(3, 1 / 3), -1)
