import numpy as np
import pytest

from fractaldims.sampled import (SampledFunction, geometric_grid, sfe_grid,
                                 sfe_images, sfe_remainder)
from fractaldims.vonkoch import GKCParams
from fractaldims.zeta import RatioMultiset

# ((0.38, 2), (0.24, 3)): a nonlattice pair, so no image time repeats
PAIRS = GKCParams(4, 0.24).ratio_pairs


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("c, p", [(1.7, 1.3), (0.4, 0.5)])
def test_sfe_images_of_a_power_law(alpha, c, p):
    # F = c t^p gives F(t) - sum a lam^2 F(t/lam^alpha)
    #   = c t^p (1 - sum a lam^(2 - alpha p))
    ts = np.geomspace(1e-4, 1e-1, 13)

    def F(t):
        return c * t ** p

    factor = 1.0 - sum(a * lam ** (2 - alpha * p) for lam, a in PAIRS)
    got = F(ts) - sfe_images(F, PAIRS, alpha, ts)
    assert np.allclose(got, c * ts ** p * factor, rtol=1e-14, atol=0)
    # sampled on sfe_grid, F is read only at its samples
    grid = sfe_grid(ts, PAIRS, alpha)
    f_ts, rem = sfe_remainder(SampledFunction(grid, F(grid)), PAIRS, alpha,
                              ts)
    assert np.array_equal(f_ts, F(ts))
    assert np.allclose(rem, c * ts ** p * factor, rtol=1e-14, atol=0)


@pytest.mark.parametrize("alpha", [1, 2])
def test_sfe_grid_holds_every_image_time(alpha):
    ts = np.geomspace(1e-3, 1e-2, 5)
    grid = sfe_grid(ts, PAIRS, alpha)
    assert np.all(np.diff(grid) > 0)
    images = [ts] + [ts / lam ** alpha for lam, _ in PAIRS]
    assert len(grid) == 3 * len(ts)
    assert all(np.isin(t, grid).all() for t in images)


def test_ratio_pairs_are_unmerged_and_merge_in_the_multiset():
    assert PAIRS == (((1 - 0.24) / 2, 2), (0.24, 3))
    # ell and r of the n=3, r=1/3 curve differ in the last bit only
    koch = GKCParams(3, 1 / 3)
    assert len(koch.ratio_pairs) == 2
    entries = RatioMultiset.from_pairs(koch.ratio_pairs).entries
    assert len(entries) == 1 and entries[0][1] == 4


def test_empty_samples_are_refused():
    with pytest.raises(ValueError, match="non-empty"):
        SampledFunction([], [])


@pytest.mark.parametrize("per_decade", [0, -3])
def test_geometric_grid_refuses_fewer_than_one_point_per_decade(per_decade):
    with pytest.raises(ValueError, match=rf"per_decade must be >= 1; "
                                         rf"got {per_decade}"):
        geometric_grid(3e-4, 3e-3, per_decade)
