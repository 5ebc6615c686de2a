import re
import warnings

import numpy as np
import pytest

from fractaldims import sampled
from fractaldims.errors import FitError
from fractaldims.heat import heat_exponent_fit
from fractaldims.mellin import MellinEvaluator
from fractaldims.sampled import (SampledFunction, antiderivative,
                                 geometric_grid, leading_power_fit,
                                 sfe_images, sfe_split)
from fractaldims.tubes import minkowski_fit
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
    # sampled once by sfe_split, F is read only at its samples
    sampled_F, rem = sfe_split(lambda grid: SampledFunction(grid, F(grid)),
                               PAIRS, alpha, ts)
    assert np.array_equal(sampled_F(ts), F(ts))
    assert np.allclose(rem, c * ts ** p * factor, rtol=1e-14, atol=0)


@pytest.mark.parametrize("alpha", [1, 2])
def test_sfe_split_samples_every_image_time(alpha):
    ts = np.geomspace(1e-3, 1e-2, 5)
    grid = sfe_split(lambda grid: SampledFunction(grid, grid), PAIRS, alpha,
                     ts)[0].ts
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


@pytest.mark.parametrize("fit, values", [
    (minkowski_fit, lambda t: 2 * t + np.pi * t ** 2),
    (heat_exponent_fit, lambda t: 0.8 * t ** 0.4 - 0.3 * t),
], ids=["minkowski_fit", "heat_exponent_fit"])
def test_fits_take_their_window_from_fit_window(fit, values):
    ts = geometric_grid(1e-3, 1e-1, 48)
    samples = SampledFunction(ts, values(ts))
    seven = (ts[10], ts[16])
    message = (f"{fit.__name__} needs at least 8 times in its fit window "
               f"[{seven[0]:g}, {seven[1]:g}]; the times from 0.001 to 0.1 "
               f"put 7 there: widen the window or raise points_per_decade")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit(samples, seven)
    assert np.count_nonzero(sampled.fit_window("fit", ts, (ts[10], ts[17]))) \
        == 8
    assert np.all(np.isfinite(fit(samples, (ts[10], ts[17]))))


def test_leading_power_fit_refuses_nodes_with_one_logarithm():
    # 1e-3 and the next double above it have the same logarithm, so no
    # slope joins them; the fit names them instead of returning NaN
    ts = np.array([1e-3, np.nextafter(1e-3, 1), 2e-3])
    vals = np.array([1.0, 1.0, 2.0])
    assert np.log(ts[0]) == np.log(ts[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match=re.escape(
                "nodes 0.001 and 0.0010000000000000002 have the same")):
            leading_power_fit(ts, vals)
        f = SampledFunction(ts, vals)
        assert f.leading_power is None
        assert not MellinEvaluator.build(f).tail_ok


def test_leading_power_is_fitted_once_per_function(monkeypatch):
    fit, calls = sampled.leading_power_fit, []

    def counted(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(sampled, "leading_power_fit", counted)
    ts = geometric_grid(1e-4, 1.0, 40)
    power = SampledFunction(ts, 3.0 * ts ** 0.5)
    flips = SampledFunction(ts, np.cos(40.0 * ts) * np.where(ts < 1e-3,
                                                             -1.0, 1.0))
    for _ in range(5):
        ev = MellinEvaluator.build(power)
        assert not MellinEvaluator.build(flips).tail_ok
    assert len(calls) == 2
    assert ev.sigma_hat == pytest.approx(-0.5, rel=1e-12)
    assert ev.tail_coef == pytest.approx(3.0, rel=1e-12)
    # antiderivative integrates from the first sample and fits nothing
    antiderivative(power, 2)
    assert len(calls) == 2
