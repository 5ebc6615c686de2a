import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from fractaldims.ifs import Similitude2, apply
from fractaldims.vonkoch import GKCParams, build_system, prefractal
from fractaldims.zeta import RatioMultiset


def test_apply_homothety():
    s = Similitude2(scale=0.5)
    assert np.allclose(apply(s, (1.0, 0.0)), (0.5, 0.0))


def test_apply_koch_left_map():
    # scale-1/3 homothety of the (3, 1/3) construction
    s = Similitude2(scale=1 / 3)
    assert np.allclose(apply(s, (1.0, 0.0)), (1 / 3, 0.0), atol=1e-15)


def test_apply_rotation_translation():
    s = Similitude2(scale=0.5, rotation=np.pi / 2, translation=(1.0, 0.0))
    assert np.allclose(apply(s, (1.0, 0.0)), (1.0, 0.5))


def test_scale_must_contract():
    with pytest.raises(ValueError):
        Similitude2(scale=1.0)
    with pytest.raises(ValueError):
        Similitude2(scale=0.0)


@settings(max_examples=200, deadline=None)
@given(
    scale=st.floats(1e-6, 1 - 1e-9),
    rotation=st.floats(-10, 10),
    reflect=st.booleans(),
    tx=st.floats(-5, 5), ty=st.floats(-5, 5),
    px=st.floats(-10, 10), py=st.floats(-10, 10),
    qx=st.floats(-10, 10), qy=st.floats(-10, 10),
)
def test_distance_contraction_exact(scale, rotation, reflect, tx, ty,
                                    px, py, qx, qy):
    s = Similitude2(scale=scale, rotation=rotation, reflect=reflect,
                    translation=(tx, ty))
    p, q = np.array([px, py]), np.array([qx, qy])
    d0 = np.hypot(*(p - q))
    d1 = np.hypot(*(apply(s, p) - apply(s, q)))
    # 1e-12 relative, plus the unavoidable cancellation floor when the
    # translation magnitude dwarfs the scaled separation
    cancel = 16 * np.finfo(float).eps * (abs(tx) + abs(ty)
                                         + np.abs(p).sum()
                                         + np.abs(q).sum())
    assert abs(d1 - scale * d0) <= 1e-12 * scale * d0 + cancel


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    return float(max(cKDTree(b).query(a)[0].max(),
                     cKDTree(a).query(b)[0].max()))


def test_vonkoch_system_convergence():
    # the level-L prefractal vertices are the L-th image of {(0,0), (1,0)}
    # under the system's set map (checked in test_vonkoch.py), so
    # successive levels approach each other at a rate of at most the
    # largest scale
    params = GKCParams(3, 1 / 3)
    lam = max(m.scale for m in build_system(params).maps)
    levels = [prefractal(params, level).vertices for level in range(9)]
    gaps = [hausdorff_distance(levels[k], levels[k + 1]) for k in range(2, 8)]
    for g0, g1 in zip(gaps, gaps[1:]):
        assert g1 <= lam * g0 * (1 + 1e-9)


def test_ratio_entries_grouping():
    # equal scales of the system's maps merge into one ratio entry
    system = build_system(GKCParams(5, 0.19))
    entries = RatioMultiset.from_pairs(
        (m.scale, 1) for m in system.maps).entries
    assert len(entries) == 2
    (r1, m1), (r2, m2) = entries
    assert (m1, m2) == (2, 4)  # ell twice, r four times; ell > r here
    assert r1 == pytest.approx((1 - 0.19) / 2)
    assert r2 == pytest.approx(0.19)
