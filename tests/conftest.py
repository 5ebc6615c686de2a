from dataclasses import dataclass

import numpy as np
import pytest

from fractaldims import heat
from fractaldims.geom import rotation_matrix


def fourier_rod_content(t, terms=400):
    """1-D rod [0,1], unit boundary temperature: content E1(t)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    m = np.arange(1, 2 * terms, 2, dtype=float)
    return 1.0 - np.sum(8.0 / (m ** 2 * np.pi ** 2)
                        * np.exp(-np.outer(t, m ** 2 * np.pi ** 2)), axis=1)


def fourier_square_content(t, terms=400):
    """Unit square via the product structure: E2 = 1 - (1 - E1)^2."""
    return 1.0 - (1.0 - fourier_rod_content(t, terms)) ** 2


def fourier_rod_profile(x, t, terms=400):
    """1-D rod temperature profile u(x, t)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = np.arange(1, 2 * terms, 2, dtype=float)
    return 1.0 - np.sum(
        4.0 / (m[None, :] * np.pi) * np.sin(np.outer(x, m) * np.pi)
        * np.exp(-m[None, :] ** 2 * np.pi ** 2 * t), axis=1)


def heat_grids(region, h):
    """Centre and corner coordinates of ``heat._build_masks``'s grid around
    the polygon ``region``: centred on its bounding box, the shape read
    off the interior mask."""
    interior, _ = heat._build_masks(region, h)
    lo, hi = region.min(axis=0), region.max(axis=0)
    mid = 0.5 * (lo + hi)
    centres = tuple(mid[a] + (np.arange(m) - 0.5 * (m - 1)) * h
                    for a, m in enumerate(interior.shape))
    corners = tuple(mid[a] + (np.arange(m + 1) - 0.5 * m) * h
                    for a, m in enumerate(interior.shape))
    return centres, corners


def polygon_tube_volume(polygon, t):
    """V(t) = P t - K t^2, the area within t of the boundary inside a
    simple polygon, with K = sum_convex cot(g/2) - sum_reflex (g - pi)/2
    over its interior angles g.

    Each edge adds its rectangle of width t, a convex corner takes back
    the two triangles its rectangles overlap in, and a reflex corner adds
    the disc sector of angle g - pi between them.  Exact until the first
    offset event, where an edge of the inner offset curve vanishes or
    the offset meets itself.
    """
    v = np.asarray(polygon, dtype=float)
    x, y = v[:, 0], v[:, 1]
    if np.dot(x, np.roll(y, -1)) < np.dot(y, np.roll(x, -1)):
        v = v[::-1]  # counterclockwise, so a left turn is convex
    e_in = v - np.roll(v, 1, axis=0)
    e_out = np.roll(v, -1, axis=0) - v
    turn = np.arctan2(e_in[:, 0] * e_out[:, 1] - e_in[:, 1] * e_out[:, 0],
                      np.sum(e_in * e_out, axis=1))
    g = np.pi - turn
    convex = g < np.pi
    k = (np.sum(1.0 / np.tan(g[convex] / 2.0))
         - np.sum(g[~convex] - np.pi) / 2.0)
    t = np.asarray(t, dtype=float)
    return np.sum(np.hypot(*e_out.T)) * t - k * t ** 2


@pytest.fixture(scope="session")
def square_oracle():
    return fourier_square_content


@pytest.fixture(scope="session")
def rod_profile_oracle():
    return fourier_rod_profile


class CantorString:
    """Lengths 3^-n with multiplicity 2^(n-1): exact tube volumes."""

    def __init__(self, n_max=80):
        ns = np.arange(1, n_max + 1)
        self.lens = 3.0 ** (-ns)
        self.mults = 2.0 ** (ns - 1)

    def volume(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.sum(self.mults[None, :]
                      * np.minimum(2 * t[:, None], self.lens[None, :]),
                      axis=1)

    def volume_anti2(self, t):
        """Exact second antiderivative of the tube volume."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        tt = t[:, None]
        ll = self.lens[None, :]
        piece = np.where(tt <= ll / 2, tt ** 3 / 3,
                         ll ** 3 / 24 + ll * tt ** 2 / 2 - ll ** 2 * tt / 4)
        return np.sum(self.mults[None, :] * piece, axis=1)

    def remainder(self, t):
        """Length of the tube inside the longest (saturating) gap."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.minimum(2 * t, 1.0 / 3.0)


@pytest.fixture(scope="session")
def cantor_string():
    return CantorString()


@dataclass(frozen=True)
class Similitude:
    """The similarity map p -> translation + scale * R(rotation) p."""

    scale: float
    rotation: float = 0.0
    translation: tuple[float, float] = (0.0, 0.0)

    def __call__(self, p) -> np.ndarray:
        """Image of a point (2,) or of the rows of an (m, 2) array."""
        m = self.scale * rotation_matrix(self.rotation)
        return (np.asarray(p, dtype=float) @ m.T
                + np.asarray(self.translation, dtype=float))


def koch_maps(params) -> list[Similitude]:
    """The n+1 maps of the (n, r) construction, in chain order: phi_L
    scales by ell about the origin, psi_k by r with rotation
    alpha_int - (k-1)*theta about the previous map's image of (1, 0), and
    phi_R by ell onto [ell + r, 1].  The generator vertices are (0, 0)
    and the images of (1, 0); the level-L prefractal vertices are the
    L-th image of {(0, 0), (1, 0)} under the union of the maps."""
    n, r, ell = params.n, params.r, params.ell
    maps = [Similitude(ell)]
    for k in range(1, n):
        maps.append(Similitude(r, params.alpha_int - (k - 1) * params.theta,
                               tuple(maps[-1]((1.0, 0.0)))))
    maps.append(Similitude(ell, translation=(ell + r, 0.0)))
    return maps
