"""Planar similitudes, self-similar systems, and attractor approximation.

A similitude is stored as (scale, rotation, reflect, translation) rather
than a raw 2x2 matrix so the contraction ratio is exact by construction;
the dimension theory downstream consumes only these ratios.  All types
are immutable values and every operation is pure, so they are safe to
evaluate concurrently; results carry set semantics (order independent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SizeLimitError
from .geom import dedupe_points, rotation_matrix

#: snapping tolerance used when deduplicating point clouds
DEDUPE_TOL = 1e-12

#: default cap on cloud size; (n+1)^depth growth must fail loudly
CLOUD_CAP = 10_000_000


@dataclass(frozen=True)
class Similitude2:
    """Contractive similarity map of the plane: p -> t + scale * R(rot) * F * p.

    F is the reflection across the x-axis when ``reflect`` is set, applied
    before the rotation.  ``scale`` must lie strictly in (0, 1): the map is
    a nontrivial contraction and multiplies every distance by exactly
    ``scale``.
    """

    scale: float
    rotation: float = 0.0
    reflect: bool = False
    translation: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (0.0 < self.scale < 1.0):
            raise ValueError(f"scale must be in (0,1), got {self.scale}")

    def matrix(self) -> np.ndarray:
        m = self.scale * rotation_matrix(self.rotation)
        if self.reflect:
            m = m @ np.diag([1.0, -1.0])
        return m

    def __call__(self, p):
        return apply(self, p)


def apply(sim: Similitude2, p):
    """Apply a similitude to a point (2,) or a batch of points (m, 2)."""
    pts = np.asarray(p, dtype=float)
    out = pts @ sim.matrix().T + np.asarray(sim.translation, dtype=float)
    return out


@dataclass(frozen=True)
class SelfSimilarSystem:
    """A finite ordered collection of contractive similitudes."""

    maps: tuple[Similitude2, ...]

    def __post_init__(self):
        if len(self.maps) < 1:
            raise ValueError("a system needs at least one map")
        object.__setattr__(self, "maps", tuple(self.maps))

    @property
    def scales(self) -> np.ndarray:
        return np.array([m.scale for m in self.maps])

    def ratio_entries(self) -> list[tuple[float, int]]:
        """Group equal scales: [(ratio, multiplicity), ...], ratios decreasing."""
        groups: list[list[float]] = []
        for s in sorted(self.scales, reverse=True):
            if groups and abs(groups[-1][0] - s) <= DEDUPE_TOL:
                groups[-1].append(s)
            else:
                groups.append([s])
        return [(float(np.mean(g)), len(g)) for g in groups]


@dataclass(frozen=True)
class PointCloud:
    """Finite set of points in the plane (a discrete stand-in for compact sets)."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0 or pts.shape[1] != 2:
            raise ValueError("PointCloud needs a non-empty (m, 2) array")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)


def hutchinson(system: SelfSimilarSystem, cloud: PointCloud,
               cap: int = CLOUD_CAP) -> PointCloud:
    """One application of the set map X -> union of phi[X] over the system."""
    if len(cloud) * len(system.maps) > cap:
        raise SizeLimitError(
            f"hutchinson image would exceed {cap} points")
    images = [apply(m, cloud.points) for m in system.maps]
    return PointCloud(dedupe_points(np.vstack(images), DEDUPE_TOL))


def attractor_points(system: SelfSimilarSystem, depth: int,
                     seed: PointCloud, cap: int = CLOUD_CAP) -> PointCloud:
    """Depth-fold Hutchinson iteration from a seed cloud (deterministic)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    cloud = seed
    for _ in range(depth):
        cloud = hutchinson(system, cloud, cap=cap)
    return cloud


def hausdorff_distance(a: PointCloud, b: PointCloud) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    if len(a) == 0 or len(b) == 0:
        raise ValueError("hausdorff_distance needs non-empty clouds")
    from scipy.spatial import cKDTree  # only the convergence checks need it
    ta, tb = cKDTree(a.points), cKDTree(b.points)
    d_ab = tb.query(a.points)[0].max()
    d_ba = ta.query(b.points)[0].max()
    return float(max(d_ab, d_ba))
