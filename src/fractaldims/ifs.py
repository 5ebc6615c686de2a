"""Planar similitudes and self-similar systems.

A similitude is stored as (scale, rotation, reflect, translation) rather
than a raw 2x2 matrix so the contraction ratio is exact by construction;
the dimension theory downstream consumes only these ratios.
``vonkoch.build_system`` chains the maps of the (n, r) construction, and
its prefractal polylines are the images of the unit segment under them.
All types are immutable values and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import rotation_matrix


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
