"""Closed-form answers the benchmark gates against.

These are the benchmark's own copies: the Fourier series of the unit
square's heat content, the exact tube volume of the unit square, the
Cantor string's exact tube volume and its second antiderivative, and
the Dirichlet polynomial P(s) = 1 - sum a_k lambda_k^s evaluated in
plain Python so that pole checks do not go through the code under test.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def square_tube_volume(t):
    """V(t) = |{x in [0,1]^2 : d(x, boundary) < t}| = 1 - (1 - 2t)^2."""
    t = np.minimum(np.asarray(t, dtype=float), 0.5)
    return 1.0 - (1.0 - 2.0 * t) ** 2


def fourier_rod_content(t, terms=400):
    """Rod [0, 1] with unit boundary temperature: content E1(t)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    m = np.arange(1, 2 * terms, 2, dtype=float)
    return 1.0 - np.sum(8.0 / (m ** 2 * np.pi ** 2)
                        * np.exp(-np.outer(t, m ** 2 * np.pi ** 2)), axis=1)


def fourier_square_content(t, terms=400):
    """Unit square by the product structure: E2 = 1 - (1 - E1)^2."""
    return 1.0 - (1.0 - fourier_rod_content(t, terms)) ** 2


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


def dirichlet_p(ratios, s: complex) -> complex:
    """P(s) = 1 - sum m * r^s over (ratio, multiplicity) pairs."""
    return 1.0 - sum(m * cmath.exp(s * math.log(r)) for r, m in ratios)
