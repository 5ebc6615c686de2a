"""Numerical laboratory for self-similar fractals.

Computes similarity dimensions and complex dimensions of self-similar
systems from their scaling ratios alone (von Koch curves and snowflakes
in particular), measures tube volumes and heat content on their regions,
and evaluates the scaling-functional-equation machinery (truncated
Mellin transforms, zeta-function factorization, pointwise explicit
formulas).  The ``fractal-dims`` commands in ``cli`` run that pipeline
and reach every definition in the package but one:
``vonkoch.snowflake_area_series``, the closed-form area the benchmark
checks snowflakes against.  The other analytic oracles live in the
tests.
"""

__version__ = "0.1.0"

from .sampled import SampledFunction, antiderivative, geometric_grid
from .vonkoch import (GKCParams, SnowflakeRegion, prefractal, sector_region,
                      self_avoidance_bound, snowflake)
from .zeta import (ComplexDimensionSet, DirichletPoly, LatticeStructure,
                   RatioMultiset, detect_lattice, lattice_poles,
                   lower_similarity_dimension, nonlattice_poles,
                   residue_simple, similarity_dimension, zeta_eval)

__all__ = [
    "__version__",
    "SampledFunction", "antiderivative", "geometric_grid",
    "GKCParams", "SnowflakeRegion", "prefractal", "sector_region",
    "self_avoidance_bound", "snowflake",
    "ComplexDimensionSet", "DirichletPoly", "LatticeStructure",
    "RatioMultiset", "detect_lattice", "lattice_poles",
    "lower_similarity_dimension", "nonlattice_poles", "residue_simple",
    "similarity_dimension", "zeta_eval",
]
