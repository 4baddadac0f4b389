"""heatlab: desk-scale numerical laboratory for transition kernels of
diffusions with rough drift.

Subsystems
----------
grid        periodic spectral substrate: Gaussians, semigroup, convolution, norms
dyadic      dyadic frequency decomposition, Besov norms, drift norms
parametrix  iterated-correction kernel series with truncation control
cauchy      mild-solution fixed point (second, independent kernel route)
bounds      scalar inequality machinery and Gaussian envelope fitting
montecarlo  path simulation, densities, escape probabilities, path modulus
harness     batch experiment recipes and machine-readable reports
"""

__version__ = "0.1.0"

from . import bounds, cauchy, drifts, dyadic, grid, harness, montecarlo, parametrix
from .errors import (
    DivergentF,
    DivergentMoment,
    EnvelopeViolated,
    HeatLabError,
    IndexOutOfRange,
    NoConvergence,
    NoDecay,
    NotPowerOfTwo,
    PartitionInfeasible,
    QuadratureDivergence,
    SpecMismatch,
    StepTooLarge,
    WraparoundRisk,
)

__all__ = [
    "__version__",
    "grid", "dyadic", "parametrix", "cauchy", "bounds", "montecarlo",
    "drifts", "harness",
    "HeatLabError", "NotPowerOfTwo", "WraparoundRisk", "SpecMismatch",
    "DivergentMoment", "PartitionInfeasible", "IndexOutOfRange",
    "QuadratureDivergence", "NoDecay", "NoConvergence", "EnvelopeViolated",
    "StepTooLarge", "DivergentF",
]
