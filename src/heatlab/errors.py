"""Exception types shared across the laboratory modules."""


class HeatLabError(Exception):
    """Base class for all heatlab-specific failures."""


class NotPowerOfTwo(HeatLabError, ValueError):
    """Grid resolution must be a power of two (fast-transform requirement)."""


class WraparoundRisk(HeatLabError, ValueError):
    """The periodic box is too small for the requested diffusion time."""


class SpecMismatch(HeatLabError, ValueError):
    """Operands live on different grids."""


class DivergentMoment(HeatLabError, ValueError):
    """Gaussian exponential moment does not exist for these parameters."""


class PartitionInfeasible(HeatLabError, ValueError):
    """Too few grid frequencies to build a dyadic partition."""


class IndexOutOfRange(HeatLabError, IndexError):
    """Littlewood-Paley block index outside {-1, ..., j_max}."""


class QuadratureDivergence(HeatLabError, RuntimeError):
    """Time quadrature too coarse for the singular integrand (Richardson check)."""


class NoDecay(HeatLabError, RuntimeError):
    """Series terms fail to decay within the allowed number of terms."""


class NoConvergence(HeatLabError, RuntimeError):
    """Fixed-point iteration hit the iteration cap with residual above tolerance."""


class EnvelopeViolated(HeatLabError, RuntimeError):
    """Kernel went negative beyond tolerance; upstream truncation failed."""


class StepTooLarge(HeatLabError, ValueError):
    """Euler step violates the drift stability guard."""


class DivergentF(HeatLabError, RuntimeError):
    """Path modulus functional overflowed; exponent too large."""
