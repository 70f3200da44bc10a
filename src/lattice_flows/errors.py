"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for all errors raised by lattice_flows."""


class ChartMismatch(LatticeError):
    """A state was passed to an operation expecting a different chart."""


class DomainError(LatticeError):
    """State outside an operation's admissible domain (e.g. sqrt of a negative)."""


class DimensionError(LatticeError):
    """State length incompatible with the requested operation."""


class UnsupportedDimension(LatticeError):
    """System family not defined below a minimum size."""


class ParityError(DimensionError):
    """Operation requires odd (or even) dimension."""


class NonIntegerMultiplicity(LatticeError):
    """Diagram edge-count formula did not evaluate to an integer within tolerance."""


class DivisionByZero(LatticeError):
    """A coordinate required to be nonzero vanished."""


class StepFailure(LatticeError):
    """Adaptive step size underflowed, an adaptive run reached the step limit,
    or a step, or an invariant column at an accepted step, overflowed to a
    non-finite value."""


class DomainExit(LatticeError):
    """A positivity-constrained coordinate crossed zero during integration."""
