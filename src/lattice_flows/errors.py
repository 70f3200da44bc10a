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
    """Adaptive step size underflowed, or a step overflowed to a non-finite state."""


class DomainExit(LatticeError):
    """A positivity-constrained coordinate crossed zero during integration.

    Carries the partial trajectory computed up to the exit in ``trajectory``.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory
