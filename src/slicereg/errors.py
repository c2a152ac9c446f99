"""Exception hierarchy shared across the package."""


class SliceRegError(Exception):
    """Base class for all package errors."""


class NonInvertibleError(SliceRegError):
    """Attempted to invert the zero quaternion."""


class DegeneratePairError(SliceRegError):
    """Two imaginary units that must be distinct coincide."""


class OutOfDomainError(SliceRegError):
    """Evaluation requested outside the domain of a function."""


class StencilError(SliceRegError):
    """A finite-difference stencil leaves the domain."""


class DisconnectedDomainError(SliceRegError):
    """A continuation's base point lies on a cut or at the pole."""


class IncompatiblePairError(SliceRegError):
    """Two slice functions disagree on the shared real trace."""


class PreconditionError(SliceRegError):
    """An operation's documented precondition does not hold."""


class GridStepError(PreconditionError):
    """A raster's grid step is not positive, or leaves it no cell or more
    cells than the budget; the CLI names the option or key that set it."""


class GeometryError(SliceRegError):
    """A geometric construction degenerates (e.g. tube radius underflow)."""


class PathError(SliceRegError):
    """No grid path to the real axis exists at the working resolution."""


class ConsistencyError(SliceRegError):
    """Stem coefficients from different unit pairs disagree beyond tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnsupportedError(SliceRegError):
    """A combination of inputs is valid but not supported by this tool."""
