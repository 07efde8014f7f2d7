"""Exception types shared across the toolkit.

Every validation failure raises a named subclass of :class:`ToolkitError` so
callers (and the CLI) can distinguish bad inputs (exit code 2) from numerical
self-check failures (exit code 3).
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- material / field validation ------------------------------------------

class StrongConvexityViolated(ToolkitError):
    """Lame moduli fail mu > 0 or n*lambda + 2*mu > 0."""


class InvalidFrequency(ToolkitError):
    """Angular frequency must be real and positive."""


class DimensionMismatch(ToolkitError):
    """Inputs disagree about the ambient dimension or array shapes."""


class GridTooCoarse(ToolkitError):
    """Regular grid does not resolve the relevant oscillation scale."""


class InsufficientSamples(ToolkitError):
    """Too few sample points for the requested estimator."""


class MeshMismatch(ToolkitError):
    """Sampled field and quadrature mesh do not belong together."""


# --- geometry ---------------------------------------------------------------

class ChartInvalid(ToolkitError):
    """Curvature chart violates one of its defining inequalities."""


class MeshTooCoarse(ToolkitError):
    """Requested spacing cannot resolve the smallest domain feature."""


class CoincidentPoints(ToolkitError):
    """Distinct points required."""


class UnsupportedDimension(ToolkitError):
    """Operation implemented for a restricted set of ambient dimensions."""


# --- special functions / kernels -------------------------------------------

class NonpositiveArgument(ToolkitError):
    """Argument outside the positive domain of a special function."""


class InvalidParameter(ToolkitError):
    """Parameter outside the admissible range of a special function."""


# --- forward problems -------------------------------------------------------

class BumpNotVanishing(ToolkitError):
    """Bump profile fails to vanish to second order on the boundary."""


class SeriesDiverges(ToolkitError):
    """Neumann series iteration is not contracting."""


class SingularSystem(ToolkitError):
    """Collocation system is numerically singular: its solve misses the residual gate."""


class InvalidDirection(ToolkitError):
    """Direction vector is not a unit vector of the right dimension."""


class OutOfRegime(ToolkitError):
    """Parameters leave the contraction / small-scatterer regime."""


# --- CGO machinery ----------------------------------------------------------

class TauTooSmall(ToolkitError):
    """Decay parameter must exceed the shear wavenumber."""


class NonOrthonormalPair(ToolkitError):
    """Direction pair is not orthonormal to tolerance."""


class NonDecaying(ToolkitError):
    """Exponent has nonnegative real part in the decay direction."""


class InvalidCurvatures(ToolkitError):
    """Curvature pair violates 0 < K_minus <= K_plus."""


class BoundaryConditionViolated(ToolkitError):
    """Field fails the required vanishing conditions on the boundary."""


class QuadratureBudgetExceeded(ToolkitError):
    """Requested quadrature would exceed the configured node budget."""


class KTooSmall(ToolkitError):
    """Curvature parameter must satisfy K >= e."""


# --- bound evaluators -------------------------------------------------------

class InvalidExponent(ToolkitError):
    """Holder exponent outside the admissible range."""


class ExponentOutOfRange(ToolkitError):
    """Decay exponent outside the range required in this dimension."""


class EmptySweep(ToolkitError):
    """Calibration requires a nonempty sweep."""


# --- CLI --------------------------------------------------------------------

class ConfigInvalid(ToolkitError):
    """Experiment configuration failed schema validation."""


class NumericalValidationFailure(ToolkitError):
    """A self-check of a run failed: a value compared with its refined
    recomputation, a closed form or a configured tolerance exceeded its
    limit, or was NaN."""
