"""Exception types shared across the toolkit."""

import numpy as np


class CauchyPairsError(Exception):
    """Base class for all toolkit errors."""


class RejectsNonCauchy(CauchyPairsError):
    """Shape operator fails the integrability or cohomology residual check."""


class DegenerateCase(CauchyPairsError):
    """Tolerance cannot separate a vanishing from a non-vanishing discriminant."""

    def __init__(self, message, margin):
        super().__init__(message)
        self.margin = margin


class ParamOutOfRange(CauchyPairsError, ValueError):
    """Family parameters violate the constraints of the requested table row."""


class GridInvalid(CauchyPairsError, ValueError):
    """Grid box or samples are malformed, or a serialized grid blob is corrupt."""


class GridTooSmall(CauchyPairsError):
    """Fewer than five samples on some axis; central stencils unavailable."""


class DegenerateCoframe(CauchyPairsError):
    """Coframe matrix is singular at one or more grid nodes."""

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes or []


class SingularMatrix(CauchyPairsError, np.linalg.LinAlgError):
    """A batched matrix inverse is singular or not representable at some node."""


class MixedConditionViolated(CauchyPairsError):
    """The symmetry condition on the transverse frame family fails."""

    def __init__(self, message, max_residual=None, location=None):
        super().__init__(message)
        self.max_residual = max_residual
        self.location = location


class WDerivativeVanishes(CauchyPairsError):
    """The warp-profile derivative vanishes somewhere; the closed-form choice breaks."""


class YZDependence(CauchyPairsError):
    """A quantity required to depend on x alone varies along y or z."""


class IntervalContainsSingularity(CauchyPairsError):
    """Requested time interval crosses the zero of the lapse-like factor."""


class SignatureViolation(CauchyPairsError):
    """Metric grid does not have Lorentzian signature at some node."""


class PairAlgebraViolated(CauchyPairsError):
    """Null/unit/orthogonality algebra of a parabolic pair fails."""


class NullDirectionNotParallel(CauchyPairsError):
    """Declared null direction is not parallel; plane-wave check inapplicable."""


class NotInGHForm(CauchyPairsError, ValueError):
    """Metric has dt-space cross terms, so it is not in globally hyperbolic form."""


class ConfigInvalid(CauchyPairsError):
    """CLI configuration failed schema validation."""
