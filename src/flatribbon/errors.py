"""Exception hierarchy for the flatribbon package."""


class FlatRibbonError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(FlatRibbonError):
    """Curve parameters violate their constraints (e.g. nonpositive radius)."""


class NonRegularCurve(FlatRibbonError):
    """The curve's speed vanishes (or nearly vanishes) at some parameter, or its jet overflows."""


class ToleranceNotMet(FlatRibbonError):
    """Arc-length reparametrization could not reach the requested tolerance."""


class VanishingCurvature(FlatRibbonError):
    """An operation that needs kappa > 0 hit a point of (near-)zero curvature."""


class NonOrthogonalNormal(FlatRibbonError):
    """The supplied normal field is not orthogonal to the curve tangent."""


class SingularRuling(FlatRibbonError):
    """kappa_n vanishes with tau_g != 0, so no ruling direction exists there."""


class ExtensionOrderExceeded(FlatRibbonError):
    """Continuous extension of the ruling slope needs derivatives beyond order 3."""


class WidthTooLarge(FlatRibbonError):
    """Requested half-width exceeds the regularity bound of the ribbon."""


class OutsideRegularDomain(FlatRibbonError):
    """Point (t, u) lies outside the region where the ribbon is immersed."""


class DegenerateMetric(FlatRibbonError):
    """First fundamental form is degenerate (EG - F^2 <= 0)."""


class NormalCurvatureZero(FlatRibbonError):
    """The same-angle ODE cannot be used where kappa_n = 0."""


class NotCaseA(FlatRibbonError):
    """Field does not have identically vanishing tau_g (ruling angle pi/2)."""


class StepSizeUnderflow(FlatRibbonError):
    """The ODE integrator produced non-finite values."""


class ConfigError(FlatRibbonError):
    """Malformed run configuration."""
