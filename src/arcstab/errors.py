"""Typed errors shared across the package.

Numerical dead ends (vanishing denominators, lost brackets) are reported as
exceptions instead of letting NaNs propagate.
"""


class ArcstabError(Exception):
    """Base class for package errors."""


class SingularConfigurationError(ArcstabError):
    """An equilibrium or kinematic denominator vanished (vertical tangency,
    degenerate geometry). Carries the offending coordinate when known."""

    def __init__(self, msg, phi=None):
        super().__init__(msg)
        self.phi = phi


class DegenerateGeometryError(ArcstabError):
    """A limit where the governing quantity escapes to infinity or the
    parameterization collapses (critical load at infinite force, modulus
    denominator <= 0)."""


class ContinuationError(ArcstabError):
    """Root bracketing or branch continuation failed; message records the
    scanned window, or where following a branch stopped."""


class QuadratureError(ArcstabError):
    """Adaptive quadrature could not reach the requested tolerance."""


class ConfigError(ArcstabError):
    """Invalid run configuration (CLI layer)."""
