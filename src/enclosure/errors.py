"""Exception types shared across the package."""


class EnclosureError(Exception):
    """Base class for all package-specific errors."""


# --- numerical substrate ---

class ZeroVector(EnclosureError):
    """A direction vector with (near-)zero norm was supplied."""


class PoleAtZero(EnclosureError):
    """A pole at zero reached: a spherical Neumann/Hankel function at z = 0,
    or CGO trace weights (which divide by k^4) at a wave number so small
    that they leave the double range."""


class NotTangential(EnclosureError):
    """A surface field has radial leakage above tolerance."""


class Unbounded(EnclosureError):
    """Halfspace directions do not positively span R^3."""


class Infeasible(EnclosureError):
    """Halfspace intersection is empty."""


class QuadratureUnderResolved(EnclosureError):
    """Doubling quadrature nodes changed the result beyond tolerance."""


# --- forward solver ---

class NearEigenvalue(EnclosureError):
    """Wave number too close to an interior Maxwell eigenvalue."""


class RadialOverflow(EnclosureError):
    """Radial functions left the double range at the truncation degree."""


class InvalidMedium(EnclosureError):
    """Material coefficients violate positivity constraints."""


class DegreeMismatch(EnclosureError):
    """Coefficient truncation degree incompatible with the operator."""


class PointOutOfDomain(EnclosureError):
    """Field evaluation requested outside the solved region."""


# --- layer potentials ---

class CoincidentPoints(EnclosureError):
    """Fundamental solution requested on its diagonal x = y."""


class TooCloseToSurface(EnclosureError):
    """Direct quadrature evaluation point too close to the surface."""


class NearInteriorEigenvalue(EnclosureError):
    """Jump equation close to singular (interior Maxwell eigenvalue)."""


class PointInside(EnclosureError):
    """Exterior field evaluation requested inside the sphere."""


# --- indicator / reconstruction ---

class TruncationInsufficient(EnclosureError):
    """Trace tail diagnostic exceeds tolerance at the working degree."""


class InsufficientTrustedSamples(EnclosureError):
    """Not enough trusted sweep samples to fit a regime or support value."""


class ConfigError(EnclosureError):
    """Run configuration failed validation."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))
