"""Exception types raised across the package."""


class PolsqueezeError(Exception):
    """Base class for all package-specific errors."""


class NonPurifiable(PolsqueezeError):
    """State is too thermal to be produced from a pure state by loss."""


class IndexOutOfRange(PolsqueezeError, ValueError):
    """Combinatorial index outside its allowed range."""


class OddOrder(PolsqueezeError, ValueError):
    """Moment integral requested for an odd order difference (value is zero)."""


class OrderTooLarge(PolsqueezeError, ValueError):
    """Correlation order beyond the configured table limit; in `detect`, a
    detected photon number above the count-law order limit, or a rotated
    count law that lost its precision to cancellation."""


class CutoffTooSmall(PolsqueezeError):
    """Fock-space truncation insufficient for the requested accuracy."""


class DimensionTooLarge(PolsqueezeError, ValueError):
    """Dense matrix would exceed the supported photon number."""


class TooFewPhotons(PolsqueezeError, ValueError):
    """A two-body reduction needs at least two photons."""


class RepeatedSetting(PolsqueezeError, ValueError):
    """A tomography schedule names one analysis setting more than once."""


class NotAState(PolsqueezeError, ValueError):
    """Matrix is not a valid density matrix (trace or positivity violated)."""


class NonNormalizedSetting(PolsqueezeError, ValueError):
    """A measurement setting vector deviates from unit norm."""


class InvalidShotCount(PolsqueezeError, ValueError):
    """Shot count must be a positive integer."""


class IncompleteSchedule(PolsqueezeError, ValueError):
    """Tomography settings do not span the X-state parameters."""


class NotReachable(PolsqueezeError):
    """No spin size up to the configured maximum admits the requested point."""
