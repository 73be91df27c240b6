"""Exception types shared across the package."""


class ConfigError(Exception):
    """Anything that makes the run unusable before checks start."""


class EquimeanError(Exception):
    """Base class for all package-specific errors."""


class MembershipError(EquimeanError, ValueError):
    """A point is not a member of the space it was used with."""


class GroupConstructionError(EquimeanError, ValueError):
    """A Cayley table violates a group axiom; the message names a witness."""


class CapacityError(EquimeanError, ValueError):
    """An enforced size bound (group order, dyadic level, ...) was exceeded."""


class HypothesisError(EquimeanError, RuntimeError):
    """A construction's hypothesis (a law the input map must satisfy, a
    boundary condition, a fixed basepoint, ...) failed a numeric check.
    The message names the violated law and the worst witness."""


class ToleranceError(EquimeanError, RuntimeError):
    """A tolerance-dependent set computation came out inconsistent
    (e.g. a stabilizer that is not closed); retry with a smaller tol."""


class SamplingError(EquimeanError, RuntimeError):
    """A sampler could not produce any usable input (e.g. every candidate
    tuple was within the excluded near-diagonal radius)."""


class PrecisionError(EquimeanError, ValueError):
    """A requested error budget cannot be met within the enforced dyadic
    depth; carries the best achievable bound."""

    def __init__(self, message: str, achievable: float):
        super().__init__(message)
        self.achievable = achievable
