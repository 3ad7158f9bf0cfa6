"""Exception hierarchy for the engine.

Every domain failure raises a subclass of :class:`EngineError`, so callers
(including the CLI) can distinguish bad input from genuine bugs.
"""


class EngineError(Exception):
    """Base class for all domain errors raised by this package."""


class MissingVariable(EngineError):
    """Polynomial evaluation was not given a value for some variable."""


class RingMismatch(EngineError):
    """Operands belong to different Chow presentations."""


class DegreeMismatch(EngineError):
    """Integration was attempted on a class that is not of top degree."""


class InvalidRank(EngineError):
    """Projective-bundle presentation requested with rank < 2."""


class InvalidGraph(EngineError):
    """A dual graph violates the boundary-divisor conventions."""


class InvalidFamily(EngineError):
    """Directrix-family parameters outside the admissible range."""


class InvalidProfile(EngineError):
    """A ramification profile is not a partition into positive parts."""


class NoTameType(EngineError):
    """No tame splitting type exists with the requested floor."""


class OutOfRange(EngineError):
    """Argument outside the documented validity range."""


class IndexOutOfRange(EngineError):
    """Syzygy-bundle index outside 1..d-2."""


class UnknownKind(EngineError):
    """Unrecognized pencil-record label."""


class NotDivisorial(EngineError):
    """(d, g) fails the divisoriality congruences needed for the class X."""


class CongruenceViolation(EngineError):
    """Genus outside the admissible congruence class for the slope bound."""


class DegenerateDenominator(EngineError):
    """The divisor-class formulas degenerate (b = 10, i.e. g + d = 6)."""


class DerivationMismatch(EngineError):
    """Two derivations of the same quantity disagree: a bug in the engine,
    not bad input."""


def require(cond: bool, what: str) -> None:
    """Raise DerivationMismatch unless `cond` holds; `what` names the
    identity that was checked.  Unlike `assert`, this survives `python -O`."""
    if not cond:
        raise DerivationMismatch(f"derivation check failed: {what}")


class PropagationFailure(EngineError):
    """Inequality propagation could not certify some boundary divisor."""

    def __init__(self, label: str, message: str = ""):
        self.label = label
        super().__init__(message or f"propagation failed at {label}")
