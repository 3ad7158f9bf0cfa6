"""Exception hierarchy for the engine, and the base of its value records.

Every domain failure raises a subclass of :class:`EngineError`, so callers
(including the CLI) can distinguish bad input from genuine bugs.
"""

from operator import attrgetter


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


class Record:
    """Base of the engine's value classes.  The fields are the keys of the
    class's own annotations, in order, and a class attribute is a field's
    default.  `__init__` (positional or keyword, then `__post_init__`),
    equality, hashing (not of a record holding a list or dict), `repr` and
    the refusal to assign are set up at class creation, without generating
    code as `dataclasses` does.

    The generic `__init__` pairs fields and values in a dict, which costs
    about twice what a generated one does: a record built per graph or
    per rule spells out its `__init__` instead, with one
    `object.__setattr__` per field, and keeps the rest of the base."""

    def __init_subclass__(cls):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = dict.fromkeys(names)
        cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        cls._key = attrgetter(*names)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        if kwargs or len(args) != len(fields):
            values.update(kwargs)
            # too many, repeated or unknown fields; then missing ones
            misuse = len(values) != len(args) + len(kwargs) or not kwargs.keys() <= fields.keys()
            if len(values) != len(fields):
                values = self._defaults | values
            if misuse or len(values) != len(fields):
                raise TypeError(f"{type(self).__name__} takes the fields "
                                f"{', '.join(fields)}, each once")
        # a fresh dict: filling vars(self) in place would make attribute
        # reads on the record about 3x slower
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def __post_init__(self):
        """Check or normalise the fields; a record without a check inherits this."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__
