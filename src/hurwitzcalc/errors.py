"""Exception hierarchy for the engine, and the base of its value records.

Every domain failure raises a subclass of :class:`EngineError`, so callers
(including the CLI) can distinguish bad input from genuine bugs.  A failure
that Python would report as a `ValueError` or `ZeroDivisionError` derives
from that type too.
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


class InvalidRank(EngineError, ValueError):
    """A splitting type of rank < 1, or a projective bundle of rank < 2."""


class InvalidGraph(EngineError):
    """A dual graph violates the boundary-divisor conventions."""


class InvalidFamily(EngineError):
    """Directrix-family parameters outside the admissible range."""


class InvalidProfile(EngineError):
    """A ramification profile is not a partition into positive parts."""


class NoTameType(EngineError):
    """No tame splitting type exists with the requested floor."""


class OutOfRange(EngineError, ValueError):
    """Argument outside the documented validity range."""


class ParseError(EngineError, ValueError):
    """A malformed expression or ring spec."""


class NotPolynomial(EngineError, ValueError):
    """A constant was needed and a polynomial given, or a polynomial and a
    quotient given."""


class ZeroDenominator(EngineError, ZeroDivisionError):
    """Division by zero, or a quotient whose denominator vanishes."""


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
    default.  Equality, hashing (not of a record holding a list or dict),
    `repr` and the refusal to assign are shared; each class gets its own
    `__init__`, compiled when the class is created, as
    `collections.namedtuple` compiles `__new__`.  It takes the fields
    positionally or by keyword, so Python binds the arguments and names a
    wrong one, sets each with `object.__setattr__`, and then calls
    `__post_init__` if the class defines one to check or normalise them."""

    def __init_subclass__(cls):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = names
        cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        cls._key = attrgetter(*names)
        params = [f"{name}=_defaults[{name!r}]" if name in cls._defaults else name
                  for name in names]
        body = [f"object.__setattr__(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"_defaults": cls._defaults}
        exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body),
             namespace)
        init = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__module__ = cls.__module__
        cls.__init__ = init

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
