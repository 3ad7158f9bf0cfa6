"""Exact arithmetic substrate: rationals, sparse multivariate polynomials,
and rational functions in named symbolic parameters.

Coefficients are integers first: a coefficient is a Python ``int`` while it
is integral and becomes a :class:`fractions.Fraction` only when a division
makes it one, as FLINT's ``fmpz``/``fmpq`` split keeps them.  What callers
read is a Fraction (``eval``, ``coefficient``, ``constant_value``), and no
operation anywhere in the engine produces a floating-point value.  Values
are immutable after construction and safe to share between threads.

A polynomial is evaluated the way FLINT's ``fmpq_poly`` stores one: its
coefficients are put once over one common denominator, the numerators are
summed against the monomials in plain integers, and a single Fraction is
built at the end.  The engine's own integer read of that sum builds no
Fraction at all when the denominator divides it, so a cached form
evaluated at an integer point, such as a family's swept class, stays in
integers throughout.  Every value is still exact.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import lcm

from .errors import MissingVariable, NotPolynomial, OutOfRange, ZeroDenominator

Rational = Fraction

Scalar = "int | Fraction"
PolyLike = "int | Fraction | Poly"

# A monomial is a tuple of (variable, exponent) pairs, sorted by variable
# name, with all exponents > 0.  The empty tuple is the constant monomial.
Monomial = tuple[tuple[str, int], ...]


def ceil_div(a: int, b: int) -> int:
    """Smallest integer >= a/b for b > 0; exact for negative a as well.

    >>> ceil_div(100, 6), ceil_div(-60, 4), ceil_div(0, 5)
    (17, -15, 0)
    """
    if b <= 0:
        raise OutOfRange("ceil_div requires a positive divisor")
    return -((-a) // b)


# CPython's default int/str limit (CVE-2020-10735): the digit bound where
# the interpreter's limit is off (0) or absent (before 3.10.7)
_DEFAULT_MAX_DIGITS = 4300


def max_digits() -> int:
    """The most decimal digits an integer read or printed by the engine may
    have: the interpreter's int/str limit, or 4300 where it is off."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or _DEFAULT_MAX_DIGITS


def int_if_integral(q: Fraction) -> int | Fraction:
    """q as an int when it is integral: a coefficient is a Fraction only
    when a division has made it one."""
    return q.numerator if q.denominator == 1 else q


def _pairs(x: PolyLike) -> Iterable[tuple[Monomial, Scalar]]:
    """The (monomial, coefficient) pairs of a Poly, or of a scalar as a
    constant, with no Poly built for the scalar."""
    return x.terms.items() if isinstance(x, Poly) else (((), x),)


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[str, int] = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in exps.items() if e != 0))


def _monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _monomial_str(m: Monomial) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in m)


class Poly:
    """A multivariate polynomial with exact rational coefficients.

    Terms are stored sparsely as a map from monomials to nonzero
    coefficients, each an int when integral and a Fraction otherwise.
    Addition and multiplication are exact; the string form is canonical
    (terms sorted by total degree, then by variables), e.g. ``7*g + 6``.
    """

    # `compiled` is filled by the first evaluation: the variable names, the
    # common denominator of the coefficients, and each monomial with its
    # integer numerator over that denominator
    __slots__ = ("terms", "compiled")

    def __init__(self, terms: Mapping[Monomial, Scalar]
                 | Iterable[tuple[Monomial, Scalar]] = ()):
        """The sum of the terms, given as a mapping or as (monomial,
        coefficient) pairs in which a monomial may repeat; this is the one
        place where polynomial terms are added up."""
        total: dict[Monomial, int | Fraction] = {}
        pairs = terms.items() if type(terms) is dict or isinstance(terms, Mapping) else terms
        for mono, coeff in pairs:
            # an int or a Fraction is kept as it is: rebuilding each
            # coefficient would dominate the evaluation of a cached form
            c = coeff if type(coeff) is int or type(coeff) is Fraction else Fraction(coeff)
            total[mono] = total[mono] + c if mono in total else c
        self.terms = {m: c if type(c) is int else int_if_integral(c)
                      for m, c in total.items() if c}
        self.compiled = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def var(cls, name: str) -> "Poly":
        return cls({((name, 1),): 1})

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        """The constant `value`: one term, so there is nothing to sum."""
        if type(value) is not int:
            value = int_if_integral(value if type(value) is Fraction else Fraction(value))
        p = object.__new__(cls)
        p.terms = {(): value} if value else {}
        p.compiled = None
        return p

    @staticmethod
    def coerce(x: PolyLike) -> "Poly":
        if isinstance(x, Poly):
            return x
        return Poly.const(x)

    @staticmethod
    def _coercible(x) -> bool:
        return isinstance(x, (Poly, int, Fraction))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise NotPolynomial(f"not a constant polynomial: {self}")
        return self.coefficient(())

    def variables(self) -> set[str]:
        return {name for mono in self.terms for name, _ in mono}

    def total_degree(self) -> int:
        return max((_monomial_degree(m) for m in self.terms), default=0)

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self.terms.get(mono, 0))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: PolyLike) -> "Poly":
        if not Poly._coercible(other):
            return NotImplemented
        return Poly([*self.terms.items(), *_pairs(other)])

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: PolyLike) -> "Poly":
        if not Poly._coercible(other):
            return NotImplemented
        return Poly([*self.terms.items(), *((m, -c) for m, c in _pairs(other))])

    def __rsub__(self, other: PolyLike) -> "Poly":
        if not Poly._coercible(other):
            return NotImplemented
        return Poly([*_pairs(other), *((m, -c) for m, c in self.terms.items())])

    def __mul__(self, other: PolyLike) -> "Poly":
        if not isinstance(other, Poly):
            return self._scaled(other) if Poly._coercible(other) else NotImplemented
        mine, theirs = self.terms, other.terms
        # the right side first: a class term's coefficient times its normal
        # form's unit is then the coefficient itself, constant or not
        if len(theirs) == 1 and () in theirs:
            return self._scaled(theirs[()])
        if len(mine) == 1 and () in mine:
            return other._scaled(mine[()])
        return Poly((_merge_monomials(m1, m2), c1 * c2)
                    for m1, c1 in mine.items() for m2, c2 in theirs.items())

    __rmul__ = __mul__

    def _scaled(self, k: Scalar) -> "Poly":
        """self times the constant k, with no monomial merge; times 1 it is
        self, which is safe to share because a Poly is immutable."""
        if k == 1:
            return self
        return Poly({m: c * k for m, c in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise OutOfRange("negative polynomial power")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = base if result is _ONE else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other: Scalar) -> "Poly":
        c = Fraction(other)
        if not c:
            raise ZeroDenominator("division of a polynomial by zero")
        return Poly({m: coeff / c for m, coeff in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return _leading_ratio_hash(self, _ONE)

    # -- evaluation and substitution ----------------------------------------

    def eval(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value at the assignment; raises MissingVariable if a
        variable of the polynomial is unassigned."""
        return Fraction(*self._summed(assignment))

    def _value(self, assignment: Mapping[str, Scalar]) -> int | Fraction:
        """``int_if_integral(self.eval(assignment))``, with no Fraction built
        when the sum over the common denominator divides exactly."""
        total, den = self._summed(assignment)
        if type(total) is int and total % den == 0:
            return total // den
        return int_if_integral(Fraction(total, den))

    def _summed(self, assignment: Mapping[str, Scalar]) -> tuple[int | Fraction, int]:
        """The value at the assignment as (total, den): the integer
        numerators summed against the monomials, over the common
        denominator den.  The form is compiled on the first call."""
        compiled = self.compiled
        names = sorted(self.variables()) if compiled is None else compiled[0]
        missing = [name for name in names if name not in assignment]
        if missing:
            raise MissingVariable(f"unassigned variables: {missing}")
        if compiled is None:
            den = lcm(*(c.denominator for c in self.terms.values()))
            compiled = (names, den, tuple((c.numerator * (den // c.denominator), mono)
                                          for mono, c in self.terms.items()))
            self.compiled = compiled
        _, den, terms = compiled
        total = 0
        for numerator, mono in terms:
            for name, e in mono:
                x = assignment[name]
                numerator *= (x if type(x) is int else Fraction(x)) ** e
            total += numerator
        return total, den

    def subs(self, mapping: Mapping[str, PolyLike]) -> "Poly":
        """Substitute polynomials (or constants) for variables."""
        result = Poly.const(0)
        for mono, coeff in self.terms.items():
            term = Poly.const(coeff)
            for name, e in mono:
                repl = Poly.coerce(mapping[name]) if name in mapping else Poly.var(name)
                term = term * repl ** e
            result = result + term
        return result

    # -- display -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (-_monomial_degree(kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.sorted_terms():
            if mono == ():
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = _monomial_str(mono)
            else:
                body = f"{abs(coeff)}*{_monomial_str(mono)}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _univariate_coeffs(p: Poly) -> list[Fraction]:
    """Dense coefficient list of p, a polynomial in at most one variable."""
    coeffs = [Fraction(0)] * (p.total_degree() + 1)
    for mono, c in p.terms.items():
        deg = mono[0][1] if mono else 0
        coeffs[deg] = c
    return coeffs


def _univariate_exact_div(num: Poly, den: Poly, name: str) -> Poly | None:
    """num / den when both are univariate in `name` and the division is exact."""
    nc = _univariate_coeffs(num)
    dc = _univariate_coeffs(den)
    if len(nc) < len(dc):
        return None
    quotient = [Fraction(0)] * (len(nc) - len(dc) + 1)
    rem = list(nc)
    lead = dc[-1]
    for k in range(len(quotient) - 1, -1, -1):
        q = Fraction(rem[k + len(dc) - 1]) / lead
        quotient[k] = q
        for j, d in enumerate(dc):
            rem[k + j] -= q * d
    if any(r != 0 for r in rem):
        return None
    terms: dict[Monomial, Fraction] = {}
    for deg, c in enumerate(quotient):
        if c != 0:
            terms[((name, deg),) if deg else ()] = c
    return Poly(terms)


_ONE = Poly.const(1)


def _leading_term(p: Poly) -> tuple[Monomial, Fraction]:
    """The lex-leading term of a nonzero p, the variable latest in name
    order being the most significant."""
    mono = max(p.terms, key=lambda m: m[::-1])
    return mono, p.terms[mono]


def _leading_ratio_hash(num: Poly, den: Poly) -> int:
    """Hash of num/den by the ratio of their leading terms.  Leading terms
    in a monomial order are multiplicative, so every representation of one
    function shares the ratio; a constant hashes like the number it equals
    and zero like 0, so a Poly, a RationalFunction and an int that are
    equal hash alike."""
    if num.is_zero():
        return hash(0)
    num_mono, num_coeff = _leading_term(num)
    den_mono, den_coeff = _leading_term(den)
    shift = _merge_monomials(num_mono, tuple((n, -e) for n, e in den_mono))
    ratio = Fraction(num_coeff) / den_coeff
    return hash((shift, ratio)) if shift else hash(ratio)


class RationalFunction:
    """A quotient of polynomials.  The denominator is never identically zero;
    equality is decided by cross-multiplication, so no factorization or gcd
    machinery is needed."""

    __slots__ = ("num", "den")

    def __init__(self, num: PolyLike, den: PolyLike = 1):
        num = Poly.coerce(num)
        den = Poly.coerce(den)
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        # fold constant denominators into the numerator
        if den.is_constant():
            num = num / den.constant_value()
            den = _ONE
        self.num = num
        self.den = den

    @staticmethod
    def coerce(x: RationalFunction | PolyLike) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        return RationalFunction(Poly.coerce(x))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == _ONE

    def as_poly(self) -> Poly:
        if not self.is_polynomial():
            simplified = self.simplified()
            if not simplified.is_polynomial():
                raise NotPolynomial(f"not a polynomial: {self}")
            return simplified.num
        return self.num

    def __add__(self, other) -> "RationalFunction":
        other = RationalFunction.coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-RationalFunction.coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return RationalFunction.coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = RationalFunction.coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = RationalFunction.coerce(other)
        if other.num.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return RationalFunction.coerce(other) / self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, Poly)):
            other = RationalFunction.coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        return _leading_ratio_hash(self.num, self.den)

    def eval(self, assignment: Mapping[str, Scalar]) -> Fraction:
        d = self.den.eval(assignment)
        if d == 0:
            raise ZeroDenominator("denominator vanishes at the assignment")
        return self.num.eval(assignment) / d

    def simplified(self) -> "RationalFunction":
        """Cancel the denominator when an exact univariate division exists."""
        if self.is_polynomial() or self.num.is_zero():
            return RationalFunction(self.num)
        names = self.num.variables() | self.den.variables()
        if len(names) == 1:
            name = next(iter(names))
            q = _univariate_exact_div(self.num, self.den, name)
            if q is not None:
                return RationalFunction(q)
        return self

    def __str__(self) -> str:
        s = self.simplified()
        if s.is_polynomial():
            return str(s.num)
        return f"({s.num})/({s.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"

