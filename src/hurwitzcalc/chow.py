"""Presentations of the small graded rings the divisor calculus lives in.

Each presentation has degree-one generators, at most one power-rewrite rule
per generator (which makes normal forms unique), and an integration table
on top-degree monomials.  The constructors below cover every ring the
engine needs, and each returns the one presentation its spec names: a spec
such as ``projbundle:3:u + v`` is built once per process, so ring equality
is identity.

* the quadric surface P1 x P1 and the Hirzebruch surfaces F_h,
* projective bundles P(E) over the line with the convention
  integral(zeta^rank) = c1(E),
* the relative Grassmannian G(2,5)-bundle used for degree-five covers,
* projective spaces and their products with a line.

Coefficients are polynomials in named parameters, so all computations stay
exact and symbolic.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import cache

from .errors import (DegreeMismatch, InvalidRank, OutOfRange, ParseError, RingMismatch,
                     ZeroDenominator)
from .symkernel import _ONE, Poly, PolyLike, check_printable, coefficient_bits, max_digits

# Exponent vector over the presentation's generator list.
Mono = tuple[int, ...]

ClassLike = "ChowClass | PolyLike"


class ChowPresentation:
    """A graded ring presentation with power rewrite rules and an
    integration map on top-degree normal forms.  `spec` is its one name.

    ``rewrites`` maps a generator index to ``(power, replacement)`` where the
    replacement is a monomial combination of the same total degree; a
    replacement of ``{}`` kills the power entirely (square-zero classes).
    ``canonical`` holds the canonical class's terms, or None if it has none.

    Normal forms are unique by the rules' shape; nothing is checked at
    construction.  Keyed by generator, the rules have pairwise coprime
    leading monomials gen_i^p_i: where rules i and j both apply, each term
    rule i leaves still has gen_j^p_j, so rewriting those by j gives the sum
    the other order gives, and every critical pair joins (Buchberger's first
    criterion).  Newman's lemma then needs termination, which every
    constructor below has: the one rule that does not kill (tau^2 on F_h,
    z^rank on P(E)) lowers its own exponent and raises only the square-zero
    f.  A looping presentation would hit RecursionError at first use.
    """

    def __init__(self, spec: str, generators: Iterable[str],
                 rewrites: Mapping[int, tuple[int, Mapping[Mono, PolyLike]]],
                 top_degree: int | None,
                 integration: Mapping[Mono, PolyLike],
                 canonical: Mapping[Mono, PolyLike] | None = None):
        self.spec = spec
        self.generators = tuple(generators)
        self.rewrites = {
            i: (p, {m: Poly.coerce(c) for m, c in repl.items()})
            for i, (p, repl) in rewrites.items()
        }
        self.top_degree = top_degree
        self.integration = {m: Poly.coerce(c) for m, c in integration.items()}
        self.canonical = canonical
        self._nf_cache: dict[Mono, dict[Mono, Poly]] = {}

    # -- normal forms --------------------------------------------------------

    def _rewrite_once(self, mono: Mono, gen_index: int) -> dict[Mono, Poly]:
        """The terms `mono` becomes under one rule, not yet summed: shifting
        by the rest of `mono` keeps the replacement's monomials distinct."""
        power, replacement = self.rewrites[gen_index]
        rest = list(mono)
        rest[gen_index] -= power
        return {tuple(r + m for r, m in zip(rest, repl_mono)): coeff
                for repl_mono, coeff in replacement.items()}

    def _accumulate(self, terms: Iterable[tuple[Mono, Poly]]) -> dict[Mono, Poly]:
        """Sum coeff * normal_form(mono) over the terms, dropping zeros; the
        one place where class terms are added up."""
        result: dict[Mono, Poly] = {}
        for mono, coeff in terms:
            if not coeff.terms:
                continue
            for m, c in self.normal_form(mono).items():
                term = coeff * c
                result[m] = result[m] + term if m in result else term
        return {m: c for m, c in result.items() if c.terms}

    def normal_form(self, mono: Mono) -> dict[Mono, Poly]:
        """Fully reduce a monomial to a combination of normal-form monomials."""
        result = self._nf_cache.get(mono)
        if result is not None:
            return result
        for i, (power, _) in self.rewrites.items():
            if mono[i] >= power:
                result = self._accumulate(self._rewrite_once(mono, i).items())
                self._nf_cache[mono] = result
                return result
        self._nf_cache[mono] = {mono: _ONE}
        return self._nf_cache[mono]

    # -- class construction --------------------------------------------------

    def zero(self) -> "ChowClass":
        return ChowClass(self, ())

    def one(self) -> "ChowClass":
        return ChowClass(self, [((0,) * len(self.generators), _ONE)])

    def gen(self, name: str) -> "ChowClass":
        i = self.generators.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return ChowClass(self, [(mono, _ONE)])

    def cls(self, terms: Mapping[Mono, PolyLike] | Iterable[tuple[Mono, PolyLike]]
            ) -> "ChowClass":
        return ChowClass(self, terms)

    def mono_str(self, mono: Mono) -> str:
        parts = [g if e == 1 else f"{g}^{e}"
                 for g, e in zip(self.generators, mono) if e > 0]
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"ChowPresentation({self.spec})"


class ChowClass:
    """An element of a :class:`ChowPresentation`: a map from normal-form
    monomials to polynomial coefficients.  The zero class has no terms."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ChowPresentation,
                 terms: Mapping[Mono, PolyLike] | Iterable[tuple[Mono, PolyLike]]):
        """The class of the terms, given as a mapping or as (monomial,
        coefficient) pairs in which a monomial may repeat."""
        self.ring = ring
        pairs = terms.items() if type(terms) is dict or isinstance(terms, Mapping) else terms
        self.terms = ring._accumulate(
            (mono, coeff if isinstance(coeff, Poly) else Poly.const(coeff))
            for mono, coeff in pairs)

    def _require_same_ring(self, other: "ChowClass") -> None:
        if self.ring is not other.ring:
            raise RingMismatch(f"{self.ring.spec} vs {other.ring.spec}")

    @staticmethod
    def _coerce(ring: ChowPresentation, x: ClassLike) -> "ChowClass":
        if isinstance(x, ChowClass):
            return x
        return ChowClass(ring, [((0,) * len(ring.generators), x)])

    def __add__(self, other: ClassLike) -> "ChowClass":
        other = ChowClass._coerce(self.ring, other)
        self._require_same_ring(other)
        return ChowClass(self.ring, [*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __neg__(self) -> "ChowClass":
        return ChowClass(self.ring, [(m, -c) for m, c in self.terms.items()])

    def __sub__(self, other: ClassLike) -> "ChowClass":
        return self + (-ChowClass._coerce(self.ring, other))

    def __rsub__(self, other: ClassLike) -> "ChowClass":
        return ChowClass._coerce(self.ring, other) + (-self)

    def __mul__(self, other: ClassLike) -> "ChowClass":
        other = ChowClass._coerce(self.ring, other)
        self._require_same_ring(other)
        return ChowClass(self.ring, ((tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
                                     for m1, c1 in self.terms.items()
                                     for m2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ChowClass":
        if n < 0:
            raise OutOfRange("negative class power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.ring.one() if result is None else result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset((m, c) for m, c in self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {sum(m) for m in self.terms}

    def integrate(self) -> Poly:
        """Exact symbolic integral of a pure top-degree class."""
        top = self.ring.top_degree
        if top is None:
            raise DegreeMismatch(f"{self.ring.spec} has no integration map")
        if self.is_zero():
            return Poly.const(0)
        if self.degrees() != {top}:
            raise DegreeMismatch(
                f"integration needs pure degree {top}, got degrees {sorted(self.degrees())}")
        pairs = []
        for mono, coeff in self.terms.items():
            weight = self.ring.integration.get(mono)
            if weight is None:
                raise DegreeMismatch(
                    f"no integration entry for {self.ring.mono_str(mono)}")
            pairs.extend((coeff * weight).terms.items())
        return Poly(pairs)

    def coefficient(self, mono: Mono) -> Poly:
        return self.terms.get(mono, Poly.const(0))

    def evaluated(self, point: Mapping[str, int | Fraction]) -> "ChowClass":
        """The class with each coefficient evaluated at the point.  Each
        monomial is already in normal form and stays so, so nothing is
        summed or re-normalized: only a coefficient that vanishes drops."""
        result = object.__new__(ChowClass)
        result.ring = self.ring
        result.terms = {mono: Poly.const(value) for mono, coeff in self.terms.items()
                        if (value := coeff._value(point))}
        return result

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m)):
            coeff = self.terms[mono]
            mono_s = self.ring.mono_str(mono)
            if mono_s == "1":
                parts.append(f"({coeff})")
            else:
                parts.append(f"({coeff})*{mono_s}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ChowClass[{self.ring.spec}]({self})"

    def to_json(self) -> dict:
        return {
            "ring": self.ring.spec,
            "terms": [{"monomial": self.ring.mono_str(m), "coeff": str(c)}
                      for m, c in sorted(self.terms.items())],
        }


# ---------------------------------------------------------------------------
# Ring constructors
# ---------------------------------------------------------------------------

# The one presentation of each spec built in this process.
_RINGS: dict[str, ChowPresentation] = {}


def _interned(spec: str, presentation: Callable[[], dict]) -> ChowPresentation:
    """The presentation named by `spec`, built on the first request only:
    `presentation` returns its tables, so a later request builds none."""
    ring = _RINGS.get(spec)
    if ring is None:
        ring = _RINGS[spec] = ChowPresentation(spec, **presentation())
    return ring


def ring_p1xp1() -> ChowPresentation:
    """P1 x P1 with ruling classes Rs, Rt: Rs^2 = Rt^2 = 0, integral(Rs*Rt) = 1."""
    return _interned("p1xp1", lambda: dict(
        generators=("Rs", "Rt"),
        rewrites={0: (2, {}), 1: (2, {})},
        top_degree=2,
        integration={(1, 1): 1},
        canonical={(1, 0): -2, (0, 1): -2},
    ))


def ring_hirzebruch(h: PolyLike | str = "h") -> ChowPresentation:
    """Hirzebruch surface F_h with section class tau (tau^2 = h) and fiber f."""
    hp = Poly.var(h) if isinstance(h, str) else Poly.coerce(h)
    return _interned(f"hirzebruch:{hp}", lambda: dict(
        generators=("tau", "f"),
        rewrites={0: (2, {(1, 1): hp}), 1: (2, {})},
        top_degree=2,
        integration={(1, 1): 1},
        canonical={(1, 0): -2, (0, 1): hp - 2},
    ))


def ring_proj_bundle_over_p1(rank: int, c1: PolyLike | str = "c1E") -> ChowPresentation:
    """P(E) -> P1 for a rank-`rank` bundle E on the line, with hyperplane
    class z and fiber class f.

    Normalization: integral(z^(rank-1) * f) = 1 and z^rank rewrites to
    c1(E) * z^(rank-1) * f, so integral(z^rank) = c1(E).  (The opposite
    Segre-style convention would flip the sign of every odd power; this one
    makes integral(z^3) = u+v on the rank-three bundle O(u)+O(v)+O(w).)
    """
    if rank < 2:
        raise InvalidRank(f"projective bundle needs rank >= 2, got {rank}")
    c1p = Poly.var(c1) if isinstance(c1, str) else Poly.coerce(c1)
    zeta_rule_target = (rank - 1, 1)
    return _interned(f"projbundle:{rank}:{c1p}", lambda: dict(
        generators=("z", "f"),
        rewrites={0: (rank, {zeta_rule_target: c1p}), 1: (2, {})},
        top_degree=rank,
        integration={(rank - 1, 1): 1},
        canonical={(1, 0): -rank, (0, 1): c1p - 2},
    ))


G14_PLUCKER_DEGREE = 5      # integral(z^6 f) on the G(2,5)-bundle: deg G(1,4) in Plucker space


def ring_grassmann_bundle_g25(deg_f_dual: PolyLike | str = "c1Fdual") -> ChowPresentation:
    """The relative Grassmannian of lines in the fibers of a rank-five
    bundle on the line; seven-dimensional total space.

    Only the two integration facts the engine needs are stored:
    integral(z^6 * f) = G14_PLUCKER_DEGREE = 5 and integral(z^7) =
    14 * deg_f_dual, the 14 derived from the first by
    :func:`grassmann_top_constant_from_twist`.
    """
    dp = Poly.var(deg_f_dual) if isinstance(deg_f_dual, str) else Poly.coerce(deg_f_dual)

    def presentation() -> dict:
        a, b = grassmann_top_constant_from_twist()
        return dict(
            generators=("z", "f"),
            rewrites={1: (2, {})},
            top_degree=7,
            integration={(6, 1): G14_PLUCKER_DEGREE, (7, 0): a * dp + b},
            # K = -c1(T_rel) - 2f, with the relative tangent bundle Hom(S, Q):
            # c1(Q) = z and c1(S-dual) = z - c1(F-dual) f, so
            # c1(T_rel) = 2 c1(S-dual) + 3 c1(Q) = 5z - 2 c1(F-dual) f
            canonical={(1, 0): -5, (0, 1): 2 * dp - 2},
        )
    return _interned(f"grassmann25:{dp}", presentation)


# Memoized: a directrix family reads these two rings on every call.  The
# other constructors look their spec up in _RINGS each time, so that a ring
# dropped from it is built again.
@cache
def ring_proj_space(n: int) -> ChowPresentation:
    """P^n with hyperplane class H."""
    return _interned(f"projspace:{n}", lambda: dict(
        generators=("H",),
        rewrites={0: (n + 1, {})},
        top_degree=n,
        integration={(n,): 1},
    ))


@cache
def ring_product_with_p1(base: ChowPresentation) -> ChowPresentation:
    """base x P1 for a projective-space base: adds a square-zero class F and
    extends integration by integral(H^n * F) = 1."""
    n = base.top_degree
    if base is not _RINGS.get(f"projspace:{n}"):
        raise RingMismatch("product construction expects a projective-space base")
    return _interned(f"projspace_x_p1:{n}", lambda: dict(
        generators=("H", "F"),
        rewrites={0: (n + 1, {}), 1: (2, {})},
        top_degree=n + 1,
        integration={(n, 1): 1},
    ))


def expansion_ring(square_zero: Iterable[str], free: Iterable[str]) -> ChowPresentation:
    """A ring for raw class expansion: the listed square-zero generators plus
    unconstrained ones; no top degree, no integration.  Used for pipelines
    that expand a product and read off coefficients afterwards."""
    sq = tuple(square_zero)
    fr = tuple(free)
    return _interned(f"expansion:{','.join(fr)}|{','.join(sq)}", lambda: dict(
        generators=fr + sq,
        rewrites={len(fr) + i: (2, {}) for i in range(len(sq))},
        top_degree=None,
        integration={},
    ))


def _spec_rank(text: str) -> int:
    """The bundle rank or space dimension a ring spec names, checked
    against MAX_RANK before any presentation is built."""
    try:
        n = int(text)
    except ValueError:
        raise ParseError(f"ring rank {text!r} is not an integer") from None
    if not 0 <= n <= MAX_RANK:
        raise OutOfRange(f"ring rank {n} outside 0..MAX_RANK = {MAX_RANK}")
    return n


def ring_from_spec(spec: str) -> ChowPresentation:
    """Rebuild a presentation from its serialized spec string."""
    head, _, rest = spec.partition(":")
    if head == "p1xp1":
        return ring_p1xp1()
    if head == "hirzebruch":
        return ring_hirzebruch(parse_poly(rest or "h"))
    if head == "projbundle":
        rank_s, _, c1_s = rest.partition(":")
        return ring_proj_bundle_over_p1(_spec_rank(rank_s), parse_poly(c1_s or "c1E"))
    if head == "grassmann25":
        return ring_grassmann_bundle_g25(parse_poly(rest or "c1Fdual"))
    if head == "projspace":
        return ring_proj_space(_spec_rank(rest))
    if head == "projspace_x_p1":
        return ring_product_with_p1(ring_proj_space(_spec_rank(rest)))
    raise ParseError(f"unknown ring spec: {spec}")


# ---------------------------------------------------------------------------
# Derived geometry on the standard rings
# ---------------------------------------------------------------------------

def canonical_class(ring: ChowPresentation) -> ChowClass:
    """The canonical class its constructor gives a presentation: -2Rs - 2Rt
    on P1 x P1, -2tau + (h-2)f on F_h (adjunction fixes it against
    tau^2 = h), -r z + (c1(E) - 2) f on P(E) over P1 of rank r, and
    -5z + (2 c1(F-dual) - 2) f on the G(2,5)-bundle."""
    if ring.canonical is None:
        raise RingMismatch(f"no canonical class wired for {ring.spec}")
    return ring.cls(ring.canonical)


def grassmann_top_constant_from_twist() -> tuple[Fraction, Fraction]:
    """Derive the coefficient in integral(z^7) = a * c1(F-dual) + b.

    Twisting the rank-five bundle by O(l) shifts z by 2l f and c1(F-dual) by
    5l.  Because z^7 - (z + 2l f)^7 is linear in l with slope
    7 * 2 * integral(z^6 f) = 70, matching coefficients gives 5a = 70.  On a
    product bundle (c1(F-dual) = 0) the class z is pulled back from a
    six-dimensional Grassmannian, so z^7 = 0 and the constant term vanishes.
    """
    slope_in_l = 7 * 2 * Fraction(G14_PLUCKER_DEGREE)   # (z + 2l f)^7 with f^2 = 0
    a = slope_in_l / 5                # twist moves c1(F-dual) by 5l
    b = Fraction(0)                   # grounded on the product instance
    return a, b


def grr_degree_on_p1xp1(c1_a: ChowClass, c2_a: PolyLike) -> Poly:
    """Degree of the pushforward to the second line of a bundle on P1 x P1
    with the given Chern data and no higher cohomology on fibers:

        deg = c1 . Rs + c1^2 / 2 - c2.
    """
    if c1_a.ring is not ring_p1xp1():
        raise RingMismatch("Chern data must live on the P1 x P1 presentation")
    rs = c1_a.ring.gen("Rs")
    first = (c1_a * rs).integrate()
    second = (c1_a * c1_a).integrate() / 2
    return first + second - Poly.coerce(c2_a)


# ---------------------------------------------------------------------------
# Surfaces: exact intersection pairing, canonical class, c2 of the cotangent
# ---------------------------------------------------------------------------

class Surface:
    """A smooth surface with an exact intersection pairing.

    Either the presentation itself is two-dimensional (``fundamental`` is
    None) or the surface is cut out inside a three-dimensional presentation
    by ``fundamental``, in which case the pairing multiplies against it.
    """

    def __init__(self, name: str, ring: ChowPresentation, K: ChowClass,
                 c2_omega: Poly, fundamental: ChowClass | None = None):
        self.name = name
        self.ring = ring
        self.K = K
        self.c2_omega = c2_omega
        self.fundamental = fundamental

    def dot(self, x: ChowClass, y: ChowClass) -> Poly:
        if x.ring is not self.ring or y.ring is not self.ring:
            raise RingMismatch(f"classes must live on {self.ring.spec}")
        product = x * y
        if self.fundamental is not None:
            product = product * self.fundamental
        return product.integrate()

    def adjunction_genus(self, c: ChowClass) -> Poly:
        """1 + (C^2 + C.K)/2 for a curve class C."""
        return _ONE + (self.dot(c, c) + self.dot(c, self.K)) / 2


def surface_p1xp1() -> Surface:
    ring = ring_p1xp1()
    return Surface("P1xP1", ring, canonical_class(ring), Poly.const(4))


def surface_hirzebruch(h: PolyLike | str = "h") -> Surface:
    ring = ring_hirzebruch(h)
    return Surface("Hirzebruch", ring, canonical_class(ring), Poly.const(4))


# ---------------------------------------------------------------------------
# A small expression parser (used by the CLI and by ring deserialization)
# ---------------------------------------------------------------------------

def _tokenize(s: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(s):
        c = s[i]
        if c.isspace():
            i += 1
        elif c.isalpha() or c == "_":
            j = i
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            tokens.append(s[i:j])
            i = j
        elif c.isdecimal():
            # isdecimal, not isdigit: exactly the characters int() reads
            j = i
            while j < len(s) and s[j].isdecimal():
                j += 1
            tokens.append(s[i:j])
            i = j
        elif s.startswith("**", i):
            tokens.append("^")
            i += 2
        elif c in "+-*/^()":
            tokens.append(c)
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r} in expression")
    return tokens


# the largest exponent a parsed expression may use; a power is built by
# repeated multiplication, so a larger one is a domain error, not a hang
MAX_EXPONENT = 100

# the most term operations one parsed expression may cost: a product charges
# the product of its operands' term counts, a sum their total.  Exponents in
# range still compound ((a+b+c+d)^100 would run for minutes), so a costlier
# expression is a domain error; at this limit a parse takes seconds at most
MAX_TERM_WORK = 20_000

# the largest bundle rank or space dimension a parsed ring spec may name.
# Building a presentation costs the same at any rank; the bound matches
# MAX_EXPONENT, so one parsed power reaches the top degree of every ring a
# spec may name, and a larger rank, far past the rings the engine uses, is a
# domain error before any presentation is built
MAX_RANK = 100


def _size(x) -> int:
    """Number of coefficient terms of a parsed Poly or ChowClass."""
    if isinstance(x, ChowClass):
        return sum(len(c.terms) for c in x.terms.values())
    return len(x.terms)


def _bits(x) -> tuple[int, int]:
    """Largest bit lengths of a numerator and of a denominator among the
    coefficients of a parsed Poly or ChowClass."""
    polys = x.terms.values() if isinstance(x, ChowClass) else (x,)
    pairs = [coefficient_bits(p) for p in polys] or [(0, 0)]
    return max(num for num, _ in pairs), max(den for _, den in pairs)


class _Parser:
    def __init__(self, tokens: list[str], atom):
        self.tokens = tokens
        self.pos = 0
        self.atom = atom
        self.work = 0

    def charge(self, cost: int) -> None:
        self.work += cost
        if self.work > MAX_TERM_WORK:
            raise OutOfRange(f"expression costs more than MAX_TERM_WORK = {MAX_TERM_WORK}")

    def product(self, value, rhs):
        """value * rhs, charged by its term work.  It is refused before it
        is built when its operands' largest numerator or denominator bit
        lengths sum past the int/str limit's digits: the product of two such
        coefficients could not be printed."""
        self.charge(_size(value) * _size(rhs))
        check_printable(max(_bits(value)) + max(_bits(rhs)), "expression coefficients")
        return value * rhs

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self):
        try:
            value = self.expr()
        except RecursionError:
            raise OutOfRange("expression nested too deeply") from None
        if self.peek() is not None:
            raise ParseError(f"trailing token {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            self.charge(_size(value) + _size(rhs))
            # a/b + c/d = (ad + cb)/bd, with one bit more for the carry
            (num, den), (rhs_num, rhs_den) = _bits(value), _bits(rhs)
            check_printable(max(num + rhs_den + 1, rhs_num + den + 1, den + rhs_den),
                            "expression coefficients")
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.unary()
            value = self.product(value, rhs if op == "*" else _invert_constant(rhs))
        return value

    def unary(self):
        """unary := '-' unary | power, so -x^2 is -(x^2) and 2*-x is -2*x."""
        if self.peek() == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        base = self.factor()
        if self.peek() == "^":
            self.take()
            exp_tok = self.take()
            if not exp_tok.isdecimal():
                raise ParseError("exponent must be a nonnegative integer")
            digits = exp_tok.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise OutOfRange(f"exponent above MAX_EXPONENT = {MAX_EXPONENT}")
            value = self.atom(1)
            for _ in range(int(digits)):
                value = self.product(value, base)
            return value
        return base

    def factor(self):
        tok = self.take()
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return value
        if tok.isdecimal():
            limit = max_digits()
            if len(tok) > limit:
                raise OutOfRange(f"integer literal longer than the interpreter's "
                                 f"int/str limit of {limit} digits")
            return self.atom(int(tok))
        if not (tok[0].isalpha() or tok[0] == "_"):
            raise ParseError(f"expected an operand, got {tok!r}")
        return self.atom(tok)


def _invert_constant(x):
    if isinstance(x, ChowClass):
        unit = (0,) * len(x.ring.generators)
        if set(x.terms) <= {unit}:
            return ChowClass._coerce(x.ring, _invert_constant(x.coefficient(unit)))
    elif x.is_constant():
        if x.is_zero():
            raise ZeroDenominator("division by zero")
        return Poly.const(1 / x.constant_value())
    raise ParseError("division is only supported by constants")


def parse_poly(s: str) -> Poly:
    """Parse a polynomial expression such as "2*g + 8" or "-3*(gR+4)"."""
    def atom(tok):
        if isinstance(tok, int):
            return Poly.const(tok)
        return Poly.var(tok)
    return _Parser(_tokenize(s), atom).parse()


def parse_class(ring: ChowPresentation, s: str) -> ChowClass:
    """Parse a class expression in the given ring; names that are not
    generators are treated as symbolic parameters."""
    def atom(tok):
        if isinstance(tok, int):
            return ChowClass._coerce(ring, tok)
        if tok in ring.generators:
            return ring.gen(tok)
        return ChowClass._coerce(ring, Poly.var(tok))
    return _Parser(_tokenize(s), atom).parse()
