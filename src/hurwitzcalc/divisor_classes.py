"""Divisor-class arithmetic in the basis (lambda, delta, D).

The two unbalancedness divisors, the Maroni class M (jumping of the
splitting type of E) and the quadric class CE (jumping of F), are exact
rational-function combinations of lambda, delta, and the (2,2)-ramification
class D.  Eliminating D from the pair produces the class X = a*lambda -
b*delta whose ratio a/b is the sharp slope bound:

    d = 3:  a/b = (7g + 6)/g          (X is a multiple of M alone)
    d = 4:  a/b = (13g + 15)/(2g)
    d = 5:  a/b = (31g + 44)/(5g)

The change of basis between the Chern data (ch2E, ch2F, c1^2E) of a
family's two structural bundles and (lambda, delta, D) lives here in both
directions: `invariants_from_chern` gives lambda, kappa, delta and the two
ramification divisors T (triple point) and D ((2,2)-pair) exactly, and
`chern_from_basis` inverts it.  Both M and CE are also rederivable from
first principles: they are the Bogomolov expressions of the universal
bundles, pushed through that inverse.  The module exposes that route as
well so the closed formulas can be cross-checked.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .bundles import divisorial_conditions
from .errors import (CongruenceViolation, DegenerateDenominator, NotDivisorial, OutOfRange,
                     Record, require)
from .symkernel import Poly, PolyLike, RationalFunction, check_printable, coefficient_bits


class DivisorClass(Record):
    """Coefficients over the basis (lambda, delta, D).  Coefficients are
    rational functions of g."""

    lambda_coef: RationalFunction
    delta_coef: RationalFunction
    d_coef: RationalFunction

    def __post_init__(self):
        object.__setattr__(self, "lambda_coef", RationalFunction.coerce(self.lambda_coef))
        object.__setattr__(self, "delta_coef", RationalFunction.coerce(self.delta_coef))
        object.__setattr__(self, "d_coef", RationalFunction.coerce(self.d_coef))

    def scale(self, factor) -> "DivisorClass":
        f = RationalFunction.coerce(factor)
        return DivisorClass(self.lambda_coef * f, self.delta_coef * f, self.d_coef * f)

    def plus(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.lambda_coef + other.lambda_coef,
                            self.delta_coef + other.delta_coef,
                            self.d_coef + other.d_coef)

    def eval_at(self, g: int) -> dict[str, Fraction]:
        try:
            return {"lambda": self.lambda_coef.eval({"g": g}),
                    "delta": self.delta_coef.eval({"g": g}),
                    "D": self.d_coef.eval({"g": g})}
        except ZeroDivisionError as exc:
            raise DegenerateDenominator(f"coefficients degenerate at g = {g}") from exc

    def to_json(self) -> dict:
        # "boundary" stays, always empty, so that the JSON a class has
        # printed so far keeps its bytes
        return {"lambda": str(self.lambda_coef), "delta": str(self.delta_coef),
                "D": str(self.d_coef), "boundary": {}}


def _b_poly(d: int) -> Poly:
    return 2 * Poly.var("g") + 2 * d - 2


@cache
def maroni_class(d: int) -> DivisorClass:
    """The Maroni divisor class for degree d in the (lambda, delta, D)
    basis, with b = 2g + 2d - 2:

        M = [((10-d)/(d-1)) b - 8]/(b-10) * lambda
            - [b/(d-1) - 2]/(b-10) * delta
            + [b/(d-1) - 2]/(4(b-10)) * D

    The formulas degenerate at b = 10 (g + d = 6); no admissible genus in
    the slope theorems hits that value.  At d = 3 the class D is vacuous
    (there is no bundle of quadrics) but the formal coefficient is still
    reported.
    """
    if d < 3:
        raise NotDivisorial("need d >= 3")
    b = _b_poly(d)
    lam = RationalFunction(Fraction(10 - d, d - 1) * b - 8, b - 10)
    delta = RationalFunction(-(b / (d - 1) - 2), b - 10)
    dd = RationalFunction(b / (d - 1) - 2, 4 * (b - 10))
    return DivisorClass(lam, delta, dd)


@cache
def ce_class(d: int) -> DivisorClass:
    """The unbalanced-quadrics divisor class for degree d >= 4:

        CE = [(21 - d - 54/d) b - 8d + 24]/(b-10) * lambda
             - [(2 - 6/d) b - 2d + 6]/(b-10) * delta
             + [(1 - 6/d) b - 2d + 16]/(4(b-10)) * D
    """
    if d < 4:
        raise NotDivisorial("the bundle of quadrics needs d >= 4")
    b = _b_poly(d)
    lam = RationalFunction((21 - d - Fraction(54, d)) * b - 8 * d + 24, b - 10)
    delta = RationalFunction(-((2 - Fraction(6, d)) * b - 2 * d + 6), b - 10)
    dd = RationalFunction((1 - Fraction(6, d)) * b - 2 * d + 16, 4 * (b - 10))
    return DivisorClass(lam, delta, dd)


def bogomolov(rank: int, c1: PolyLike, c2: PolyLike) -> Poly:
    """The combination c2 - ((r-1)/2r) c1^2, invariant under tensoring by
    line bundles; it detects jumping of the splitting type on the fibers of
    a one-parameter family."""
    if rank < 1:
        raise NotDivisorial("rank must be positive")
    c1 = Poly.coerce(c1)
    c2 = Poly.coerce(c2)
    return c2 - Fraction(rank - 1, 2 * rank) * c1 * c1


def bogomolov_from_ch2(rank: int, ch2: RationalFunction | PolyLike,
                       c1sq: RationalFunction | PolyLike) -> Poly | RationalFunction:
    """The Bogomolov expression in (ch2, c1^2) coordinates: substituting
    c2 = c1^2/2 - ch2 gives c1^2/(2r) - ch2.  A RationalFunction operand
    gives a RationalFunction; otherwise the result is a Poly."""
    if not isinstance(ch2, RationalFunction) and not isinstance(c1sq, RationalFunction):
        ch2, c1sq = Poly.coerce(ch2), Poly.coerce(c1sq)
    return c1sq / (2 * rank) - ch2


# ---------------------------------------------------------------------------
# The change of basis (ch2E, ch2F, c1^2E) <-> (lambda, delta, D)
# ---------------------------------------------------------------------------

class ChernData(Record):
    """Chern data of the structural bundles of a one-parameter family.

    `d` and `g` may be symbols, so the identities among the derived
    invariants can be certified as polynomial identities.  A numeric d is
    at least 3, since the bundle of quadrics has rank d(d-3)/2, and a
    numeric g is at least 0.  At d = 3 that bundle has rank zero, so ch2F
    must vanish.
    """

    d: PolyLike
    g: PolyLike
    ch2e: PolyLike
    ch2f: PolyLike
    c1sq: PolyLike

    def __post_init__(self):
        for name in ("d", "g", "ch2e", "ch2f", "c1sq"):
            object.__setattr__(self, name, Poly.coerce(getattr(self, name)))
        if self.d.is_constant() and self.d.constant_value() < 3:
            raise OutOfRange(f"need a degree d >= 3, got d = {self.d}")
        if self.g.is_constant() and self.g.constant_value() < 0:
            raise OutOfRange(f"need a genus g >= 0, got g = {self.g}")
        if self.d == Poly.const(3) and not self.ch2f.is_zero():
            raise OutOfRange("degree-three covers have no bundle of quadrics")

    @property
    def b(self) -> Poly:
        """Number of branch points, 2g + 2d - 2."""
        return 2 * self.g + 2 * self.d - 2


class FamilyInvariants(Record):
    """The five divisor-theoretic invariants of a family, plus the
    self-intersection of the ramification divisor."""

    lam: RationalFunction
    kappa: RationalFunction
    delta: RationalFunction
    t_div: RationalFunction
    d_div: RationalFunction
    r_squared: RationalFunction

    def as_dict(self) -> dict[str, RationalFunction]:
        return {"lambda": self.lam, "kappa": self.kappa, "delta": self.delta,
                "T": self.t_div, "D": self.d_div, "R^2": self.r_squared}


def invariants_from_chern(c: ChernData) -> FamilyInvariants:
    """Exact invariants of the family:

        lambda = ch2(E) - c1^2(E)/b
        kappa  = d ch2(E) - ch2(F) + (1/2 - 8/b) c1^2(E)
        delta  = (12-d) ch2(E) + ch2(F) - (1/2 + 4/b) c1^2(E)
        T      = (3d-12) ch2(E) - 3 ch2(F) + (3/2) c1^2(E)
        D      = 4 ch2(F) - (4d-12) ch2(E)
        R^2    = d ch2(E) - ch2(F) + c1^2(E)/2

    delta is pinned against lambda and kappa by 12 lambda = kappa + delta,
    and all five satisfy 24(b-1) lambda - 3(b-2) delta + 6D - (b-10) T = 0
    identically.  Refused when a coefficient could not be printed.
    """
    d, g = c.d, c.g
    e2 = RationalFunction(c.ch2e)
    f2 = RationalFunction(c.ch2f)
    s = RationalFunction(c.c1sq)
    b = RationalFunction(c.b)

    lam = e2 - s / b
    kappa = d * e2 - f2 + (Fraction(1, 2) - 8 / b) * s
    delta = (12 - d) * e2 + f2 - (Fraction(1, 2) + 4 / b) * s
    t_div = (3 * d - 12) * e2 - 3 * f2 + Fraction(3, 2) * s
    d_div = 4 * f2 - (4 * d - 12) * e2
    r_squared = d * e2 - f2 + s / 2
    invariants = FamilyInvariants(lam, kappa, delta, t_div, d_div, r_squared)
    check_printable(max(max(coefficient_bits(p)) for value in invariants.as_dict().values()
                        for p in (value.num, value.den)), "family invariants")
    return invariants


def chern_from_basis(d: int, lam: RationalFunction, delta: RationalFunction,
                     d_div: RationalFunction) -> tuple[RationalFunction, ...]:
    """Invert the (lambda, delta, D) <- (ch2E, ch2F, c1^2E) change of basis
    at fixed degree d.  Degenerates at b = 10, i.e. g + d = 6."""
    b = _b_poly(d)
    s = (9 * lam + d_div / 4 - delta) * RationalFunction(2 * b, b - 10)
    e2 = lam + s / RationalFunction(b)
    f2 = d_div / 4 + (d - 3) * e2
    return e2, f2, s


def _class_from_chern_functional(d: int,
                                 functional: Callable[[RationalFunction,
                                                       RationalFunction,
                                                       RationalFunction],
                                                      RationalFunction]) -> DivisorClass:
    """Express a linear functional of (ch2E, ch2F, c1^2E) in the
    (lambda, delta, D) basis by feeding it the inverted basis vectors."""
    def on_basis(lam, delta, dd):
        e2, f2, s = chern_from_basis(
            d, RationalFunction.coerce(lam), RationalFunction.coerce(delta),
            RationalFunction.coerce(dd))
        return functional(e2, f2, s)

    require(on_basis(0, 0, 0).is_zero(), "the Chern functional vanishes at the origin")
    return DivisorClass(on_basis(1, 0, 0), on_basis(0, 1, 0), on_basis(0, 0, 1))


def maroni_class_from_bogomolov(d: int) -> DivisorClass:
    """Rederive M as the Bogomolov expression of the universal rank-(d-1)
    bundle, pushed through the basis inversion.  Agrees with
    :func:`maroni_class` identically."""
    def functional(e2, f2, s):
        return bogomolov_from_ch2(d - 1, e2, s)
    return _class_from_chern_functional(d, functional)


def ce_class_from_bogomolov(d: int) -> DivisorClass:
    """Rederive CE as the Bogomolov expression of the universal bundle of
    quadrics: rank d(d-3)/2, c1(F) = (d-3) c1(E), so the expression is
    (d-3) c1^2(E)/d - ch2(F)."""
    if d < 4:
        raise NotDivisorial("the bundle of quadrics needs d >= 4")
    rank_f = d * (d - 3) // 2
    def functional(e2, f2, s):
        return bogomolov_from_ch2(rank_f, f2, (d - 3) ** 2 * s)
    return _class_from_chern_functional(d, functional)


# ---------------------------------------------------------------------------
# The class X and the slope bound
# ---------------------------------------------------------------------------

_TARGET_A = {3: lambda g: 7 * g + 6,
             4: lambda g: 13 * g + 15,
             5: lambda g: Fraction(31, 10) * g + Fraction(44, 10)}
_TARGET_B = {3: lambda g: g,
             4: lambda g: 2 * g,
             5: lambda g: g / 2}


@cache
def class_x(d: int) -> Mapping:
    """The effective combination of M and CE killing the D-coefficient,
    normalized per degree so that (a, b) take the standard values
    (7g+6, g), (13g+15, 2g), ((31g+44)/10, g/2).

    Returns the class X = a*lambda - b*delta together with a, b (those
    polynomials) and the weights of M and CE in the combination, as a
    read-only mapping derived once per degree.  At d = 3 there is no CE and
    X is the (rescaled) Maroni class itself.
    """
    if d not in (3, 4, 5):
        raise NotDivisorial("the class X is defined for d in {3, 4, 5}")
    g = Poly.var("g")
    m = maroni_class(d)
    target_a = RationalFunction(_TARGET_A[d](g))
    target_b = RationalFunction(_TARGET_B[d](g))

    if d == 3:
        weight_m = target_a / m.lambda_coef
        weight_ce = RationalFunction(0)
        x = m.scale(weight_m)
        x = DivisorClass(x.lambda_coef, x.delta_coef, RationalFunction(0))
    else:
        ce = ce_class(d)
        # unique up-to-scale solution of alpha*M_D + beta*CE_D = 0
        alpha, beta = -ce.d_coef, m.d_coef
        raw = m.scale(alpha).plus(ce.scale(beta))
        require(raw.d_coef.is_zero(), f"the combination of M and CE kills D at d = {d}")
        sigma = target_a / raw.lambda_coef
        weight_m = alpha * sigma
        weight_ce = beta * sigma
        x = raw.scale(sigma)

    require(x.lambda_coef == target_a and -x.delta_coef == target_b,
            f"X has the standard (a, b) at d = {d}")
    return MappingProxyType({"X": x, "a": target_a, "b": target_b,
                             "weightM": weight_m, "weightCE": weight_ce})


def admissible_genus(d: int, g: int) -> bool:
    """Genera where both unbalancedness loci are divisors, i.e. where the
    slope bound applies: g even (d=3), g = 3 mod 6 (d=4), g = 16 mod 20
    (d=5), each nonnegative."""
    if d == 3:
        return g >= 4 and g % 2 == 0
    if d == 4:
        return g >= 0 and g % 6 == 3
    if d == 5:
        return g >= 0 and g % 20 == 16
    return False


def slope_bound(d: int, g: int) -> Fraction:
    """The sharp sweeping-slope bound a/b at an admissible genus:
    7 + 6/g, 13/2 + 15/(2g), 31/5 + 44/(5g)."""
    if not admissible_genus(d, g):
        raise CongruenceViolation(f"g = {g} is not admissible for d = {d}")
    conditions = divisorial_conditions(d, g)
    require(conditions["maroni"] and (d == 3 or conditions["ce"]),
            f"admissible_genus and divisorial_conditions agree at (d, g) = ({d}, {g})")
    data = class_x(d)
    return data["a"].eval({"g": g}) / data["b"].eval({"g": g})
