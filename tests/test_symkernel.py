import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzcalc.errors import MissingVariable, ZeroDenominator
from hurwitzcalc.symkernel import Poly, RationalFunction, ceil_div, int_if_integral


def p(name):
    return Poly.var(name)


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)

@st.composite
def polys(draw, names=("g", "b", "u"),
          coefficients=st.fractions(min_value=-50, max_value=50, max_denominator=8)):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        mono = []
        for name in names:
            e = draw(st.integers(0, 3))
            if e:
                mono.append((name, e))
        coeff = draw(coefficients)
        terms[tuple(sorted(mono))] = terms.get(tuple(sorted(mono)), 0) + coeff
    return Poly(terms)


def merged_product(a, b):
    """The product term by term, each pair of monomials merged: the generic
    path, with no shortcut for a constant or a unit factor."""
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            exps = dict(m1)
            for name, e in m2:
                exps[name] = exps.get(name, 0) + e
            mono = tuple(sorted(exps.items()))
            terms[mono] = terms.get(mono, 0) + c1 * c2
    return Poly(terms)


def integer_first(poly):
    """Every coefficient of poly is an int when integral and a Fraction
    otherwise: never a float, never a Fraction over 1."""
    return all(type(c) is (int if c.denominator == 1 else Fraction)
               for c in poly.terms.values())


class TestCeilDiv:
    def test_k1_instance(self):
        assert ceil_div(100, 6) == 17

    def test_negative_numerator(self):
        assert ceil_div(-60, 4) == -15

    def test_zero(self):
        assert ceil_div(0, 5) == 0

    @given(st.integers(-500, 500), st.integers(1, 60))
    def test_matches_ceiling(self, a, b):
        assert ceil_div(a, b) == math.ceil(Fraction(a, b))

    def test_rejects_nonpositive_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)


class TestPoly:
    def test_eval_linear(self):
        assert (7 * p("g") + 6).eval({"g": 4}) == 34

    def test_eval_zero_poly(self):
        assert Poly.const(0).eval({}) == 0

    def test_eval_at_root(self):
        quadratic = (p("g") - 1) * (p("g") - 2)
        assert quadratic.eval({"g": 2}) == 0

    def test_eval_missing_variable(self):
        with pytest.raises(MissingVariable):
            (p("g") + p("b")).eval({"g": 1})

    def test_identically_zero(self):
        assert (p("g") - p("g")).is_zero()
        assert not (p("g") - p("b")).is_zero()

    def test_canonical_string(self):
        assert str(7 * p("g") + 6) == "7*g + 6"
        assert str(3 * p("g") - 6 * p("gR")) in ("3*g - 6*gR", "-6*gR + 3*g")
        assert str(p("g") ** 2 / 2 - 1) == "1/2*g^2 - 1"

    def test_domain_errors_and_foreign_operands(self):
        g = p("g")
        with pytest.raises(ValueError, match="not a constant polynomial: g"):
            g.constant_value()
        with pytest.raises(ValueError, match="negative polynomial power"):
            g ** -1
        with pytest.raises(TypeError):
            g + "1"
        with pytest.raises(TypeError):
            "1" - g
        assert repr(g + 1) == "Poly(g + 1)"

    def test_division_by_zero_is_a_domain_error(self):
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDenominator, match="division of a polynomial by zero"):
                p("g") / zero

    def test_no_floats_in_coefficients(self):
        q = (p("g") + 1) ** 3 / 2
        assert all(isinstance(c, Fraction) for c in q.terms.values())
        assert all(isinstance(v, Fraction) or isinstance(v, int)
                   for v in [q.eval({"g": Fraction(1, 3)})])

    @given(polys(), polys(), polys())
    def test_distributivity(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(polys())
    def test_self_difference_vanishes(self, a):
        assert (a - a).is_zero()

    @given(polys(), polys())
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @settings(max_examples=30)
    @given(polys(), polys())
    def test_constructor_sums_repeated_monomials(self, a, b):
        pairs = [*a.terms.items(), *b.terms.items()]
        assert Poly(pairs) == Poly(iter(pairs)) == a + b
        assert Poly([((("g", 1),), 2), ((("g", 1),), -2), ((), 1)]).terms == {(): 1}

    @settings(max_examples=40, deadline=None)
    @given(polys(), st.integers(0, 8))
    def test_power_is_the_repeated_product(self, a, n):
        repeated = Poly.const(1)
        for _ in range(n):
            repeated = merged_product(repeated, a)
        assert a ** n == repeated
        assert a ** 1 is a

    @given(polys(), st.sampled_from([0, 1, Fraction(1), Fraction(-3, 2)]))
    def test_constant_factor_is_the_merged_product(self, a, k):
        expected = merged_product(a, Poly.const(k))
        for product in (a * k, k * a, a * Poly.const(k), Poly.const(k) * a):
            assert product == expected and str(product) == str(expected)
            assert integer_first(product)
        if k == 1:
            # a unit factor shares the other operand, except that a unit on
            # the left of a constant is scaled by that constant
            assert a * k is a and k * a is a and a * Poly.const(k) is a
            assert Poly.const(k) * a is a or a.is_constant()

    def test_a_difference_builds_one_poly(self, polys_counted):
        a, b = p("g") + 1, p("b") - Fraction(1, 2)
        for difference in (lambda: a - b, lambda: 3 - a, lambda: a - 3):
            polys_counted.clear()
            value = difference()
            assert len(polys_counted) == 1 and value is polys_counted[0]
        assert a - b == p("g") - p("b") + Fraction(3, 2) and 3 - a == 2 - p("g")

    def test_substitution(self):
        q = (p("v") + 6 * p("gR") + 3).subs({"v": (p("gR") + 3) / 2})
        assert q == Fraction(13, 2) * p("gR") + Fraction(9, 2)


def term_by_term(poly, assignment):
    """The evaluation before compiled forms: one Fraction per operation."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        value = coeff
        for name, e in mono:
            value *= Fraction(assignment[name]) ** e
        total += value
    return total


values = st.one_of(st.integers(-40, 40),
                   st.fractions(min_value=-40, max_value=40, max_denominator=12))
assignments = st.fixed_dictionaries({"g": values, "b": values, "u": values})


class TestCompiledEval:
    @given(polys(), assignments)
    def test_matches_term_by_term(self, q, at):
        value = q.eval(at)
        assert type(value) is Fraction
        assert value == term_by_term(q, at)
        assert q.eval(at) == value          # the compiled form is reused

    @given(st.one_of(st.integers(-10**6, 10**6), rationals), assignments)
    def test_constants_and_zero(self, c, at):
        assert Poly.const(c).eval(at) == c
        assert Poly.const(c).eval({}) == c
        assert Poly.const(0).eval(at) == 0 and Poly().eval({}) == 0

    @given(polys(), assignments)
    def test_equality_and_hash_ignore_compilation(self, q, at):
        twin = Poly(dict(q.terms))
        q.eval(at)
        assert q == twin and hash(q) == hash(twin)
        assert len({q, twin}) == 1

    @given(polys(), assignments)
    def test_missing_variable_before_and_after_compiling(self, q, at):
        names = sorted(q.variables())
        if not names:
            return
        partial = {k: v for k, v in at.items() if k != names[0]}
        for read in (Poly.eval, Poly._value):
            fresh = Poly(dict(q.terms))
            with pytest.raises(MissingVariable):
                read(fresh, partial)
            read(fresh, at)
            with pytest.raises(MissingVariable):
                read(fresh, partial)

    def test_integer_assignment_on_fraction_coefficients(self):
        q = p("g") ** 2 / 6 - Fraction(3, 4) * p("g") + Fraction(1, 10)
        for g in range(-20, 21):
            assert q.eval({"g": g}) == Fraction(g * g, 6) - Fraction(3 * g, 4) + Fraction(1, 10)

    @given(polys(), assignments)
    def test_integer_read_is_the_integral_value(self, q, at):
        first = q._value(at)                # compiles the form
        expected = int_if_integral(q.eval(at))
        for value in (first, q._value(at)):
            assert value == expected and type(value) is type(expected)

    def test_integer_read_divides_over_the_common_denominator(self):
        # g(g+1)/2 - g/3 is over 6: an int wherever 6 divides the sum
        q = (p("g") ** 2 + p("g")) / 2 - p("g") / 3
        for g in range(-12, 13):
            value = q._value({"g": g})
            assert value == Fraction(g * (g + 1), 2) - Fraction(g, 3)
            assert type(value) is (int if g % 3 == 0 else Fraction)
        assert q._value({"g": Fraction(1, 2)}) == Fraction(5, 24)


scalars = st.one_of(st.integers(-20, 20),
                    st.fractions(min_value=-20, max_value=20, max_denominator=6))
mixed_polys = polys(coefficients=scalars)
univariate_polys = polys(names=("g",), coefficients=scalars)


class TestExactness:
    """int and Fraction coefficients mixed: no result holds a float, each
    coefficient is an int when integral, and equal values hash equal."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_polys, mixed_polys, scalars, assignments)
    def test_arithmetic_stays_exact(self, a, b, k, at):
        poly_results = [a + b, a - b, a * b, a + k, a - k, k - a, a * k, k * a, -a, a ** 3]
        quotients = [RationalFunction(a, 2) + k, RationalFunction(a) * b]
        if k:
            poly_results.append(a / k)
            quotients.append(RationalFunction(a) / k)
        if not b.is_zero():
            quotients += [RationalFunction(a, b), RationalFunction(a * b, b),
                          RationalFunction(a) / RationalFunction(b), k - RationalFunction(a, b)]
        quotients += [q.simplified() for q in quotients]
        for r in poly_results + [part for q in quotients for part in (q.num, q.den)]:
            assert integer_first(r)
        values = [r.eval(at) for r in poly_results]
        values += [q.eval(at) for q in quotients if q.den.eval(at) != 0]
        assert all(type(v) is Fraction for v in values)

    @settings(max_examples=60, deadline=None)
    @given(mixed_polys, mixed_polys, scalars)
    def test_equal_values_hash_equal(self, a, b, k):
        pairs = [(a + b - b, a), (Poly({m: Fraction(c) for m, c in a.terms.items()}), a),
                 (a * k, Poly({m: Fraction(c) * k for m, c in a.terms.items()})),
                 (RationalFunction(a), a), (RationalFunction(a * 3, 3), a)]
        if not b.is_zero():
            pairs += [(RationalFunction(a * b, b), a), (RationalFunction(a * b, b * 3), a / 3),
                      (RationalFunction(a, b) * b, RationalFunction(a * b, b))]
        for lhs, rhs in pairs:
            assert lhs == rhs and hash(lhs) == hash(rhs)

    @settings(max_examples=60, deadline=None)
    @given(univariate_polys, univariate_polys)
    def test_exact_univariate_division(self, a, b):
        if b.is_zero() or b.is_constant():
            return
        quotient = RationalFunction(a * b, b).simplified()
        assert quotient.is_polynomial() and quotient.num == a and integer_first(quotient.num)

    def test_a_constant_ratio_is_its_fraction(self):
        g = p("g")
        third = RationalFunction(g, 3 * g)
        assert third == Poly.const(Fraction(1, 3)) and hash(third) == hash(Fraction(1, 3))
        assert hash(third) == hash(Poly.const(Fraction(1, 3)))
        assert third.simplified().num.terms == {(): Fraction(1, 3)} and str(third) == "1/3"
        assert RationalFunction(2 * g * g, 3 * g).simplified().num == Fraction(2, 3) * g
        assert integer_first(Poly.const(Fraction(6, 2))) and Poly.const(Fraction(6, 2)) == 3
        assert type(Poly.const(3).coefficient(())) is Fraction
        assert type(Poly.const(3).constant_value()) is Fraction


class TestRationalFunction:
    def test_cross_multiplication_equality(self):
        g = p("g")
        lhs = RationalFunction(7 * g + 6, g)
        rhs = RationalFunction((7 * g + 6) * (g + 1), g * (g + 1))
        assert lhs == rhs

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(1, Poly.const(0))

    def test_arithmetic(self):
        g = p("g")
        x = RationalFunction(1, g)
        assert x + x == RationalFunction(2, g)
        assert x * g == RationalFunction(1)
        assert (1 - x) * g == g - 1

    def test_simplified_univariate_division(self):
        g = p("g")
        ratio = RationalFunction((2 * g - 6) * (7 * g + 6), 2 * g - 6)
        assert str(ratio) == "7*g + 6"
        # a numerator of lower degree does not divide
        assert str(RationalFunction(3, g * g)) == "(3)/(g^2)"

    def test_domain_errors_and_foreign_operands(self):
        g = p("g")
        with pytest.raises(ZeroDivisionError, match="division by the zero rational function"):
            RationalFunction(1, g) / RationalFunction(g - g)
        assert RationalFunction(g) != "g"
        assert repr(RationalFunction(g, g + 1)) == "RationalFunction((g)/(g + 1))"

    def test_eval(self):
        g = p("g")
        assert RationalFunction(7 * g + 6, g).eval({"g": 4}) == Fraction(17, 2)

    def test_as_poly_simplifies_a_polynomial_quotient(self):
        g = p("g")
        assert RationalFunction(g * g, g).as_poly() == g
        assert RationalFunction((g + 1) * (g - 2), g - 2).as_poly() == g + 1
        with pytest.raises(ValueError, match="not a polynomial"):
            RationalFunction(g + 1, g).as_poly()

    def test_equal_values_hash_equal(self):
        x, y, z = p("x"), p("y"), p("z")
        pairs = [(RationalFunction(x * y, y * z), RationalFunction(x, z)),
                 (RationalFunction(2 * x, 2 * y), RationalFunction(x, y)),
                 (RationalFunction((x + 1) * (y - 3), (x + 2) * (y - 3)),
                  RationalFunction(x + 1, x + 2))]
        for lhs, rhs in pairs:
            assert lhs == rhs and hash(lhs) == hash(rhs)
        assert len({lhs for lhs, _ in pairs} | {rhs for _, rhs in pairs}) == 3
        assert hash(RationalFunction(3)) == hash(3)
        across_types = [(Poly.const(3), 3), (Poly.const(0), 0),
                        (Poly.const(Fraction(1, 2)), Fraction(1, 2)),
                        (RationalFunction(x), x), (RationalFunction(2 * x * y), 2 * x * y)]
        for lhs, rhs in across_types:
            assert lhs == rhs and hash(lhs) == hash(rhs)
            assert len({lhs, rhs}) == 1
