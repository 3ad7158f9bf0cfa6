import hashlib
import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hurwitzcalc import chow
from hurwitzcalc.chow import (ChowClass, canonical_class, expansion_ring,
                              grassmann_top_constant_from_twist,
                              grr_degree_on_p1xp1, parse_class, parse_poly,
                              ring_from_spec, ring_grassmann_bundle_g25,
                              ring_hirzebruch, ring_p1xp1,
                              ring_product_with_p1, ring_proj_bundle_over_p1,
                              ring_proj_space, surface_hirzebruch,
                              surface_p1xp1)
from hurwitzcalc.errors import (DegreeMismatch, InvalidRank, OutOfRange, ParseError, RingMismatch,
                               ZeroDenominator)
from hurwitzcalc.symkernel import Poly


def test_quadric_surface_bilinear_form():
    ring = ring_p1xp1()
    rs, rt = ring.gen("Rs"), ring.gen("Rt")
    a, b = Poly.var("a"), Poly.var("b")
    square = ((a * rs + b * rt) ** 2).integrate()
    assert square == 2 * a * b


def test_ruling_intersections():
    ring = ring_p1xp1()
    rs, rt = ring.gen("Rs"), ring.gen("Rt")
    # a (1,3) curve meets the two rulings once and three times
    assert ((rs + 3 * rt) * rt).integrate() == Poly.const(1)
    assert ((rs + 3 * rt) * rs).integrate() == Poly.const(3)
    k = Poly.var("k")
    bidegree_3k = 3 * rs + k * rt
    assert (bidegree_3k * bidegree_3k).integrate() == 6 * k


def test_hirzebruch_intersections():
    h = Poly.var("h")
    ring = ring_hirzebruch(h)
    tau, f = ring.gen("tau"), ring.gen("f")
    assert (tau * f).integrate() == Poly.const(1)
    assert ((2 * tau + f) ** 2).integrate() == 4 * h + 4


def test_hirzebruch_adjunction_genus():
    surface = surface_hirzebruch(Poly.var("h"))
    tau, f = surface.ring.gen("tau"), surface.ring.gen("f")
    assert surface.adjunction_genus(2 * tau + f) == Poly.var("h")


def test_proj_bundle_conventions_all_ranks():
    c1 = Poly.var("c1E")
    for rank in range(2, 7):
        ring = ring_proj_bundle_over_p1(rank, c1)
        z, f = ring.gen("z"), ring.gen("f")
        assert (z ** (rank - 1) * f).integrate() == Poly.const(1)
        assert (z ** rank).integrate() == c1


def test_proj_bundle_rank3_tetragonal_numbers():
    u, v = Poly.var("u"), Poly.var("v")
    ring = ring_proj_bundle_over_p1(3, u + v)
    z, f = ring.gen("z"), ring.gen("f")
    assert (z ** 3).integrate() == u + v
    assert (z ** 2 * f).integrate() == Poly.const(1)
    assert (((2 * z - u * f) ** 2) * (2 * z - v * f)).integrate() == 4 * v


def test_proj_bundle_rejects_rank_one():
    with pytest.raises(InvalidRank):
        ring_proj_bundle_over_p1(1)


def test_multiply_and_integrate():
    ring = ring_proj_bundle_over_p1(3, Poly.var("u") + Poly.var("v"))
    z, f = ring.gen("z"), ring.gen("f")
    assert (z + f) * (z - f) == z * z
    assert (z ** 2 * f).integrate() == Poly.const(1)
    u, v = Poly.var("u"), Poly.var("v")
    mixed = ((2 * z - u * f) * (2 * z - v * f) * z).integrate()
    assert mixed == 2 * u + 2 * v


def test_classes_take_pairs_or_a_mapping():
    h = Poly.var("h")
    ring = ring_hirzebruch(h)
    # tau^2 = h tau f, so these pairs sum to zero
    pairs = [((1, 0), 2), ((2, 0), 1), ((1, 0), -2), ((1, 1), -h)]
    assert ring.cls(pairs).is_zero() and ChowClass(ring, iter(pairs)).is_zero()
    assert ring.cls({(2, 0): 1}) == ChowClass(ring, {(1, 1): h}) == ring.gen("tau") ** 2


def test_ring_mismatch_and_degree_mismatch():
    a = ring_p1xp1().gen("Rs")
    b = ring_hirzebruch(1).gen("tau")
    with pytest.raises(RingMismatch):
        a * b
    with pytest.raises(DegreeMismatch):
        a.integrate()


def test_integration_linearity():
    ring = ring_p1xp1()
    rs, rt = ring.gen("Rs"), ring.gen("Rt")
    x = 3 * rs * rt
    y = 5 * rs * rt
    assert (x + y).integrate() == x.integrate() + y.integrate()


def test_grassmann_integration_facts():
    dual_degree = Poly.var("c1Fdual")
    ring = ring_grassmann_bundle_g25(dual_degree)
    z, f = ring.gen("z"), ring.gen("f")
    assert (z ** 6 * f).integrate() == Poly.const(5)
    g = Poly.var("g")
    instance = ring_grassmann_bundle_g25(-2 * (g + 4))
    zi = instance.gen("z")
    assert (zi ** 7).integrate() == -28 * (g + 4)


def test_grassmann_basepoint_combination():
    g, k1 = Poly.var("g"), Poly.var("k1")
    ring = ring_grassmann_bundle_g25(-2 * (g + 4))
    z, f = ring.gen("z"), ring.gen("f")
    tail = 5 * (g + 4) - k1
    product = (z + k1 * f) ** 2 * (z ** 5 + tail * z ** 4 * f)
    assert product.integrate() == 5 * k1 - 3 * (g + 4)


def test_grassmann_twist_invariance_and_constant():
    assert grassmann_top_constant_from_twist() == (Fraction(14), Fraction(0))
    g, l = Poly.var("g"), Poly.var("l")
    base = ring_grassmann_bundle_g25(-2 * (g + 4))
    z, f = base.gen("z"), base.gen("f")
    twisted_top = ((z + 2 * l * f) ** 7).integrate()
    dual_shift = (-2 * (g + 4) + 5 * l)
    invariant_before = (z ** 7).integrate() - 14 * (-2 * (g + 4))
    invariant_after = twisted_top - 14 * dual_shift
    assert invariant_before == invariant_after


def _fresh_grassmann_integrals(w):
    """integral(z^6 f) and integral(z^7) on a ring built on a spec no other
    test uses, which is then dropped from the table."""
    try:
        ring = ring_grassmann_bundle_g25(w)
        z, f = ring.gen("z"), ring.gen("f")
        return (z ** 6 * f).integrate(), (z ** 7).integrate()
    finally:
        chow._RINGS.pop(f"grassmann25:{w}", None)


def test_grassmann_top_integral_follows_the_derivation(monkeypatch):
    w = Poly.var("w")
    with monkeypatch.context() as patch:
        patch.setattr(chow, "grassmann_top_constant_from_twist",
                      lambda: (Fraction(3), Fraction(1)))
        assert _fresh_grassmann_integrals(w) == (5, 3 * w + 1)
    # the ring and the derivation read one constant
    monkeypatch.setattr(chow, "G14_PLUCKER_DEGREE", 10)
    assert grassmann_top_constant_from_twist() == (Fraction(28), Fraction(0))
    assert _fresh_grassmann_integrals(w) == (10, 28 * w)


def test_a_warm_ring_derives_nothing(monkeypatch):
    # the spec is looked up before the tables, and the derived constant, are
    # built
    ring = ring_grassmann_bundle_g25()

    def derive():
        raise AssertionError("a warm ring derived its top constant")
    monkeypatch.setattr(chow, "grassmann_top_constant_from_twist", derive)
    assert ring_grassmann_bundle_g25() is ring


def test_grassmann_canonical_class():
    dual_degree = Poly.var("c1Fdual")
    ring = ring_grassmann_bundle_g25(dual_degree)
    k = canonical_class(ring)
    z, f = ring.gen("z"), ring.gen("f")
    assert k == -5 * z + (2 * dual_degree - 2) * f


def test_projective_space_rings_are_memoized():
    # a repeat call returns the interned ring: the memo and _RINGS agree
    for n in range(2, 7):
        base = ring_proj_space(n)
        assert base is chow._RINGS[f"projspace:{n}"] and ring_proj_space(n) is base
        product = ring_product_with_p1(base)
        assert product is chow._RINGS[f"projspace_x_p1:{n}"]
        assert ring_product_with_p1(base) is product


def test_product_of_a_foreign_base_is_refused_on_every_call():
    # an exception is not memoized: a base that is not the interned
    # projective space, even one under its spec, is refused again
    twin = chow.ChowPresentation("projspace:3", generators=("H",), rewrites={0: (4, {})},
                                 top_degree=3, integration={(3,): 1})
    for base in (ring_p1xp1(), twin):
        for _ in range(2):
            with pytest.raises(RingMismatch, match="expects a projective-space base"):
                ring_product_with_p1(base)


def test_product_with_p1():
    ring = ring_product_with_p1(ring_proj_space(4))
    h, f = ring.gen("H"), ring.gen("F")
    assert (h ** 4 * f).integrate() == Poly.const(1)
    assert h ** 5 == ring.zero()
    swept = h ** 3 + 4 * h ** 2 * f
    pairing = (swept * h ** 2).integrate()
    assert pairing == Poly.const(4)


def test_product_with_p1_rejects_a_product_base():
    with pytest.raises(RingMismatch):
        ring_product_with_p1(ring_product_with_p1(ring_proj_space(2)))
    with pytest.raises(RingMismatch):
        ring_product_with_p1(ring_p1xp1())


def test_negative_class_power_is_rejected():
    z = ring_proj_bundle_over_p1(3).gen("z")
    assert z ** 0 == z.ring.one()
    with pytest.raises(ValueError):
        z ** -1


@pytest.mark.parametrize("build", [
    ring_p1xp1,
    lambda: ring_hirzebruch(Poly.var("h") + 1),
    lambda: ring_proj_bundle_over_p1(3, Poly.var("u") + Poly.var("v")),
    lambda: ring_grassmann_bundle_g25(-2 * (Poly.var("g") + 4)),
    lambda: ring_proj_space(3),
    lambda: ring_product_with_p1(ring_proj_space(3)),
], ids=["p1xp1", "hirzebruch", "projbundle", "grassmann25", "projspace",
        "projspace_x_p1"])
def test_one_ring_object_per_spec(build):
    ring = build()
    assert build() is ring
    assert ring_from_spec(ring.spec) is ring


def test_expansion_spec_records_square_zero_generators():
    first = expansion_ring(square_zero=("Rs", "Rt"), free=("zeta",))
    second = expansion_ring(square_zero=("Rt",), free=("zeta", "Rs"))
    assert first.generators == second.generators
    assert first.spec != second.spec
    assert first is not second
    assert expansion_ring(("Rs", "Rt"), ("zeta",)) is first
    rs = first.gen("Rs")
    assert (rs * rs).is_zero()
    assert not (second.gen("Rs") * second.gen("Rs")).is_zero()


def test_canonical_classes():
    ring = ring_p1xp1()
    rs, rt = ring.gen("Rs"), ring.gen("Rt")
    assert canonical_class(ring) == -2 * rs - 2 * rt
    h = Poly.var("h")
    fh = ring_hirzebruch(h)
    tau, f = fh.gen("tau"), fh.gen("f")
    assert canonical_class(fh) == -2 * tau + (h - 2) * f
    pe = ring_proj_bundle_over_p1(3, Poly.var("c"))
    z, fz = pe.gen("z"), pe.gen("f")
    assert canonical_class(pe) == -3 * z + (Poly.var("c") - 2) * fz
    # a presentation's spec is its only name; the class is data it carries
    assert not hasattr(pe, "name") and ring_from_spec(pe.spec) is pe
    for ring in (ring_proj_space(2), expansion_ring(("Rs",), ("zeta",))):
        with pytest.raises(RingMismatch, match=re.escape(ring.spec)):
            canonical_class(ring)


def test_grr_degree_instances():
    ring = ring_p1xp1()
    rs, rt = ring.gen("Rs"), ring.gen("Rt")
    assert grr_degree_on_p1xp1(ring.zero(), 0) == Poly.const(0)
    m = Poly.var("m")
    # a line bundle of fiber degree m pushes to a rank-one sheaf of degree m
    assert grr_degree_on_p1xp1(m * rt, 0) == m
    # a bundle pulled back from the pencil line pushes forward trivially
    assert grr_degree_on_p1xp1(m * rs, 0) == Poly.const(0)
    with pytest.raises(RingMismatch):
        grr_degree_on_p1xp1(ring_proj_space(2).gen("H"), 0)


def test_surface_euler_numbers():
    assert surface_p1xp1().c2_omega == Poly.const(4)
    assert surface_hirzebruch(3).c2_omega == Poly.const(4)


def test_rewriting_is_order_independent():
    # nothing is checked at construction: the rules, one per generator, have
    # pairwise coprime leading powers, so normal forms are unique.  Here every
    # monomial up to the top degree (6 where there is none) is reduced by each
    # applicable rule first, and every order must reach its normal form
    rings = [ring_p1xp1(), ring_hirzebruch(Poly.var("h")), ring_hirzebruch(3),
             *(ring_proj_bundle_over_p1(rank, Poly.var("c")) for rank in range(2, 6)),
             ring_grassmann_bundle_g25(), ring_proj_space(4),
             ring_product_with_p1(ring_proj_space(3)),
             expansion_ring(square_zero=("Rs", "Rt"), free=("zeta",)),
             expansion_ring(square_zero=("F",), free=("H", "z"))]
    for ring in rings:
        top = ring.top_degree if ring.top_degree is not None else 6
        for mono in itertools.product(range(top + 1), repeat=len(ring.generators)):
            if sum(mono) > top:
                continue
            outcomes = []
            for gen_index, (power, _) in ring.rewrites.items():
                if mono[gen_index] >= power:
                    once = ring._rewrite_once(mono, gen_index)
                    collapsed = {}
                    for m, c in once.items():
                        for m2, c2 in ring.normal_form(m).items():
                            collapsed[m2] = collapsed.get(m2, Poly.const(0)) + c * c2
                    outcomes.append({m: c for m, c in collapsed.items()
                                     if not c.is_zero()})
            assert all(o == ring.normal_form(mono) for o in outcomes), (ring, mono)


def test_parse_round_trips():
    ring = ring_from_spec("projbundle:3:u+v")
    cls = parse_class(ring, "(2*z - u*f)^2 * (2*z - v*f)")
    assert cls.integrate() == 4 * Poly.var("v")
    assert parse_poly("2*g + 8") == 2 * Poly.var("g") + 8
    assert parse_poly("-3*(gR+4)") == -3 * (Poly.var("gR") + 4)


@pytest.mark.parametrize("text", ["x*)", "Rs*+", "/", "2+*3"])
def test_an_operator_is_not_an_operand(text):
    with pytest.raises(ValueError, match="expected an operand"):
        parse_poly(text)
    with pytest.raises(ValueError):
        parse_class(ring_p1xp1(), text)


_x, _y, _gr = Poly.var("x"), Poly.var("y"), Poly.var("gR")


@pytest.mark.parametrize("text,expected", [
    ("3+-x^2", 3 - _x ** 2), ("1*-x^2", -_x ** 2), ("2*-x^2", -2 * _x ** 2),
    ("-x^2", -(_x ** 2)), ("--x", _x), ("x*-y", -_x * _y),
    ("-3*(gR+4)", -3 * (_gr + 4)), ("x - -y", _x + _y), ("x/-2", -_x / 2)])
def test_unary_minus_binds_looser_than_power(text, expected):
    # one rule, after every operator alike: unary := '-' unary | power
    assert parse_poly(text) == expected


def test_a_negated_operand_is_not_charged(monkeypatch):
    monkeypatch.setattr(chow, "MAX_TERM_WORK", 3)
    assert parse_poly("-x*-y*---x") == -_x * _x * _y
    with pytest.raises(OutOfRange, match="MAX_TERM_WORK = 3"):
        parse_poly("(x+y)*(x+y)")


def test_double_star_is_a_power():
    assert parse_poly("x**2 + 2**3") == _x ** 2 + 8


def test_division_by_a_constant():
    assert parse_poly("g/2") == Poly.var("g") / 2
    # one message for one error, in either parser
    for parse in (parse_poly, lambda text: parse_class(ring_p1xp1(), text)):
        with pytest.raises(ParseError, match="^division is only supported by constants$"):
            parse("x/y")
        for text in ("x/0", "x/(y-y)"):
            with pytest.raises(ZeroDenominator, match="^division by zero$"):
                parse(text)


@pytest.mark.parametrize("text,message", [
    ("x$", "unexpected character '\\$'"), ("x+", "unexpected end of expression"),
    ("x)", "trailing token '\\)'"), ("x^y", "exponent must be a nonnegative integer"),
    ("x^-2", "exponent must be a nonnegative integer"), ("(x y)", "unbalanced parentheses")])
def test_malformed_expression(text, message):
    with pytest.raises(ValueError, match=message):
        parse_poly(text)


def test_integration_errors():
    with pytest.raises(DegreeMismatch, match="has no integration map"):
        expansion_ring(["e"], ["a"]).gen("a").integrate()
    ring = chow.ChowPresentation("partial", ("a", "b"), {}, 2, {(1, 1): 1})
    assert (ring.gen("a") * ring.gen("b")).integrate() == 1
    with pytest.raises(DegreeMismatch, match="no integration entry for a\\^2"):
        (ring.gen("a") ** 2).integrate()


def test_surface_pairing_needs_its_own_ring():
    tau = ring_hirzebruch(1).gen("tau")
    with pytest.raises(RingMismatch, match="classes must live on p1xp1"):
        surface_p1xp1().dot(tau, tau)


def test_class_equality_and_hash():
    ring = ring_p1xp1()
    rs, rt = ring.gen("Rs"), ring.gen("Rt")
    assert rs != 1 and rs != "Rs"
    assert parse_class(ring, "Rs + Rt") == rt + rs
    assert hash(parse_class(ring, "Rs + Rt")) == hash(rt + rs)


def test_reprs_name_the_ring():
    ring = ring_p1xp1()
    assert repr(ring) == "ChowPresentation(p1xp1)"
    assert repr(ring.gen("Rs")) == "ChowClass[p1xp1]((1)*Rs)"


def test_class_json_round_trip():
    ring = ring_proj_bundle_over_p1(3, Poly.var("u") + Poly.var("v"))
    z, f = ring.gen("z"), ring.gen("f")
    cls = 2 * z - Poly.var("u") * f
    data = cls.to_json()
    ring2 = ring_from_spec(data["ring"])
    assert ring2 is ring
    rebuilt = sum((parse_poly(t["coeff"]) * parse_class(ring2, t["monomial"])
                   for t in data["terms"]), ring2.zero())
    assert rebuilt == cls


# ---------------------------------------------------------------------------
# Ring laws on random classes of every presentation kind
# ---------------------------------------------------------------------------

# every kind `ring_from_spec` builds, with symbolic and numeric parameters
specs = st.one_of(
    st.just("p1xp1"),
    st.sampled_from(("h", "0", "3", "h + 1")).map("hirzebruch:{}".format),
    st.builds("projbundle:{}:{}".format, st.integers(2, 4),
              st.sampled_from(("c1E", "u + v", "-2"))),
    st.sampled_from(("c1Fdual", "-2*g - 8")).map("grassmann25:{}".format),
    st.integers(1, 4).map("projspace:{}".format),
    st.integers(1, 3).map("projspace_x_p1:{}".format))

# small coefficients c + k*a^e in a symbol no ring uses
coeffs = st.builds(lambda c, k, e: c + k * Poly.var("a") ** e,
                   st.integers(-3, 3), st.integers(-2, 2), st.integers(0, 2))


@st.composite
def rings(draw, spec_kinds_only=False):
    if spec_kinds_only or draw(st.integers(0, 6)):
        return ring_from_spec(draw(specs))
    return expansion_ring(square_zero=("Rs", "Rt"), free=("zeta",))


@st.composite
def classes_in(draw, ring, count):
    # terms of degree up to a third of the top degree keep many triple
    # products below it
    top = ring.top_degree if ring.top_degree is not None else 6
    n = len(ring.generators)
    monos = st.lists(st.integers(0, n - 1), max_size=max(1, top // 3)).map(
        lambda picks: tuple(picks.count(i) for i in range(n)))
    return [ring.cls(draw(st.lists(st.tuples(monos, coeffs), min_size=1, max_size=3)))
            for _ in range(count)]


@st.composite
def ring_classes(draw, count, spec_kinds_only=False):
    ring = draw(rings(spec_kinds_only))
    return ring, draw(classes_in(ring, count))


def _top_part(c):
    ring = c.ring
    return ring.cls({m: v for m, v in c.terms.items() if sum(m) == ring.top_degree})


class TestRingLaws:
    @settings(max_examples=40, deadline=None)
    @given(ring_classes(3))
    def test_sum_and_product_commute_and_associate(self, drawn):
        _, (x, y, z) = drawn
        assert x + y == y + x and x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)

    @settings(max_examples=40, deadline=None)
    @given(ring_classes(3), coeffs)
    def test_product_distributes_over_sums(self, drawn, s):
        _, (x, y, z) = drawn
        assert x * (y + z) == x * y + x * z
        assert s * (x - y) == s * x - s * y
        assert (x - y) + y == x

    @settings(max_examples=40, deadline=None)
    @given(rings(), st.data())
    def test_normal_form_is_idempotent(self, ring, data):
        top = ring.top_degree if ring.top_degree is not None else 3
        mono = data.draw(st.tuples(*[st.integers(0, top + 1)] * len(ring.generators)))
        form = ring.normal_form(mono)
        assert ring._accumulate(form.items()) == form
        assert all(ring.normal_form(m) == {m: Poly.const(1)} for m in form)

    @pytest.mark.parametrize("spec", ["p1xp1", "hirzebruch:h", "projbundle:3:u + v",
                                      "grassmann25:c1Fdual", "projspace:3",
                                      "projspace_x_p1:2", None])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data(), n=st.integers(0, 8))
    def test_power_is_the_repeated_product(self, spec, data, n):
        ring = (ring_from_spec(spec) if spec is not None
                else expansion_ring(square_zero=("Rs", "Rt"), free=("zeta",)))
        (x,) = data.draw(classes_in(ring, 1))
        repeated = ring.one()
        for _ in range(n):
            repeated = repeated * x
        assert x ** n == repeated

    @settings(max_examples=40, deadline=None)
    @given(ring_classes(2, spec_kinds_only=True), coeffs)
    def test_integral_is_linear(self, drawn, s):
        _, (x, y) = drawn
        x, y = _top_part(x), _top_part(y)
        assert (x + s * y).integrate() == x.integrate() + s * y.integrate()

    @settings(max_examples=40, deadline=None)
    @given(ring_classes(1))
    def test_string_round_trip(self, drawn):
        ring, (x,) = drawn
        assert parse_class(ring, str(x)) == x

    @settings(max_examples=20, deadline=None)
    @given(ring_classes(1, spec_kinds_only=True))
    def test_json_names_the_ring(self, drawn):
        ring, (x,) = drawn
        assert ring_from_spec(x.to_json()["ring"]) is ring

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.sampled_from(("c1E", "u + v", "-3", "0")),
           st.lists(coeffs, min_size=3, max_size=3))
    def test_projective_bundle_top_integrals(self, rank, c1, top_coeffs):
        # in top degree only z^r (integral c1) and z^(r-1) f (integral 1)
        # survive; z^(r-2) f^2 vanishes
        c1 = parse_poly(c1)
        ring = ring_proj_bundle_over_p1(rank, c1)
        top = ring.cls([((rank - b, b), c) for b, c in enumerate(top_coeffs)])
        assert top.integrate() == top_coeffs[0] * c1 + top_coeffs[1]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.lists(coeffs, min_size=3, max_size=3))
    def test_projective_space_times_line_top_integrals(self, n, top_coeffs):
        # in top degree only H^n F survives, with integral 1
        ring = ring_product_with_p1(ring_proj_space(n))
        top = ring.cls([((n + 1 - b, b), c) for b, c in enumerate(top_coeffs)])
        assert top.integrate() == top_coeffs[1]

    @settings(max_examples=40, deadline=None)
    @given(ring_classes(1), st.data())
    def test_evaluated_is_the_class_of_the_values(self, drawn, data):
        ring, (x,) = drawn
        names = sorted({name for c in x.terms.values() for name in c.variables()})
        values = st.one_of(st.integers(-5, 5),
                           st.fractions(min_value=-5, max_value=5, max_denominator=6))
        at = {name: data.draw(values, label=name) for name in names}
        assert x.evaluated(at) == ring.cls({m: c.eval(at) for m, c in x.terms.items()})


_DIRECTRIX_SHAPE = st.integers(3, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n - 2)))


@settings(max_examples=60, deadline=None)
@given(_DIRECTRIX_SHAPE, st.integers(-8, 8), st.integers(-8, 8))
@example((5, 2), 3, -4)
@example((3, 1), -8, 7)
def test_evaluated_swept_class_needs_no_sum(shape, a, l):
    # the swept class form is in normal form: evaluated, it keeps each
    # monomial with an integer coefficient, and the F term drops where
    # a + l + 1 = 0
    from hurwitzcalc.directrix import _class_form
    form = _class_form(*shape)
    at = {"a": a, "l": l}
    evaluated = form.evaluated(at)
    assert evaluated == form.ring.cls({m: c.eval(at) for m, c in form.terms.items()})
    assert len(evaluated.terms) == (1 if a + l + 1 == 0 else 2)
    assert all(type(c.terms[()]) is int for c in evaluated.terms.values())


# ---------------------------------------------------------------------------
# Pinned bytes: classes of every ring kind, the directrix class forms, and
# Poly sums and products
# ---------------------------------------------------------------------------

# one ring of each kind a spec can name, in both a symbolic and a numeric
# instance where the spec takes a parameter, and the directrix's expansion ring
_DIGEST_SPECS = ("p1xp1", "hirzebruch:h", "hirzebruch:3", "projbundle:2:u",
                 "projbundle:3:c1E", "projbundle:4:u + v", "grassmann25:c1Fdual",
                 "grassmann25:-2*g - 8", "projspace:3", "projspace_x_p1:3")


def _digest_rings():
    return [ring_from_spec(spec) for spec in _DIGEST_SPECS] + [
        expansion_ring(square_zero=("Rs", "Rt"), free=("zeta",))]


def _seeded_poly(rng, names=("a", "b")):
    return Poly({tuple((name, e) for name in names if (e := rng.randint(0, 2))):
                 Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for _ in range(rng.randint(0, 4))})


def _seeded_class(rng, ring, max_degree):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        mono = [0] * len(ring.generators)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(mono))] += 1
        terms[tuple(mono)] = _seeded_poly(rng)
    return ring.cls(terms)


def _pinned_records():
    """(kind, text) records of the seeded grid, in a fixed order."""
    from hurwitzcalc.directrix import _class_form
    rng = random.Random(1717)
    for ring in _digest_rings():
        for _ in range(6):
            top = ring.top_degree if ring.top_degree is not None else 4
            x, y, z = (_seeded_class(rng, ring, top // 2) for _ in range(3))
            linear = _seeded_class(rng, ring, 1)
            s = _seeded_poly(rng)
            for value in (x + y, x - y, -x, s * x, x * s, 3 * y, x * y, (x + y) * z,
                          x ** 2, x + s, s - y):
                yield "class", str(value)
                yield "json", json.dumps(value.to_json(), sort_keys=True)
            if ring.top_degree is not None:
                yield "integral", str(_top_part(x * y * linear).integrate())
                yield "integral", str(_top_part(linear ** top).integrate())
    for n in range(3, 7):
        for r in range(1, n - 1):
            form = _class_form(n, r)
            yield "directrix", f"{n} {r} {form}"
            yield "json", json.dumps(form.to_json(), sort_keys=True)
    for _ in range(40):
        p, q = _seeded_poly(rng, ("a", "b", "c")), _seeded_poly(rng, ("a", "b", "c"))
        for value in (p + q, p - q, p * q, p * q + q, (p + 1) ** 3, p * 0, 2 * p / 3):
            yield "poly", str(value)


# SHA-256 over `_pinned_records()`, recorded before Poly and ChowClass
# sums were moved into their constructors
_CHOW_DIGEST = "32816f98dc65c4621fe2be4fc4ad5f0fffecf25e33686885a5f65c8be88e8664"


def test_class_and_poly_bytes_are_pinned():
    digest = hashlib.sha256()
    for record in _pinned_records():
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == _CHOW_DIGEST


def _family_op():
    from hurwitzcalc.directrix import (DirectrixFamily, rotating_directrix_class,
                                       rotating_directrix_closed_form)
    fam = DirectrixFamily(5, 2, 2, 1)
    return lambda: rotating_directrix_class(fam) == rotating_directrix_closed_form(fam)


def _class_sum():
    rs, rt = ring_p1xp1().gen("Rs"), ring_p1xp1().gen("Rt")
    return lambda: rs + rt


def _class_product():
    rs, rt = ring_p1xp1().gen("Rs"), ring_p1xp1().gen("Rt")
    x = rs + rt
    return lambda: x * rt


def _counting(monkeypatch, name):
    """Wrap the Poly method `name` to record each call's receiver."""
    calls = []
    method = getattr(Poly, name)

    def counting(self, *args):
        calls.append(self)
        return method(self, *args)

    monkeypatch.setattr(Poly, name, counting)
    return calls


# the most Poly objects one warm op may build and the most Poly products it
# may take: a constant factor scales and a unit factor shares its operand,
# so a product with the unit builds nothing.  Summing every sum twice built
# 16, 8 and 9; multiplying by the unit through the generic product built 8,
# 2 and 3
@pytest.mark.parametrize("make_op, most_built, most_products", [
    (_family_op, 4, 4), (_class_sum, 0, 2), (_class_product, 0, 3),
], ids=["warm_directrix_family", "class_sum", "class_product"])
def test_each_sum_is_taken_once(monkeypatch, polys_counted, make_op, most_built,
                                most_products):
    op = make_op()
    op()
    polys_counted.clear()
    products = _counting(monkeypatch, "__mul__")
    op()
    assert len(polys_counted) <= most_built and len(products) <= most_products


# squaring stops at the last bit: g^4 is (g^2)^2, and g^1 is g
@pytest.mark.parametrize("n, most_products", [(0, 0), (1, 0), (2, 1), (4, 2), (5, 3)])
def test_power_squares_no_further_than_its_last_bit(monkeypatch, n, most_products):
    g = Poly.var("g")
    products = _counting(monkeypatch, "__mul__")
    g ** n
    assert len(products) <= most_products


def test_an_integral_is_one_sum(polys_counted):
    # the two top monomials of the G(2,5)-bundle: one product per weighted
    # coefficient, then one sum.  A partial sum per term, from a zero Poly,
    # built 5
    ring = ring_grassmann_bundle_g25()
    x = ring.cls({(7, 0): Poly.var("x"), (6, 1): Poly.var("y")})
    polys_counted.clear()
    total = x.integrate()
    assert len(polys_counted) <= 3
    assert total == 14 * Poly.var("c1Fdual") * Poly.var("x") + 5 * Poly.var("y")


_COLD_CERTIFICATE = "from hurwitzcalc.yeff import certify\ncertify(5, 16)\n"


def test_cold_certificate_builds_few_polys(objects_built):
    # every Poly, through __init__ or Poly.const: 601 when a difference
    # built its negated operand and an integral one partial sum per term,
    # 1025 when every class term and every power multiplied by the unit Poly
    assert objects_built(_COLD_CERTIFICATE)["Poly"] <= 485


def test_cold_certificate_builds_few_fractions(objects_built):
    # Fractions built through Fraction.__new__ and, on Pythons that have it,
    # Fraction._from_coprime_ints; the pin is measured on CPython 3.11, where
    # every Fraction passes through __new__.  1771 when Poly coefficients were
    # all Fractions and propagation added Fractions
    assert objects_built(_COLD_CERTIFICATE)["Fraction"] <= 1207
