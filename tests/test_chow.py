from fractions import Fraction

import pytest

from hurwitzcalc.chow import (canonical_class, expansion_ring,
                              grassmann_canonical_class,
                              grassmann_top_constant_from_twist,
                              grr_degree_on_p1xp1, parse_class, parse_poly,
                              ring_from_spec, ring_grassmann_bundle_g25,
                              ring_hirzebruch, ring_p1xp1,
                              ring_product_with_p1, ring_proj_bundle_over_p1,
                              ring_proj_space, surface_hirzebruch,
                              surface_p1xp1)
from hurwitzcalc.errors import DegreeMismatch, InvalidRank, RingMismatch
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


def test_grassmann_canonical_class():
    dual_degree = Poly.var("c1Fdual")
    ring = ring_grassmann_bundle_g25(dual_degree)
    k = grassmann_canonical_class(ring)
    z, f = ring.gen("z"), ring.gen("f")
    assert k == -5 * z + (2 * dual_degree - 2) * f


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
    # reduce every doubly-reducible monomial by each applicable rule first
    # and compare the resulting normal forms (the constructors also run
    # this check exhaustively at construction time)
    for ring in (ring_hirzebruch(Poly.var("h")),
                 ring_proj_bundle_over_p1(4, Poly.var("c")),
                 ring_p1xp1()):
        top = ring.top_degree
        for i in range(top + 1):
            for j in range(top + 1 - i):
                mono = (i, j)
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
                assert all(o == outcomes[0] for o in outcomes)


def test_parse_round_trips():
    ring = ring_from_spec("projbundle:3:u+v")
    cls = parse_class(ring, "(2*z - u*f)^2 * (2*z - v*f)")
    assert cls.integrate() == 4 * Poly.var("v")
    assert parse_poly("2*g + 8") == 2 * Poly.var("g") + 8
    assert parse_poly("-3*(gR+4)") == -3 * (Poly.var("gR") + 4)


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
