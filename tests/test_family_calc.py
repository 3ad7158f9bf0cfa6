from fractions import Fraction

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzcalc.bundles import k1_pentagonal
from hurwitzcalc.chow import surface_hirzebruch, surface_p1xp1
from hurwitzcalc.divisor_classes import chern_from_basis
from hurwitzcalc.errors import InvalidProfile, OutOfRange, RingMismatch, UnknownKind
from hurwitzcalc.family_calc import (PENCIL_KINDS, PENCIL_TABLE, ChernData,
                                     PencilRecord, PencilRow,
                                     _checked_pencil_delta, basechange_section_bookkeeping,
                                     c2_omega_tetragonal_ambient_restricted,
                                     c2_omega_tetragonal_surface,
                                     hyperelliptic_pencil_delta,
                                     invariants_from_chern, partial_pencil_record,
                                     pencil_delta_on_surface,
                                     pencil_delta_via_euler,
                                     pentagonal_basechange_profile_record,
                                     pentagonal_pencil_numbers,
                                     pentagonal_pencil_symbolic,
                                     surface_tetragonal, tetragonal_pencil_delta,
                                     trigonal_pencil_delta, vertex_pencil_form)
from hurwitzcalc.symkernel import Poly, RationalFunction


def _symbolic_invariants():
    d, g, e2, f2, s = (Poly.var(n) for n in ("d", "g", "ch2E", "ch2F", "c1sqE"))
    return d, g, e2, f2, s, invariants_from_chern(ChernData(d, g, e2, f2, s))


class TestFamilyInvariants:
    def test_mumford_relation_is_exact(self):
        _, _, _, _, _, inv = _symbolic_invariants()
        assert (12 * inv.lam - inv.kappa - inv.delta).is_zero()

    def test_mumford_relation_as_polynomial(self):
        # clear the 1/b denominators and certify the numerator vanishes
        _, _, _, _, _, inv = _symbolic_invariants()
        difference = 12 * inv.lam - inv.kappa - inv.delta
        assert difference.num.is_zero()

    def test_boundary_relation_is_exact(self):
        d, g, _, _, _, inv = _symbolic_invariants()
        b = 2 * g + 2 * d - 2
        relation = (24 * (b - 1) * inv.lam - 3 * (b - 2) * inv.delta
                    + 6 * inv.d_div - (b - 10) * inv.t_div)
        assert relation.is_zero()

    def test_degree_three_has_no_double_pair_class(self):
        g, e2, s = Poly.var("g"), Poly.var("ch2E"), Poly.var("c1sqE")
        inv = invariants_from_chern(ChernData(3, g, e2, 0, s))
        assert inv.d_div.is_zero()

    def test_degree_three_rejects_nonzero_ch2f(self):
        with pytest.raises(OutOfRange):
            ChernData(3, 5, 1, 1, 1)

    def test_impossible_covers_are_out_of_range(self):
        # the bundle of quadrics would have rank d(d-3)/2 < 0 at d = 2
        for d, g in ((2, 3), (0, 5), (-4, 6), (3, -5), (5, -1)):
            with pytest.raises(OutOfRange):
                ChernData(d, g, 1, 0, 3)
        ChernData(3, 0, 1, 0, 3)
        ChernData(Poly.var("d"), Poly.var("g") - 10, 1, 1, 3)

    def test_ramification_self_intersection(self):
        d, g, e2, f2, s, inv = _symbolic_invariants()
        assert inv.r_squared == d * RationalFunction(e2) - f2 + RationalFunction(s) / 2

    def test_branch_square_minus_twice_r_squared(self):
        # with B = 2c1(E) the genus comparison of branch and ramification
        # divisors reads T + D = (B^2 - 2R^2)/2
        d, g, e2, f2, s, inv = _symbolic_invariants()
        b_squared = RationalFunction(4 * s)
        assert inv.t_div + inv.d_div == (b_squared - 2 * inv.r_squared) / 2

    def test_basis_inversion_round_trip(self):
        for d in (3, 4, 5):
            lam, delta, dd = (RationalFunction(Poly.var(n))
                              for n in ("LAM", "DEL", "DD"))
            e2, f2, s = chern_from_basis(d, lam, delta, dd)
            # substitute the recovered chern data into the forward formulas
            g = Poly.var("g")
            b = RationalFunction(2 * g + 2 * d - 2)
            lam_back = e2 - s / b
            delta_back = (12 - d) * e2 + f2 - (Fraction(1, 2) + 4 / b) * s
            dd_back = 4 * f2 - (4 * d - 12) * e2
            assert lam_back == lam
            assert delta_back == delta
            assert dd_back == dd


# the pentagonal counts the one form carries
_PENTAGONAL_FORM_KEYS = ("lambda", "delta", "B")


def _pentagonal_form_at(g_r, k_r):
    form = vertex_pencil_form("pentagonal")
    return {name: Poly.const(form[name].eval({"gR": g_r, "kR": k_r}))
            for name in _PENTAGONAL_FORM_KEYS}


class TestPencilDeltas:
    def test_trigonal_even_genus_on_quadric(self):
        surface = surface_p1xp1()
        rs, rt = surface.ring.gen("Rs"), surface.ring.gen("Rt")
        k = Poly.var("k")
        delta = pencil_delta_on_surface(surface, k * rs + 3 * rt)
        # genus of the (3, k) curve is 2(k-1)
        assert delta == 7 * (2 * (k - 1)) + 6

    def test_trigonal_all_genera(self):
        for g in range(2, 41):
            assert trigonal_pencil_delta(g) == 7 * g + 6

    def test_hyperelliptic_on_its_surface(self):
        h = Poly.var("h")
        surface = surface_hirzebruch(h)
        tau, f = surface.ring.gen("tau"), surface.ring.gen("f")
        assert pencil_delta_on_surface(surface, 2 * tau + f) == 8 * h + 4
        assert hyperelliptic_pencil_delta(7) == 60

    def test_cached_forms_equal_the_derivation_on_numeric_rings(self):
        # each form is derived once in the rule symbols; the same derivation
        # on rings built with numbers, which carry their canonical class as
        # data, must give its values.  The surfaces' own parameters map to
        # the rule symbols as h -> gR, g -> gR, (u, v) -> (u + v - 3, v) and
        # (g, k1) -> (gR, kR)
        for h in range(12):
            surface = surface_hirzebruch(h)
            tau, f = surface.ring.gen("tau"), surface.ring.gen("f")
            assert _checked_pencil_delta(surface, 2 * tau + f) == \
                vertex_pencil_form("hyperelliptic")["delta"].eval({"gR": h})
        for u, v in ((1, 2), (3, 3), (4, 7), (9, 5)):
            surface = surface_tetragonal(u, v)
            z, f = surface.ring.gen("z"), surface.ring.gen("f")
            assert _checked_pencil_delta(surface, 2 * z - u * f) == \
                vertex_pencil_form("tetragonal")["delta"].eval({"gR": u + v - 3, "v": v})
        quadric = surface_p1xp1()
        rs, rt = quadric.ring.gen("Rs"), quadric.ring.gen("Rt")
        for g in range(0, 21, 2):
            assert _checked_pencil_delta(quadric, (g // 2 + 1) * rs + 3 * rt) == \
                vertex_pencil_form("trigonal")["delta"].eval({"gR": g})
        for g, k1 in ((2, k1_pentagonal(2)), (16, k1_pentagonal(16)), (7, 3)):
            numeric = pentagonal_pencil_symbolic(g, k1)
            assert {name: numeric[name] for name in _PENTAGONAL_FORM_KEYS} == \
                _pentagonal_form_at(g, k1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 400), st.integers(0, 80), st.integers(0, 80),
           st.integers(0, 200), st.integers(-20, 200))
    def test_cached_forms_commute_with_evaluation(self, h, u, v, half_g, k1):
        # the same contract as above, at random points
        surface = surface_hirzebruch(h)
        tau, f = surface.ring.gen("tau"), surface.ring.gen("f")
        assert _checked_pencil_delta(surface, 2 * tau + f) == \
            vertex_pencil_form("hyperelliptic")["delta"].eval({"gR": h})
        surface = surface_tetragonal(u, v)
        z, f = surface.ring.gen("z"), surface.ring.gen("f")
        assert _checked_pencil_delta(surface, 2 * z - u * f) == \
            vertex_pencil_form("tetragonal")["delta"].eval({"gR": u + v - 3, "v": v})
        quadric = surface_p1xp1()
        rs, rt = quadric.ring.gen("Rs"), quadric.ring.gen("Rt")
        assert _checked_pencil_delta(quadric, (half_g + 1) * rs + 3 * rt) == \
            vertex_pencil_form("trigonal")["delta"].eval({"gR": 2 * half_g})
        g = 2 * half_g + h % 2
        numeric = pentagonal_pencil_symbolic(g, k1)
        assert {name: numeric[name] for name in _PENTAGONAL_FORM_KEYS} == \
            _pentagonal_form_at(g, k1)

    def test_euler_route_agrees_on_all_surfaces(self):
        surfaces = [surface_p1xp1(), surface_hirzebruch(Poly.var("h")),
                    surface_tetragonal(Poly.var("u"), Poly.var("v"))]
        classes = []
        rs, rt = surfaces[0].ring.gen("Rs"), surfaces[0].ring.gen("Rt")
        classes.append(Poly.var("k") * rs + 3 * rt)
        tau, f = surfaces[1].ring.gen("tau"), surfaces[1].ring.gen("f")
        classes.append(2 * tau + f)
        z, fz = surfaces[2].ring.gen("z"), surfaces[2].ring.gen("f")
        classes.append(2 * z - Poly.var("u") * fz)
        for surface, cls in zip(surfaces, classes):
            assert pencil_delta_on_surface(surface, cls) == \
                pencil_delta_via_euler(surface, cls)

    def test_ring_mismatch(self):
        foreign = surface_hirzebruch(1).ring.gen("tau")
        with pytest.raises(RingMismatch):
            pencil_delta_on_surface(surface_p1xp1(), foreign)
        point = surface_p1xp1().ring.gen("Rs") * surface_p1xp1().ring.gen("Rt")
        with pytest.raises(RingMismatch, match="pencil class must be a divisor class"):
            pencil_delta_on_surface(surface_p1xp1(), point)

    def test_negative_genus_rejected(self):
        for evaluator in (trigonal_pencil_delta, hyperelliptic_pencil_delta,
                          tetragonal_pencil_delta):
            with pytest.raises(OutOfRange):
                evaluator(-1)
        with pytest.raises(OutOfRange):
            hyperelliptic_pencil_delta(-3)
        with pytest.raises(OutOfRange):
            partial_pencil_record("trigonal_plain", gr=-5)

    def test_derivation_check_survives_optimize(self, engine_env):
        # the jet-vs-Euler check runs once per process, so it must not be
        # an assert that `python -O` strips
        script = (
            "import hurwitzcalc.family_calc as fc\n"
            "from hurwitzcalc.errors import DerivationMismatch\n"
            "jet = fc.pencil_delta_on_surface\n"
            "fc.pencil_delta_via_euler = lambda s, c: jet(s, c) + 1\n"
            "try:\n"
            "    fc.trigonal_pencil_delta(4)\n"
            "except DerivationMismatch:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                env=engine_env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr


class TestTetragonalSurface:
    def test_c2_intermediate_and_final(self):
        u, v, g_r = Poly.var("u"), Poly.var("v"), Poly.var("gR")
        assert c2_omega_tetragonal_ambient_restricted(u, v, g_r) == \
            3 * v + 6 * u - 4 * g_r
        assert c2_omega_tetragonal_surface(u, v, g_r) == \
            3 * v + 6 * u - 4 * g_r - 8

    def test_delta_assembly(self):
        u, v = Poly.var("u"), Poly.var("v")
        surface = surface_tetragonal(u, v)
        z, f = surface.ring.gen("z"), surface.ring.gen("f")
        delta = pencil_delta_on_surface(surface, 2 * z - u * f)
        # substitute u = gR + 3 - v to land on the genus form
        g_r = Poly.var("gR")
        assert delta.subs({"u": g_r + 3 - v}) == v + 6 * g_r + 6

    def test_numeric_values(self):
        # v = ceil((g+3)/2): genus 5 gives v = 4, delta = 4 + 30 + 6
        assert tetragonal_pencil_delta(5) == 40
        assert tetragonal_pencil_delta(3) == 3 + 18 + 6

    def test_pencil_class_self_intersection(self):
        u, v = Poly.var("u"), Poly.var("v")
        surface = surface_tetragonal(u, v)
        z, f = surface.ring.gen("z"), surface.ring.gen("f")
        assert surface.dot(2 * z - u * f, 2 * z - u * f) == 4 * v

    def test_adjunction_genus(self):
        u, v = Poly.var("u"), Poly.var("v")
        surface = surface_tetragonal(u, v)
        z, f = surface.ring.gen("z"), surface.ring.gen("f")
        assert surface.adjunction_genus(2 * z - u * f) == u + v - 3


class TestPentagonalNumbers:
    def test_symbolic_pipeline(self):
        sym = pentagonal_pencil_symbolic()
        g, k1 = Poly.var("g"), Poly.var("k1")
        assert sym["lambda"] == 2 * g + 3 - k1
        assert sym["delta"] == 13 * g + 32 - 7 * k1
        assert sym["B"] == 5 * k1 - 3 * (g + 4)
        assert sym["K_fiber"] == g + 2 - k1

    def test_genus_sixteen(self):
        numbers = pentagonal_pencil_numbers(16)
        assert numbers == {"k1": 17, "B": 25, "lambda": 18, "delta": 121}

    def test_all_genera_up_to_forty(self):
        from hurwitzcalc.bundles import k1_pentagonal
        for g in range(2, 41):
            numbers = pentagonal_pencil_numbers(g)
            k1 = k1_pentagonal(g)
            assert numbers["lambda"] == 2 * g + 3 - k1
            assert numbers["delta"] == 13 * g + 32 - 7 * k1
            assert numbers["B"] == 5 * k1 - 3 * (g + 4)

    def test_genus_bound(self, monkeypatch):
        with pytest.raises(OutOfRange, match=r"^pentagonal pencils need genus >= 2$"):
            pentagonal_pencil_numbers(1)
        # the floor is the pentagonal row's, not a second constant
        row = PENCIL_TABLE["pentagonal_plain"]
        monkeypatch.setitem(PENCIL_TABLE, "pentagonal_plain",
                            PencilRow(row.vertex, row.sections, row.hits, row.params,
                                      min_gr=3))
        with pytest.raises(OutOfRange, match="genus >= 3"):
            pentagonal_pencil_numbers(2)


class TestPencilRecords:
    def test_trigonal_family(self):
        rec = partial_pencil_record("trigonal_unramified_3pts", gr=4)
        assert (rec.lam, rec.delta) == (4, 31)
        assert rec.boundary_hits == {"delta_self": -1, "delta_split": 1}
        assert rec.x_hit == ">=0"

    def test_trigonal_modified_families(self):
        assert partial_pencil_record("trigonal_ramified_21", gr=4).delta == 32
        assert partial_pencil_record("trigonal_triple", gr=4).delta == 33

    def test_hyperelliptic_families(self):
        assert partial_pencil_record("hyperelliptic_3vertex", gr=4).delta == 34
        assert partial_pencil_record("hyperelliptic_4vertex", gr=4).delta == 35

    def test_tetragonal_families(self):
        rec = partial_pencil_record("tetragonal_ramified_2pp", gr=3)
        assert rec.delta == 3 + 21        # v + 6gR + 3 at v = 3
        assert rec.boundary_hits["delta_ram"] == 1
        rec = partial_pencil_record("tetragonal_unramified_4pts", gr=3)
        assert rec.delta == 3 + 20

    def test_plain_pencils(self):
        assert partial_pencil_record("trigonal_plain", gr=4).delta == 34
        assert partial_pencil_record("tetragonal_plain", gr=5).delta == 40

    def test_pentagonal_partial(self):
        rec = partial_pencil_record("pentagonal_unramified_5pts", gr=16, g=36)
        assert rec.lam == 18
        assert rec.delta == 116          # plain 121 minus five sections
        assert rec.maroni_hit == 2       # k_R + m_R at genus 16
        assert rec.ce_hit == 0
        assert rec.x_hit == Fraction(2 * 36 - 22, 5) * 2
        assert rec.notes

    def test_pentagonal_basechange(self):
        rec = partial_pencil_record("pentagonal_basechange", gr=16, g=36)
        assert rec.lam == 120 * 18
        assert rec.delta == 120 * 121 - 2400
        assert rec.boundary_hits["delta_self"] == -1080
        assert rec.boundary_hits["delta_collision"] == 600
        assert rec.extras["sectionSelfInt"] == -120
        assert rec.extras["sectionPairInt"] == 60

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            partial_pencil_record("hexagonal_plain", gr=2)
        with pytest.raises(UnknownKind, match="hexagonal"):
            vertex_pencil_form("hexagonal")

    def test_pentagonal_records_need_total_genus(self):
        for kind in ("pentagonal_unramified_5pts", "pentagonal_basechange"):
            with pytest.raises(OutOfRange, match="total genus"):
                partial_pencil_record(kind, gr=16)

    def test_records_need_vertex_genus(self):
        for kind in PENCIL_KINDS:
            if kind != "rational_partial":
                with pytest.raises(OutOfRange, match="vertex genus gr"):
                    partial_pencil_record(kind, g=36)

    @pytest.mark.parametrize("kind,params,unused", [
        ("trigonal_plain", {"gr": 4, "dv": 7, "g": 99}, "dv, g"),
        ("rational_partial", {"gr": 9}, "gr"),
        ("hyperelliptic_4vertex", {"gr": 2, "g": 10}, "g"),
        # fields a record derives and prints, not inputs
        ("tetragonal_plain", {"gr": 5, "v": 99}, "v"),
        ("pentagonal_plain", {"gr": 5, "k1": 99}, "k1"),
        ("pentagonal_unramified_5pts", {"gr": 16, "g": 36, "kR": 99}, "kR"),
    ])
    def test_records_reject_keywords_their_row_does_not_take(self, kind, params, unused):
        with pytest.raises(OutOfRange, match=f"{kind} records take no {unused}$"):
            partial_pencil_record(kind, **params)

    def test_sweeping_records_never_store_negative_special_hits(self):
        with pytest.raises(ValueError):
            PencilRecord("x", {}, Fraction(0), Fraction(0), {},
                         maroni_hit=Fraction(-1), sweeps=True)

    def test_negative_total_genus_is_out_of_range(self):
        with pytest.raises(OutOfRange):
            partial_pencil_record("pentagonal_unramified_5pts", gr=2, g=-7)
        with pytest.raises(OutOfRange):
            partial_pencil_record("pentagonal_basechange", gr=16, g=-36)
        with pytest.raises(OutOfRange):
            pentagonal_basechange_profile_record(-5, 3, (2, 2, 1))

    def test_total_genus_below_vertex_genus_is_out_of_range(self):
        # a two-vertex graph has g >= gR
        with pytest.raises(OutOfRange, match="vertex genus gr = 30, got 2"):
            partial_pencil_record("pentagonal_unramified_5pts", gr=30, g=2)
        with pytest.raises(OutOfRange, match="vertex genus gr = 16, got 0"):
            partial_pencil_record("pentagonal_basechange", gr=16, g=0)
        with pytest.raises(OutOfRange, match="vertex genus gr = 3, got 2"):
            pentagonal_basechange_profile_record(2, 3, (2, 2, 1))
        assert partial_pencil_record("pentagonal_basechange", gr=16, g=16).params["g"] == 16

    def test_json_round_trip(self):
        rec = partial_pencil_record("pentagonal_basechange", gr=16, g=36)
        assert PencilRecord.from_json(rec.to_json()) == rec

    def test_json_round_trip_preserves_nonnegativity_tags(self):
        rec = partial_pencil_record("trigonal_unramified_3pts", gr=4)
        rebuilt = PencilRecord.from_json(rec.to_json())
        assert rebuilt == rec
        assert rebuilt.x_hit == ">=0" and rebuilt.maroni_hit == ">=0"


class TestBasechangeBookkeeping:
    def test_degree_five(self):
        books = basechange_section_bookkeeping(5, 10, (2, 1, 1, 1))
        assert books["pairInt"] == 60
        assert books["selfInt"] == -120
        assert books["blownSelfInt"] == -1080
        assert books["lcmOrder"] == 2

    def test_degenerate_profile_lcm(self):
        assert basechange_section_bookkeeping(5, 10, (5,))["lcmOrder"] == 5
        assert basechange_section_bookkeeping(4, 6, (4,))["lcmOrder"] == 4

    def test_degree_two(self):
        books = basechange_section_bookkeeping(2, 2, (2,))
        assert books["pairInt"] == 2
        # the recorded convention solves (sum of sections)^2 = 0 as
        # -(total meetings)/d, giving -1 here
        assert books["selfInt"] == -1

    def test_invalid_profile(self):
        with pytest.raises(InvalidProfile):
            basechange_section_bookkeeping(5, 10, (3, 3))
        with pytest.raises(InvalidProfile):
            basechange_section_bookkeeping(5, 10, ())
        with pytest.raises(InvalidProfile, match="need degree >= 2"):
            basechange_section_bookkeeping(1, 0, (1,))

    def test_profile_record_domain(self):
        with pytest.raises(InvalidProfile, match="the profile must carry ramification"):
            pentagonal_basechange_profile_record(36, 16, (1, 1, 1, 1, 1))
        with pytest.raises(OutOfRange, match="base-change families need genus >= 1"):
            pentagonal_basechange_profile_record(36, 0, (2, 1, 1, 1))

    def test_profile_record_generalization(self):
        # the profile-independent parts: self-intersection -9 * 5!, delta
        # correction 20 * 5!, and the two boundary hit counts
        rec = pentagonal_basechange_profile_record(36, 16, (3, 2))
        assert rec.boundary_hits["delta_self"] == -1080
        assert rec.boundary_hits["delta_profile"] == Fraction(120, 6)
        assert rec.boundary_hits["delta_collision"] == Fraction(7 * 120, 2)
        assert rec.delta == 120 * 121 - 2400
        simple = pentagonal_basechange_profile_record(36, 16, (2, 1, 1, 1))
        quoted = partial_pencil_record("pentagonal_basechange", gr=16, g=36)
        total_hits = (simple.boundary_hits["delta_profile"]
                      + simple.boundary_hits["delta_collision"])
        assert total_hits == quoted.boundary_hits["delta_collision"]
        assert simple.lam == quoted.lam and simple.delta == quoted.delta

    @pytest.mark.parametrize("profile,hit,collisions", [
        ((2, 1, 1, 1), 60, 540), ((2, 2, 1), 60, 480), ((3, 1, 1), 40, 480),
        ((3, 2), 20, 420), ((4, 1), 30, 420), ((5,), 24, 360)])
    def test_profile_record_genus_one(self, profile, hit, collisions):
        # genus one evaluates the same symbolic form: k_R = 5, m_R = -3,
        # lambda = 0 and delta = 10 per family before the base change
        for g, x_hit in ((16, 480), (36, 2400)):
            rec = pentagonal_basechange_profile_record(g, 1, profile)
            assert rec.params == {"gr": 1, "g": g, "kR": 5, "mR": -3}
            assert (rec.lam, rec.delta) == (0, -1200)
            assert rec.boundary_hits == {"delta_self": -1080,
                                         "delta_profile": hit,
                                         "delta_collision": collisions}
            assert (rec.x_hit, rec.maroni_hit, rec.ce_hit) == (x_hit, 240, 0)
