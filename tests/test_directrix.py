import subprocess
import sys
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzcalc import chow, directrix
from hurwitzcalc.bundles import SplittingType, k1_pentagonal, m_r_pentagonal
from hurwitzcalc.chow import (ChowClass, expansion_ring, grr_degree_on_p1xp1, ring_p1xp1,
                              ring_product_with_p1, ring_proj_space)
from hurwitzcalc.directrix import (DirectrixFamily, directrix_pushforward_degree,
                                   maroni_intersection_pentagonal,
                                   perfectly_balanced_jump_count,
                                   rotating_directrix_class,
                                   rotating_directrix_closed_form)
from hurwitzcalc.errors import InvalidFamily, OutOfRange
from hurwitzcalc.symkernel import Poly


class TestPipelineInstances:
    def test_flagship_instance(self):
        fam = DirectrixFamily(5, 2, 2, 1)
        cls = rotating_directrix_class(fam)
        ring = cls.ring
        h, f = ring.gen("H"), ring.gen("F")
        assert cls == h ** 3 + 4 * h ** 2 * f

    def test_degree_zero_rotation(self):
        fam = DirectrixFamily(5, 2, 3, -4)      # a = -l - 1
        cls = rotating_directrix_class(fam)
        h = cls.ring.gen("H")
        assert cls == h ** 3

    def test_smallest_admissible_size(self):
        fam = DirectrixFamily(4, 1, 0, 0)
        cls = rotating_directrix_class(fam)
        h, f = cls.ring.gen("H"), cls.ring.gen("F")
        assert cls == h ** 3 + h ** 2 * f

    def test_pushforward_degree_is_minus_a_minus_l(self):
        for n, r, a, l in ((4, 1, 3, -2), (5, 3, -1, 2), (6, 2, 0, 0)):
            fam = DirectrixFamily(n, r, a, l)
            assert directrix_pushforward_degree(fam) == Poly.const(-a - l)

    def test_invalid_families(self):
        with pytest.raises(InvalidFamily):
            DirectrixFamily(5, 4, 0, 0)         # r must stay below N-1
        with pytest.raises(InvalidFamily):
            DirectrixFamily(2, 1, 0, 0)


def test_exhaustive_small_window():
    for n in range(3, 7):
        for r in range(1, n - 1):
            for a in range(-3, 4):
                for l in range(-3, 4):
                    fam = DirectrixFamily(n, r, a, l)
                    assert rotating_directrix_class(fam) == \
                        rotating_directrix_closed_form(fam)


_SHAPE = st.integers(3, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 2)))
_TWIST = st.integers(-40, 40)


@settings(max_examples=30, deadline=None)
@given(_SHAPE, _TWIST, _TWIST)
def test_class_form_commutes_with_evaluation(shape, a, l):
    # the class derived once with a and l symbolic, at (a, l), equals the
    # steps of its derivation re-run with the numbers a and l
    n, r = shape
    quadric = ring_p1xp1()
    rs, rt = quadric.gen("Rs"), quadric.gen("Rt")
    c1_w = (Poly.var("degV") + a) * rs + rt
    c2_w = ((a * rs + rt) * c1_w).integrate()
    c1_l = -(l + 1) * rs
    c1_tw = c1_w + (n - 1) * c1_l
    c2_tw = (c2_w + (n - 2) * (c1_w * c1_l).integrate()
             + comb(n - 1, 2) * (c1_l * c1_l).integrate())
    degree = grr_degree_on_p1xp1(c1_tw, c2_tw)
    assert degree == directrix_pushforward_degree(DirectrixFamily(n, r, a, l))

    generic = (l,) * r + (l + 1,) * (n - 1 - r)
    kernel_rank = SplittingType(tuple(x - (l + 1) for x in generic)).h0()
    ring = expansion_ring(square_zero=("Rs", "Rt"), free=("zeta",))
    zeta, rs, rt = ring.gen("zeta"), ring.gen("Rs"), ring.gen("Rt")
    eta = zeta - (l + 1) * rs
    directrix_in_quotient = eta ** kernel_rank - degree * rt * eta ** (kernel_rank - 1)
    swept = directrix_in_quotient * (zeta + a * rs + rt) * rs
    product = ring_product_with_p1(ring_proj_space(n - 1))
    numeric = product.cls({(zexp, rt_exp): coeff
                           for (zexp, _, rt_exp), coeff in swept.terms.items()})
    assert numeric == rotating_directrix_class(DirectrixFamily(n, r, a, l))


class TestOneDerivationPerShape:
    def test_second_family_runs_no_pipeline_step(self, monkeypatch):
        calls = []
        real = directrix.grr_degree_on_p1xp1

        def counting(c1, c2):
            calls.append((c1, c2))
            return real(c1, c2)

        monkeypatch.setattr(directrix, "grr_degree_on_p1xp1", counting)
        directrix._degree_form.cache_clear()
        directrix._class_form.cache_clear()
        first = DirectrixFamily(6, 3, 1, 2)
        assert rotating_directrix_class(first) == rotating_directrix_closed_form(first)
        assert len(calls) == 1
        second = DirectrixFamily(6, 3, -4, 5)
        assert rotating_directrix_class(second) == rotating_directrix_closed_form(second)
        assert directrix_pushforward_degree(second) == Poly.const(-1)
        assert perfectly_balanced_jump_count(6, -4, 5) == 2
        assert len(calls) == 1

    def test_family_class_builds_one_poly_per_term(self, polys_counted):
        fam = DirectrixFamily(5, 2, 2, 1)
        rotating_directrix_class(fam)
        polys_counted.clear()
        rotating_directrix_class(fam)
        assert len(polys_counted) <= 2

    def test_warm_family_constants_are_shared(self, polys_counted):
        # the op of the benchmark's directrix grid reads five constants: the
        # degree, and the two coefficients of the evaluated and of the
        # closed-form class
        fam = DirectrixFamily(5, 2, -3, 4)

        def op():
            directrix_pushforward_degree(fam)
            assert rotating_directrix_class(fam) == rotating_directrix_closed_form(fam)
        op()
        polys_counted.clear()
        op()
        built = list(polys_counted)
        values = [poly.terms[()] for poly in built]
        assert values == [-1, 1, 2, 1, 2]
        assert all(poly is Poly.const(value) for poly, value in zip(built, values))

    def test_warm_family_builds_no_fraction(self, objects_built):
        # the op of the benchmark's directrix grid; 3 when the degree and
        # each class coefficient were read through Poly.eval
        op = ("directrix_pushforward_degree(fam)\n"
              "assert rotating_directrix_class(fam) == rotating_directrix_closed_form(fam)\n")
        warm_up = ("from hurwitzcalc.directrix import (DirectrixFamily,\n"
                   "    directrix_pushforward_degree, rotating_directrix_class,\n"
                   "    rotating_directrix_closed_form)\n"
                   "fam = DirectrixFamily(5, 2, 2, 1)\n" + op)
        assert objects_built(op, warm_up)["Fraction"] == 0

    def test_warm_family_builds_no_ring(self):
        # the op of the benchmark's directrix grid, at a new point of a
        # warm shape: every ring it reads is already interned
        def op(fam):
            directrix_pushforward_degree(fam)
            assert rotating_directrix_class(fam) == rotating_directrix_closed_form(fam)
        op(DirectrixFamily(5, 2, 2, 1))
        built = len(chow._RINGS)
        op(DirectrixFamily(5, 2, 7, -3))
        assert len(chow._RINGS) == built

    def test_derivation_check_survives_optimize(self, engine_env):
        # the pipeline is checked once per shape, so the check must not be
        # an assert that `python -O` strips
        script = (
            "import hurwitzcalc.directrix as dx\n"
            "from hurwitzcalc.errors import DerivationMismatch\n"
            "real = dx.grr_degree_on_p1xp1\n"
            "dx.grr_degree_on_p1xp1 = lambda c1, c2: real(c1, c2) + 1\n"
            "try:\n"
            "    dx.rotating_directrix_class(dx.DirectrixFamily(5, 2, 2, 1))\n"
            "except DerivationMismatch:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                env=engine_env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr


class TestPerfectlyBalanced:
    def test_count_is_still_a_plus_l_plus_one(self):
        for n in (3, 4, 5, 6):
            for a in range(-4, 5):
                for l in range(-4, 5):
                    assert perfectly_balanced_jump_count(n, a, l) == a + l + 1
        a, l = Poly.var("a"), Poly.var("l")
        assert perfectly_balanced_jump_count(5, a, l) == a + l + 1

    def test_needs_three_quotients(self):
        with pytest.raises(InvalidFamily, match="need N >= 3"):
            perfectly_balanced_jump_count(2, 0, 0)


def test_pairing_against_general_linear_subspace():
    # the rotation degree is read off by pairing with H^2 inside the
    # product ring: N = 5, r = 2, a = 2, l = 1 meets a general plane at
    # a + l + 1 = 4 parameter values
    fam = DirectrixFamily(5, 2, 2, 1)
    swept = rotating_directrix_class(fam)
    h = swept.ring.gen("H")
    assert (swept * h ** 2).integrate() == Poly.const(4)


class TestMaroniIntersection:
    def test_pinned_values(self):
        assert maroni_intersection_pentagonal(16) == 2       # 17 - 15
        assert maroni_intersection_pentagonal(36) == 4       # 34 - 30

    def test_equals_ceiling_sum_on_a_range(self):
        for g_r in range(2, 60):
            expected = k1_pentagonal(g_r) + m_r_pentagonal(g_r)
            assert maroni_intersection_pentagonal(g_r) == expected

    def test_negative_genus_is_out_of_range(self):
        with pytest.raises(OutOfRange):
            maroni_intersection_pentagonal(-5)
        assert maroni_intersection_pentagonal(0) == k1_pentagonal(0) + m_r_pentagonal(0)

    def test_nonnegative_on_admissible_range(self):
        for g_r in range(2, 80):
            assert maroni_intersection_pentagonal(g_r) >= 0

    def test_second_genus_only_evaluates_the_form(self, monkeypatch):
        # g_r = 16 has perfectly balanced quotients; g_r = 17 has three
        # minimal summands, which once built a family and its class per call
        assert maroni_intersection_pentagonal(16) == 2
        built, checked = [], []
        for cls in (ChowClass, DirectrixFamily):
            def counting_init(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counting_init)

        def recording_require(cond, what, _require=directrix.require):
            checked.append(what)
            _require(cond, what)

        monkeypatch.setattr(directrix, "require", recording_require)
        assert maroni_intersection_pentagonal(17) == 3       # 18 - 15
        assert built == []
        assert checked == ["m_R is the balanced upper twist at g_r = 17"]

    @pytest.mark.parametrize("route", ["class", "jump"])
    def test_route_off_by_one_fails_under_optimize(self, route, engine_env):
        # the routes are compared once per process, so the check must not
        # be an assert that `python -O` strips
        sabotage = {
            "class": "real = dx._class_form\n"
                     "dx._class_form = lambda n, r: real(n, r) + (r == 2) * "
                     "real(n, r).ring.gen('H') ** 2 * real(n, r).ring.gen('F')\n",
            "jump": "real = dx.perfectly_balanced_jump_count\n"
                    "dx.perfectly_balanced_jump_count = lambda n, a, l: real(n, a, l) + 1\n"}
        script = (
            "import hurwitzcalc.directrix as dx\n"
            "from hurwitzcalc.errors import DerivationMismatch\n"
            + sabotage[route] +
            "try:\n"
            "    dx.maroni_intersection_pentagonal(16)\n"
            "except DerivationMismatch as exc:\n"
            "    print(exc)\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                env=engine_env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert "Maroni rotation counts" in result.stdout
        assert "kR + mR + 1" in result.stdout
