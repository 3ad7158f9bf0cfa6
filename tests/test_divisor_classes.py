from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzcalc import divisor_classes
from hurwitzcalc.divisor_classes import (admissible_genus,
                                         bogomolov, bogomolov_from_ch2,
                                         ce_class, ce_class_from_bogomolov,
                                         class_x, maroni_class,
                                         maroni_class_from_bogomolov,
                                         slope_bound)
from hurwitzcalc.errors import (CongruenceViolation, DegenerateDenominator,
                                DerivationMismatch, NotDivisorial)
from hurwitzcalc.symkernel import Poly, RationalFunction
from hurwitzcalc.yeff import slope_normalization


class TestMaroniClass:
    def test_trigonal_genus_four_coefficients(self):
        values = maroni_class(3).eval_at(4)     # b = 12
        assert values["lambda"] == 17
        assert values["delta"] == -2
        assert values["D"] == Fraction(1, 2)

    def test_trigonal_slope_symbolically(self):
        cls = maroni_class(3)
        g = Poly.var("g")
        ratio = cls.lambda_coef / (-cls.delta_coef)
        assert ratio == RationalFunction(7 * g + 6, g)

    def test_d_coefficient_signs(self):
        for d, step, start in ((4, 6, 9), (5, 20, 16)):
            for g in range(start, start + 5 * step, step):
                assert maroni_class(d).eval_at(g)["D"] > 0
                assert ce_class(d).eval_at(g)["D"] < 0

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            maroni_class(3).eval_at(3)          # g + d = 6

    def test_ce_requires_degree_four(self):
        with pytest.raises(NotDivisorial):
            ce_class(3)

    def test_maroni_requires_degree_three(self):
        with pytest.raises(NotDivisorial, match="need d >= 3"):
            maroni_class(2)


class TestBogomolov:
    def test_rank_two_centered(self):
        c2 = Poly.var("c2")
        assert bogomolov(2, 0, c2) == c2

    def test_tensor_invariance(self):
        # G tensor L: c1 -> c1 + r t, c2 -> c2 + (r-1) t c1 + C(r,2) t^2
        from math import comb
        c1, c2, t = Poly.var("c1"), Poly.var("c2"), Poly.var("t")
        for rank in (2, 3, 5):
            twisted_c1 = c1 + rank * t
            twisted_c2 = c2 + (rank - 1) * t * c1 + comb(rank, 2) * t * t
            assert bogomolov(rank, twisted_c1, twisted_c2) == bogomolov(rank, c1, c2)

    def test_ch2_form_agrees(self):
        c1, ch2 = Poly.var("c1"), Poly.var("ch2")
        for rank in (2, 3, 4):
            via_c2 = bogomolov(rank, c1, c1 * c1 / 2 - ch2)
            assert via_c2 == bogomolov_from_ch2(rank, ch2, c1 * c1)

    def test_ch2_form_takes_rational_functions(self):
        g = Poly.var("g")
        ch2, c1sq = RationalFunction(g, g + 1), RationalFunction(g * g, g - 1)
        for a, b in ((ch2, c1sq), (ch2, g * g), (g, c1sq), (1, c1sq)):
            got = bogomolov_from_ch2(3, a, b)
            assert isinstance(got, RationalFunction)
            assert got == RationalFunction.coerce(b) / 6 - a
        for a, b in ((g, g * g), (1, 2), (Fraction(1, 2), g)):
            assert isinstance(bogomolov_from_ch2(3, a, b), Poly)
        assert bogomolov_from_ch2(2, Fraction(1, 2), 3) == Poly.const(Fraction(1, 4))


class TestBogomolovRoute:
    def test_cross_check_runs_the_public_expression(self, monkeypatch):
        # both rederived classes go through bogomolov_from_ch2, at rank d-1
        # for M and at the rank d(d-3)/2 of the bundle of quadrics for CE
        ranks = []
        real = divisor_classes.bogomolov_from_ch2

        def recording(rank, ch2, c1sq):
            ranks.append(rank)
            return real(rank, ch2, c1sq)
        monkeypatch.setattr(divisor_classes, "bogomolov_from_ch2", recording)
        maroni_class_from_bogomolov(4)
        assert set(ranks) == {3}
        ranks.clear()
        ce_class_from_bogomolov(5)
        assert set(ranks) == {5}

    def test_maroni_class_derives_from_bogomolov(self):
        for d in (3, 4, 5):
            printed, derived = maroni_class(d), maroni_class_from_bogomolov(d)
            assert printed.lambda_coef == derived.lambda_coef
            assert printed.delta_coef == derived.delta_coef
            assert printed.d_coef == derived.d_coef

    def test_domain_errors(self):
        with pytest.raises(NotDivisorial, match="rank must be positive"):
            bogomolov(0, 1, 1)
        with pytest.raises(NotDivisorial, match="the bundle of quadrics needs d >= 4"):
            ce_class_from_bogomolov(3)

    def test_ce_class_derives_from_bogomolov(self):
        for d in (4, 5):
            printed, derived = ce_class(d), ce_class_from_bogomolov(d)
            assert printed.lambda_coef == derived.lambda_coef
            assert printed.delta_coef == derived.delta_coef
            assert printed.d_coef == derived.d_coef


class TestClassX:
    def test_d_coefficient_eliminated(self):
        for d in (3, 4, 5):
            assert class_x(d)["X"].d_coef.is_zero()

    def test_ratios(self):
        g = Poly.var("g")
        expected = {3: RationalFunction(7 * g + 6, g),
                    4: RationalFunction(13 * g + 15, 2 * g),
                    5: RationalFunction(31 * g + 44, 5 * g)}
        for d in (3, 4, 5):
            data = class_x(d)
            assert data["a"] / data["b"] == expected[d]

    def test_pinned_normalizations(self):
        g = Poly.var("g")
        data = class_x(5)
        assert data["a"] == (31 * g + 44) / 10
        assert data["b"] == g / 2
        assert data["weightM"] == (2 * g - 22) / 5
        data = class_x(4)
        assert data["a"] == Poly.coerce(13 * g + 15)
        assert data["b"] == 2 * g

    def test_weights_positive_at_admissible_genera(self):
        for d, sample in ((4, (9, 15, 21)), (5, (16, 36, 56))):
            data = class_x(d)
            for g in sample:
                assert data["weightM"].eval({"g": g}) > 0
                assert data["weightCE"].eval({"g": g}) > 0

    def test_trigonal_case_is_maroni_multiple(self):
        data = class_x(3)
        assert data["weightCE"].is_zero()
        g = Poly.var("g")
        assert data["weightM"] == Poly.coerce(2 * g - 6)   # the b - 10 rescale

    def test_rejects_other_degrees(self):
        with pytest.raises(NotDivisorial):
            class_x(6)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(3, 4, 2), (4, 3, 6), (5, 16, 20)]), st.integers(0, 500))
    def test_class_x_commutes_with_evaluation(self, progression, k):
        # X derived once with g symbolic, at an admissible g, equals the
        # combination of M and CE taken after evaluating at g, with D = 0
        d, first, step = progression
        g = first + step * k
        assert admissible_genus(d, g)
        data = class_x(d)
        weight_m, weight_ce = data["weightM"].eval({"g": g}), data["weightCE"].eval({"g": g})
        m = maroni_class(d).eval_at(g)
        ce = ce_class(d).eval_at(g) if d > 3 else {"lambda": 0, "delta": 0, "D": 0}
        x = data["X"].eval_at(g)
        assert x["D"] == 0
        for name in ("lambda", "delta"):
            assert x[name] == weight_m * m[name] + weight_ce * ce[name]
        if d > 3:
            assert weight_m * m["D"] + weight_ce * ce["D"] == 0


class TestSlopeBound:
    def test_pinned_values(self):
        assert slope_bound(3, 4) == Fraction(17, 2)
        assert slope_bound(4, 9) == Fraction(22, 3)
        assert slope_bound(5, 16) == Fraction(27, 4)

    def test_symbolic_forms(self):
        g = Poly.var("g")
        assert class_x(3)["a"] / class_x(3)["b"] == 7 + RationalFunction(6, g)
        assert class_x(4)["a"] / class_x(4)["b"] == \
            Fraction(13, 2) + RationalFunction(15, 2 * g)
        assert class_x(5)["a"] / class_x(5)["b"] == \
            Fraction(31, 5) + RationalFunction(44, 5 * g)

    def test_matches_class_ratio_up_to_genus_one_hundred(self):
        for d in (3, 4, 5):
            data = class_x(d)
            for g in range(4, 101):
                if not admissible_genus(d, g):
                    continue
                ratio = data["a"].eval({"g": g}) / data["b"].eval({"g": g})
                assert slope_bound(d, g) == ratio

    def test_congruence_violations(self):
        with pytest.raises(CongruenceViolation):
            slope_bound(3, 5)
        with pytest.raises(CongruenceViolation):
            slope_bound(4, 10)
        with pytest.raises(CongruenceViolation):
            slope_bound(5, 17)

    def test_disagreeing_domains_are_an_engine_bug(self, monkeypatch):
        # admissible_genus implies divisorial_conditions, so only an engine
        # bug can make the second check fail
        monkeypatch.setattr(divisor_classes, "divisorial_conditions",
                            lambda d, g: {"maroni": True, "ce": False})
        assert slope_bound(3, 4) == Fraction(17, 2)
        with pytest.raises(DerivationMismatch, match="admissible_genus and divisorial_conditions"):
            slope_bound(4, 9)


class TestCache:
    def test_slope_bounds_derive_class_x_once(self):
        class_x.cache_clear()
        for g in range(4, 204, 2):
            slope_bound(3, g)
        info = class_x.cache_info()
        assert (info.misses, info.hits) == (1, 99)

    def test_slope_normalization_reads_the_same_cache(self):
        class_x.cache_clear()
        a, b = slope_normalization(4)
        assert (a, b) == (class_x(4)["a"], class_x(4)["b"])
        assert class_x.cache_info().misses == 1
        assert not hasattr(slope_normalization, "cache_info")

    def test_cached_classes_are_read_only(self):
        assert maroni_class(4) is maroni_class(4) and ce_class(5) is ce_class(5)
        with pytest.raises(TypeError):
            class_x(3)["a"] = 0


class TestDivisorClassSerialization:
    def test_json_shape(self):
        data = maroni_class(4).to_json()
        assert set(data) == {"lambda", "delta", "D", "boundary"}

    def test_scaling_and_sum(self):
        m = maroni_class(4)
        doubled = m.scale(2)
        assert doubled.lambda_coef == m.lambda_coef * 2
        total = m.plus(m)
        assert total.delta_coef == m.delta_coef * 2
