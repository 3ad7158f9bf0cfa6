from fractions import Fraction
from math import comb

import pytest

from hurwitzcalc.errors import NotDivisorial
from hurwitzcalc.family_calc import hyperelliptic_pencil_delta, trigonal_pencil_delta
from hurwitzcalc.symkernel import Poly
from hurwitzcalc.yeff import (Certificate, build_rules, certify,
                              check_closed_form_d4, multivertex_margin,
                              pentagonal_step_term, replay,
                              slope_normalization, symbolic_slack,
                              symbolic_slack_threevertex)

ACCEPTANCE_PAIRS = ((3, 4), (3, 6), (3, 8), (4, 9), (4, 15), (5, 16), (5, 36))


class TestSymbolicSlacks:
    def test_trigonal_unramified(self):
        g, g_r = Poly.var("g"), Poly.var("gR")
        assert symbolic_slack(3, (1, 1, 1)) == 3 * g - 6 * g_r

    def test_trigonal_simple_ramification(self):
        g, g_r = Poly.var("g"), Poly.var("gR")
        assert symbolic_slack(3, (2, 1)) == 4 * g - 6 * g_r

    def test_trigonal_triple_ramification(self):
        # the intersect-with-X derivation from the recorded numbers; note
        # that the digit-transposed variant 6g - 5gR is NOT what the record
        # produces
        g, g_r = Poly.var("g"), Poly.var("gR")
        derived = symbolic_slack(3, (3,))
        assert derived == 5 * g - 6 * g_r
        assert derived != 6 * g - 5 * g_r

    def test_three_and_four_vertex_slacks(self):
        g, g_r = Poly.var("g"), Poly.var("gR")
        assert symbolic_slack_threevertex("threevertex") == g * (g_r + 2) - 6 * g_r
        assert symbolic_slack_threevertex("fourvertex") == g * (g_r + 3) - 6 * g_r

    def test_tetragonal_per_step(self):
        g, g_r, v = Poly.var("g"), Poly.var("gR"), Poly.var("v")
        slack = symbolic_slack(4, (1, 1, 1, 1))
        assert slack == 2 * g * (v + 6 * g_r + 2) - (13 * g + 15) * g_r
        assert slack.subs({"v": (g_r + 3) / 2}) == 7 * g - 15 * g_r

    def test_tetragonal_ramified_step(self):
        g, g_r = Poly.var("g"), Poly.var("gR")
        relaxed = symbolic_slack(4, (2, 1, 1)).subs({"v": (g_r + 3) / 2})
        assert relaxed == 9 * g - 15 * g_r

    def test_pentagonal_term_kr_coefficient_cancels(self):
        g = Poly.var("g")
        a = (31 * g + 44) / 10
        b = g / 2
        w = (2 * g - 22) / 5
        k_r_coefficient = -7 * b + a + w
        assert k_r_coefficient.is_zero()

    def test_pentagonal_term_relaxation_is_lemma_bound(self):
        g, g_r, k_r, m_r = (Poly.var(n) for n in ("g", "gR", "kR", "mR"))
        a = (31 * g + 44) / 10
        b = g / 2
        w = (2 * g - 22) / 5
        term = (b * (13 * g_r + 27 - 7 * k_r) - a * (2 * g_r + 3 - k_r)
                + w * (k_r + m_r))
        relaxed = term.subs({"mR": -3 * (g_r + 4) / 4})
        assert relaxed == 3 * g - Fraction(11, 2) * g_r

    def test_pentagonal_term_dominates_lemma_bound(self):
        for g in (16, 36):
            a_p, b_p = slope_normalization(5)
            a, b = a_p.eval({"g": g}), b_p.eval({"g": g})
            for g_r in range(0, g // 2):
                term = pentagonal_step_term(g, g_r, a, b)
                assert term >= 3 * g - Fraction(11, 2) * g_r


class TestSummedInequality:
    def test_sum_equals_closed_form_symbolically(self):
        a, b = Poly.var("a"), Poly.var("b")
        for k in (0, 1, 2):
            for i in range(0, 13):
                total = Poly.const(0)
                for l in range(1, i + 1):
                    v_l = Fraction(3 * l + k + 3, 2)
                    total = total + (18 * b - 3 * a) * l + b * v_l
                total = total + (6 * b * k + 2 * b - k * a) * i
                closed = (3 * (Fraction(13, 2) * b - a) * comb(i + 1, 2)
                          + ((Fraction(13, 2) * k + Fraction(7, 2)) * b - k * a) * i)
                assert total == closed

    def test_closed_form_nonnegative(self):
        assert check_closed_form_d4(9)
        assert check_closed_form_d4(15)
        assert check_closed_form_d4(57)

    def test_zero_at_i_zero(self):
        # the i = 0 instance of the closed form is identically zero
        a = Fraction(13 * 9 + 15)
        b = Fraction(18)
        for k in (0, 1, 2):
            value = (3 * (Fraction(13, 2) * b - a) * comb(1, 2)
                     + ((Fraction(13, 2) * k + Fraction(7, 2)) * b - k * a) * 0)
            assert value == 0


class TestRules:
    def test_unramified_step_instance(self):
        # (d, g) = (3, 6), right genus 1: slack 3g - 6gR = 12
        from hurwitzcalc.graphs import canonical_label, two_vertex_graph
        rules = build_rules(3, 6)
        label = canonical_label(two_vertex_graph(3, (1, 1, 1), 3, 1))
        assert rules[label].slack == 12

    def test_rules_come_from_records(self):
        from hurwitzcalc.family_calc import partial_pencil_record
        a_p, b_p = slope_normalization(3)
        a, b = a_p.eval({"g": 6}), b_p.eval({"g": 6})
        rules = build_rules(3, 6)
        for graph_label, rule in rules.items():
            if "unramified" in rule.provenance and "degree-3" in rule.provenance:
                # recover gR from the slack: slack = b(7gR+3) - a gR
                g_r = (b * 3 - rule.slack) / (a - 7 * b)
                rec = partial_pencil_record("trigonal_unramified_3pts",
                                            gr=int(g_r))
                assert rule.slack == b * rec.delta - a * rec.lam

    def test_pentagonal_composite_coefficient(self):
        rules = build_rules(5, 16)
        by_profile = {}
        for rule in rules.values():
            if "base-change composite" in rule.provenance:
                profile = rule.provenance.split("composite ")[1]
                by_profile.setdefault(profile, rule)
        full = by_profile["(5,)"]
        assert full.targets[0][1] == Fraction(9 * 5 * 4, 10)
        simple = by_profile["(2, 1, 1, 1)"]
        assert simple.targets[0][1] == Fraction(9, 5)
        assert not simple.reconstructed
        assert full.reconstructed

    def test_reconstructed_rules_are_marked(self):
        rules = build_rules(4, 9)
        deep = [r for r in rules.values() if "(2, 2)" in r.provenance
                or "(3, 1)" in r.provenance or "(4,)" in r.provenance]
        assert deep and all(r.reconstructed for r in deep)
        quoted = [r for r in rules.values() if "(2, 1, 1)" in r.provenance]
        assert quoted and all(not r.reconstructed for r in quoted)


class TestCertification:
    @pytest.mark.parametrize("d,g", ACCEPTANCE_PAIRS)
    def test_certifies(self, d, g):
        cert = certify(d, g)
        assert cert.certified
        assert all(res.lower_bound >= 0 for res in cert.per_graph.values())

    def test_rejects_inadmissible(self):
        with pytest.raises(NotDivisorial):
            certify(4, 10)

    def test_scale_invariance(self):
        for scale in (Fraction(7, 3), Fraction(5)):
            base = certify(3, 6)
            scaled = certify(3, 6, scale=scale)
            assert scaled.certified == base.certified
            for label, res in base.per_graph.items():
                assert scaled.per_graph[label].lower_bound == \
                    res.lower_bound * scale

    def test_multivertex_margin_nonnegative(self):
        for d, g in ACCEPTANCE_PAIRS:
            assert multivertex_margin(d, g) >= 0

    def test_multivertex_margin_equals_per_genus_minimum(self):
        def by_loop(d, g, scale):
            a_poly, b_poly = slope_normalization(d)
            a = a_poly.eval({"g": g}) * scale
            b = b_poly.eval({"g": g}) * scale
            slacks = []
            for g_r in range(1, g + 1):
                slacks.append(b * (hyperelliptic_pencil_delta(g_r) - 2) - a * g_r)
                if d >= 4:
                    slacks.append(b * (trigonal_pencil_delta(g_r) - 3) - a * g_r)
            return min(slacks)

        genera = {3: (4, 10, 40, 100), 4: (3, 9, 33, 99), 5: (16, 36, 96, 196)}
        for d, gs in genera.items():
            for g in gs:
                for scale in (Fraction(1), Fraction(2), Fraction(1, 3)):
                    assert multivertex_margin(d, g, scale) == by_loop(d, g, scale)

    def test_certificate_replay(self):
        cert = certify(4, 9)
        assert replay(cert)

    def test_replay_honours_scale(self):
        cert = certify(3, 8, scale=2)
        assert cert.certified and replay(cert)
        assert replay(Certificate.from_json(cert.to_json()))
        label = sorted(cert.per_graph)[0]
        cert.per_graph[label].lower_bound /= 2
        assert not replay(cert)

    def test_later_genus_builds_no_ring(self):
        # the pencil counts are derived once with the genus symbolic, so a
        # second degree-five genus only evaluates them
        from hurwitzcalc import chow
        certify(5, 16)
        built = len(chow._RINGS)
        certify(5, 36)
        assert len(chow._RINGS) == built

    def test_certificate_json_round_trip(self):
        cert = certify(3, 4)
        rebuilt = Certificate.from_json(cert.to_json())
        assert rebuilt.status == cert.status
        assert {k: v.lower_bound for k, v in rebuilt.per_graph.items()} == \
            {k: v.lower_bound for k, v in cert.per_graph.items()}

    def test_chains_ground_in_base_cases(self):
        cert = certify(3, 6)
        for res in cert.per_graph.values():
            assert res.chain
            for step in res.chain:
                assert "rule" in step and "slack" in step

    def test_every_enumerated_graph_is_covered(self):
        from hurwitzcalc.graphs import canonical_label, enumerate_two_vertex
        for d, g in ((3, 6), (4, 9), (5, 16)):
            cert = certify(d, g)
            for gr in enumerate_two_vertex(d, g):
                assert canonical_label(gr) in cert.per_graph
