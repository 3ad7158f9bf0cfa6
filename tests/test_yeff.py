import hashlib
import json
import subprocess
import sys
from collections.abc import Mapping
from fractions import Fraction
from math import comb, factorial, lcm

import pytest

from hurwitzcalc import family_calc, graphs, yeff
from hurwitzcalc.bundles import k1_pentagonal, m_r_pentagonal
from hurwitzcalc.divisor_classes import admissible_genus, class_x
from hurwitzcalc.errors import (DerivationMismatch, EngineError, InvalidProfile,
                               NotDivisorial, OutOfRange, PropagationFailure, Record)
from hurwitzcalc.family_calc import (PENCIL_TABLE, hyperelliptic_pencil_delta,
                                     partial_pencil_record,
                                     pentagonal_basechange_profile_record,
                                     tetragonal_pencil_delta,
                                     trigonal_pencil_delta)
from hurwitzcalc.graphs import (MAX_GENUS, canonical_label,
                                enumerate_two_vertex, graph_four_vertex_d3,
                                graph_three_vertex_d3, two_vertex_graph)
from hurwitzcalc.symkernel import Poly, RationalFunction
from hurwitzcalc.yeff import (DISCONNECTED, IRREDUCIBLE_NODE, Certificate,
                              InequalityRule, build_rules, certify,
                              check_closed_form_d4, multivertex_margin,
                              replay, slope_normalization, symbolic_slack,
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
        assert symbolic_slack(5, (1, 1, 1, 1, 1)) == term
        relaxed = term.subs({"mR": -3 * (g_r + 4) / 4})
        assert relaxed == 3 * g - Fraction(11, 2) * g_r

    def test_pentagonal_term_dominates_lemma_bound(self):
        term = symbolic_slack(5, (1, 1, 1, 1, 1))
        for g in (16, 36):
            for g_r in range(0, g // 2):
                at = {"g": g, "gR": g_r, "kR": k1_pentagonal(g_r),
                      "mR": m_r_pentagonal(g_r)}
                assert term.eval(at) >= 3 * g - Fraction(11, 2) * g_r

    def test_pentagonal_composite_slack(self):
        # (lcm r / 10)(15b - P) with P the unramified slack
        g = Poly.var("g")
        term = symbolic_slack(5, (1, 1, 1, 1, 1))
        for profile, ratio in (((2, 1, 1, 1), Fraction(1, 5)),
                               ((3, 2), Fraction(9, 5)), ((5,), 2)):
            assert symbolic_slack(5, profile) == ratio * (15 * g / 2 - term)


class TestSlackDomain:
    @pytest.mark.parametrize("d,profile", [(3, (1, 1, 1, 1)), (4, (7,)), (3, ()),
                                           (3, (0, 3)), (4, (2, 2, 1)), (5, (3, 3)),
                                           (5, (6, -1))])
    def test_profile_must_partition_the_degree(self, d, profile):
        with pytest.raises(InvalidProfile):
            symbolic_slack(d, profile)

    def test_degree_without_a_pencil_row(self):
        with pytest.raises(NotDivisorial):
            symbolic_slack(6, (1,) * 6)

    @pytest.mark.parametrize("shape", ["x", "", (1, 1, 1)])
    def test_unknown_degree_three_shape(self, shape):
        with pytest.raises(EngineError):
            symbolic_slack_threevertex(shape)

    def test_recorded_rows_take_one_section_per_node(self):
        # the rule slack of a profile takes len(profile) sections off delta,
        # as the record of the row carrying that profile does
        for kind, row in PENCIL_TABLE.items():
            if isinstance(row.shape, tuple) and row.copies == 1:
                assert row.sections == len(row.shape), kind


def _closed_form_d4_by_terms(g, a, b):
    """The summed degree-four inequality at the given (a, b), with i
    stepped until 3i + k passes (g - 3)/2."""
    for k in (0, 1, 2):
        i = 0
        while 3 * i + k <= (g - 3) // 2:
            value = (3 * (Fraction(13, 2) * b - a) * comb(i + 1, 2)
                     + ((Fraction(13, 2) * k + Fraction(7, 2)) * b - k * a) * i)
            if value < 0:
                return False
            i += 1
    return True


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

    def test_direct_bound_matches_the_term_by_term_loop(self, monkeypatch):
        assert all(check_closed_form_d4(g) == _closed_form_d4_by_terms(g, 13 * g + 15, 2 * g)
                   for g in range(-10, 401))
        # with a raised by t, the last term of the range in i is the first to
        # turn negative, so a range one term short or long disagrees with the
        # loop at the smallest failing t or just below it
        g_var = Poly.var("g")
        for g in (9, 15, 16, 21, 57, 58):
            verdicts = set()
            for t in range(40):
                monkeypatch.setattr(yeff, "slope_normalization",
                                    lambda d, t=t: (13 * g_var + 15 + t, 2 * g_var))
                expected = _closed_form_d4_by_terms(g, 13 * g + 15 + t, 2 * g)
                assert check_closed_form_d4(g) == expected, (g, t)
                verdicts.add(expected)
            assert verdicts == {True, False}

    def test_closed_form_value_has_the_sign_of_the_check(self):
        # every admissible degree-four genus up to 200 passes at today's
        # (a, b); with a raised, the value turns negative exactly where the
        # term-by-term loop first fails
        genera = [g for g in range(201) if admissible_genus(4, g)]
        assert len(genera) == 33
        for g in genera:
            a, b = yeff._slope_pair(4, g, Fraction(1))
            assert check_closed_form_d4(g)
            assert yeff._closed_form_d4(g, a, b) >= 0
            for t in range(0, 40, 3):
                expected = _closed_form_d4_by_terms(g, a + t, b)
                assert (yeff._closed_form_d4(g, a + t, b) >= 0) == expected, (g, t)

    def test_closed_form_value_scales_with_x(self):
        for g in (3, 9, 15, 57, 195):
            value = yeff._closed_form_d4(g, *yeff._slope_pair(4, g, Fraction(1)))
            for scale in (Fraction(2), Fraction(1, 3)):
                scaled = yeff._closed_form_d4(g, *yeff._slope_pair(4, g, scale))
                assert scaled == scale * value, (g, scale)

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

    @pytest.mark.parametrize("d,g", [(d, g) for d, genera in
                                     ((3, range(4, 41, 2)), (4, range(9, 34, 6)),
                                      (5, (16, 36, 56, 96, 196)))
                                     for g in genera])
    def test_reconstructed_flag_is_the_table_rule(self, d, g):
        # a rule is reconstructed when no pencil-table row carries its shape
        # or its family's genus is below the row's min_gr; a degree-five
        # composite's family has genus varied - r, varying the smaller
        # genus when it can, and a rational vertex has its own row
        kind_by_shape = {row.shape: kind for kind, row in PENCIL_TABLE.items()}
        rules = build_rules(d, g)
        for graph in enumerate_two_vertex(d, g):
            profile = tuple(e.local_degree for e in graph.edges)
            g_r, g_l = sorted(v.genus for v in graph.vertices)
            family = g_r
            if d == 5 and profile != (1,) * 5:
                r = sum(m - 1 for m in profile)
                family = g_r - r if g_r - r >= 1 else g_l - r
            kind = kind_by_shape.get(profile)
            if d == 5 and profile == (1,) * 5 and g_r == 0:
                kind = "rational_partial"
            expected = kind is None or family < PENCIL_TABLE[kind].min_gr
            assert rules[canonical_label(graph)].reconstructed == expected, (graph, family)

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
        data = cert.to_json()
        entry = data["graphs"][sorted(cert.per_graph)[0]]
        entry["lowerBound"] = str(Fraction(entry["lowerBound"]) / 2)
        assert not replay(Certificate.from_json(data))

    @pytest.mark.parametrize("tamper", [
        lambda data, step: step.update(slack="999"),
        lambda data, step: data["notes"].__setitem__(0, "multi-vertex margin: -1"),
        lambda data, step: step.update(reconstructed=not step["reconstructed"]),
    ], ids=["slack", "note", "reconstructed"])
    def test_replay_checks_chains_and_notes(self, tamper):
        data = certify(4, 9).to_json()
        tamper(data, data["graphs"][min(data["graphs"])]["chain"][-1])
        assert not replay(Certificate.from_json(data))

    def test_later_genus_builds_no_ring(self):
        # the pencil counts are derived once with the genus symbolic, so a
        # second degree-five genus only evaluates them
        from hurwitzcalc import chow
        certify(5, 16)
        built = len(chow._RINGS)
        certify(5, 36)
        assert len(chow._RINGS) == built

    def test_certificate_json_round_trip(self):
        for d, g, scale in _PINNED_CERT_POINTS:
            cert = certify(d, g, scale)
            assert Certificate.from_json(cert.to_json()) == cert, (d, g, scale)

    def test_only_degree_four_genus_three_fails(self):
        # at (4, 3) the trigonal-vertex slack g*gR + 6g - 15gR is g(g - 9) at
        # gR = g, which is negative below g = 9
        cert = certify(4, 3)
        assert cert.status == "failed:multivertex-margin"
        assert multivertex_margin(4, 3) == -18 and "multi-vertex margin: -18" in cert.notes
        points = [(d, g) for d, lowest in ((3, 0), (4, 0), (5, 16))
                  for g in range(lowest, 101) if admissible_genus(d, g)]
        assert len(points) == 71
        assert [point for point in points if not certify(*point).certified] == [(4, 3)]

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


def _rules_by_records(d, g, scale):
    """The rule system built the per-genus way: every slack from the named
    pencil records at the graph's genera, and every degree-five ramified
    rule by eliminating the collision divisor between the base-change
    records of its profile and of the simple profile."""
    a_p, b_p = slope_normalization(d)
    a, b = a_p.eval({"g": g}) * scale, b_p.eval({"g": g}) * scale
    named = {(1, 1, 1): "trigonal_unramified_3pts", (2, 1): "trigonal_ramified_21",
             (3,): "trigonal_triple", (1, 1, 1, 1): "tetragonal_unramified_4pts",
             (2, 1, 1): "tetragonal_ramified_2pp"}

    def key(profile, x, y):
        return canonical_label(two_vertex_graph(d, profile, x, y))

    def rule_d34(label, profile, g_l, g_r):
        if profile in named:
            rec = partial_pencil_record(named[profile], gr=g_r)
            lam, delta = rec.lam, rec.delta
        else:
            lam, delta = Fraction(g_r), tetragonal_pencil_delta(g_r) - len(profile)
        targets = []
        if g_r - (d - 1) >= 0:
            targets.append((key((1,) * d, g_l + len(profile) - 1, g_r - (d - 1)),
                            Fraction(1)))
        elif g_r >= 1:
            targets.append((DISCONNECTED, Fraction(1)))
        if profile[0] >= 2 and g_r >= 1:
            m = profile[0]
            reduced = tuple(sorted(list(profile[1:]) + [m - 1, 1], reverse=True))
            targets.append((key(reduced, g_l, g_r - 1),
                            Fraction(sum(1 for p in profile if p >= 2))))
        family = "unramified" if profile == (1,) * d else f"ramified {profile}"
        return InequalityRule(label, tuple(targets), b * delta - a * lam,
                              f"degree-{d} {family} partial pencil",
                              reconstructed=profile not in named)

    def rule_d5(label, profile, g_l, g_r):
        unram = (1, 1, 1, 1, 1)
        if profile == unram:
            if g_r == 0:
                rec = partial_pencil_record("rational_partial", dv=5)
                return InequalityRule(label, (), b * rec.delta - a * rec.lam,
                                      "degree-5 rational vertex pencil")
            if g_r == 1:
                # no pentagonal pencil record at genus one: the step term
                k_r, m_r = k1_pentagonal(1), m_r_pentagonal(1)
                slack = (b * (40 - 7 * k_r) - a * (5 - k_r)
                         + Fraction(2 * g - 22, 5) * scale * (k_r + m_r))
            else:
                rec = partial_pencil_record("pentagonal_unramified_5pts", gr=g_r, g=g)
                slack = b * rec.delta - a * rec.lam + rec.x_hit * scale
            targets = ((key(unram, g_l + 4, g_r - 4), Fraction(1)),) if g_r >= 4 \
                else ((DISCONNECTED, Fraction(1)),)
            return InequalityRule(label, targets, slack,
                                  "degree-5 unramified partial pencil",
                                  reconstructed=g_r == 1, equality=True)
        r = sum(m - 1 for m in profile)
        choice = None
        for other, varied in ((g_l, g_r), (g_r, g_l)):
            if varied - r >= 1:
                choice = (other, varied - r)
                if varied == min(g_l, g_r):
                    break
        if choice is None:
            raise PropagationFailure(label)
        fixed, fam = choice
        n = factorial(5)
        recs = [pentagonal_basechange_profile_record(g, fam, p)
                for p in (profile, (2, 1, 1, 1))]
        s_p, s_s = (a * rec.lam - b * rec.delta - rec.x_hit * scale for rec in recs)
        t_p = recs[0].boundary_hits["delta_profile"]
        collisions = recs[0].boundary_hits.get("delta_collision", Fraction(0))
        simple_total = sum(v for k, v in recs[1].boundary_hits.items()
                           if k != "delta_self")
        coeff = (9 * n - collisions * 9 * n / simple_total) / t_p
        slack = (s_p - collisions * s_s / simple_total) / t_p
        assert coeff == Fraction(9 * lcm(*profile) * r, 10)
        return InequalityRule(label, ((key(unram, fixed, fam), coeff),), slack,
                              f"degree-5 base-change composite {profile}",
                              reconstructed=profile != (2, 1, 1, 1) or fam < 2,
                              equality=True)

    rules = {}
    for graph in enumerate_two_vertex(d, g):
        label = canonical_label(graph)
        profile = tuple(sorted((e.local_degree for e in graph.edges), reverse=True))
        g_r, g_l = sorted(v.genus for v in graph.vertices)
        rules[label] = (rule_d34 if d < 5 else rule_d5)(label, profile, g_l, g_r)
    if d == 3:
        for g_r in range(1, g):
            g_l = g - 1 - g_r
            label = canonical_label(graph_three_vertex_d3(g_l, g_r))
            rec = partial_pencil_record("hyperelliptic_3vertex", gr=g_r)
            target = IRREDUCIBLE_NODE if g_r == 1 else \
                canonical_label(graph_three_vertex_d3(g_l + 1, g_r - 1))
            rules[label] = InequalityRule(label, ((target, Fraction(1)),),
                                          b * rec.delta - a * rec.lam,
                                          "hyperelliptic three-vertex step")
        for g_r in range(0, g // 2 + 1):
            g_l = g - g_r
            label = canonical_label(graph_four_vertex_d3(g_l, g_r))
            if g_r == 0:
                slack, targets = 3 * b, ()
            else:
                rec = partial_pencil_record("hyperelliptic_4vertex", gr=g_r)
                slack = b * rec.delta - a * rec.lam
                target = IRREDUCIBLE_NODE if g_r == 1 else \
                    canonical_label(graph_three_vertex_d3(g_l, g_r - 1))
                targets = ((target, Fraction(1)),)
            rules[label] = InequalityRule(label, targets, slack,
                                          "hyperelliptic four-vertex step")
    return rules


# SHA-256 over json.dumps({label: rule.to_json()}, sort_keys=True) of
# build_rules at every (d, g, scale) of _PINNED_RULE_POINTS, in that order,
# recorded from the per-genus record route before the rules were derived
# from the pencil table, and re-recorded when the (2, 1, 1, 1) composite
# whose family has genus one was flagged reconstructed (its only change)
_PINNED_RULE_DIGEST = "f21be9f67e15caa96422eba98972a4d313aa082e20063d7bb8cd040bb10d8a01"
_PINNED_RULE_POINTS = [(d, g, scale)
                       for d, genera in ((3, (4, 6, 10, 24)), (4, (3, 9, 15, 33)),
                                         (5, (16, 36, 56)))
                       for g in genera
                       for scale in (Fraction(1), Fraction(2), Fraction(1, 3))]


def test_rules_match_pinned_digest():
    digest = hashlib.sha256()
    for d, g, scale in _PINNED_RULE_POINTS:
        rules = build_rules(d, g, scale)
        digest.update(json.dumps({label: rule.to_json() for label, rule in rules.items()},
                                 sort_keys=True).encode())
    assert digest.hexdigest() == _PINNED_RULE_DIGEST


# SHA-256 over json.dumps(certify(d, g, scale).to_json()) at every
# (d, g, scale) of _PINNED_CERT_POINTS, in that order: the 26 points of the
# benchmark's certify sweep at three scales.  Recorded before polynomials
# were evaluated over one common denominator and before labels were read
# off both orientations in one pass; it pins the chains and bounds that
# the rule digest above does not reach.  Re-recorded with the rule digest,
# for the one flag in the chain of that composite's graph at (5, 16) and
# (5, 36).
_PINNED_CERT_DIGEST = "4cc0faddd593cdf1e325ce176f550afce4dbba165e7ebdfe74eedebec74a61e5"
_PINNED_CERT_POINTS = [(d, g, scale)
                       for d, genera in ((3, range(4, 41, 2)), (4, range(9, 34, 6)),
                                         (5, (16, 36)))
                       for g in genera
                       for scale in (Fraction(1), Fraction(2), Fraction(1, 3))]


def test_certificates_match_pinned_digest():
    digest = hashlib.sha256()
    for d, g, scale in _PINNED_CERT_POINTS:
        digest.update(json.dumps(certify(d, g, scale).to_json()).encode())
    assert len(_PINNED_CERT_POINTS) == 3 * 26
    assert digest.hexdigest() == _PINNED_CERT_DIGEST


def _leaves(x):
    """Every value reachable from x through records, containers, rational
    functions and Poly coefficients."""
    if isinstance(x, Record):
        x = [getattr(x, name) for name in x._fields]
    elif isinstance(x, RationalFunction):
        x = [x.num, x.den]
    elif isinstance(x, Poly):
        x = list(x.terms.values())
    elif isinstance(x, Mapping):
        x = [*x.keys(), *x.values()]
    if isinstance(x, (list, tuple)):
        for item in x:
            yield from _leaves(item)
    else:
        yield x


def test_no_float_reaches_a_certificate_or_class_x():
    # propagation adds integers, but what a certificate or a rule holds is
    # still a Fraction
    sweep = [(d, g) for d, g, scale in _PINNED_CERT_POINTS if scale == 1]
    assert len(sweep) == 26
    for d, g in sweep:
        cert, rules = certify(d, g), build_rules(d, g)
        assert type(cert.a) is Fraction and type(cert.b) is Fraction
        assert all(type(res.lower_bound) is Fraction for res in cert.per_graph.values())
        for rule in rules.values():
            assert type(rule.slack) is Fraction
            assert all(type(coeff) is Fraction for _, coeff in rule.targets)
        assert not any(type(value) is float for value in _leaves([cert, rules]))
    for d in (3, 4, 5):
        assert not any(type(value) is float for value in _leaves(class_x(d)))


def test_each_hyperelliptic_vertex_graph_is_labelled_once(monkeypatch, cold_labels):
    # 39 three-vertex and 21 four-vertex graphs at (3, 40), labelled in
    # `graphs` once per process by formatting their genera into the two
    # shapes' templates: the graphs are validated and labelled only while
    # the two entries are derived.  Labelling each graph took 60 calls,
    # and labelling each rule's target again 117
    calls = {"validate": [], "canonical_label": []}

    def counting(name):
        real = getattr(graphs, name)

        def wrapper(gr, *args):
            calls[name].append(gr)
            return real(gr, *args)
        return wrapper

    graphs.labelled_two_vertex(3, 40)       # the 61 two-vertex graphs
    for name in calls:
        monkeypatch.setattr(graphs, name, counting(name))
    rules = build_rules(3, 40)
    checked = [build(*pair)
               for build in (graphs.graph_three_vertex_d3, graphs.graph_four_vertex_d3)
               for pair in graphs._CHECKED]
    assert calls["canonical_label"] == checked
    assert len(calls["validate"]) == 2 * (1 + len(graphs._CHECKED))
    assert sum(rule.provenance.startswith("hyperelliptic") for rule in rules.values()) == 60
    assert build_rules(3, 40) == rules
    assert sum(rule.provenance.startswith("hyperelliptic")
               for rule in build_rules(3, 38).values()) == 37 + 20
    assert calls["canonical_label"] == checked
    assert len(calls["validate"]) == 2 * (1 + len(graphs._CHECKED))


def test_warm_certify_builds_and_labels_no_graph(monkeypatch):
    certify(3, 40)
    built, labelled = [], []
    real_init = graphs.DualGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def counting_label(gr):
        labelled.append(gr)
        return canonical_label(gr)

    monkeypatch.setattr(graphs.DualGraph, "__init__", counting_init)
    monkeypatch.setattr(graphs, "canonical_label", counting_label)
    assert certify(3, 40).certified
    assert built == [] and labelled == []


def test_certify_at_a_new_genus_builds_no_graph(monkeypatch, cold_labels):
    # once the shape entries exist, a certificate reads each graph as its
    # label, profile and genera: one graph and two vertices per two-vertex
    # graph were built for the rules to take apart
    certify(3, 4)
    certify(5, 16)
    built = []
    for record in (graphs.DualGraph, graphs.Vertex):
        def counting_init(self, *args, real=record.__init__, **kwargs):
            built.append(type(self).__name__)
            real(self, *args, **kwargs)
        monkeypatch.setattr(record, "__init__", counting_init)
    for d, g in ((3, 40), (5, 36)):
        assert certify(d, g).per_graph
    assert built == []
    graphs.labelled_two_vertex(3, 4)
    assert built.count("DualGraph") == 7 and built.count("Vertex") == 14


_FORM_CACHES = ("_vertex_slack", "_shape", "_margin_forms")



def _step(source, target):
    """A hand-built rule c(source) >= c(target)."""
    return InequalityRule(source, ((target, Fraction(1)),), Fraction(0), "hand-built")


class TestCertifierSaysNo:
    def _rules(self, monkeypatch, rules):
        monkeypatch.setattr(yeff, "build_rules", lambda d, g, scale=Fraction(1): rules)

    def test_negative_bound_fails_at_its_label(self, monkeypatch):
        rules = build_rules(3, 8)
        label = min(rules)
        rule = rules[label]
        rules[label] = InequalityRule(label, rule.targets, Fraction(-10**6), rule.provenance)
        self._rules(monkeypatch, rules)
        cert = certify(3, 8)
        assert cert.status == f"failed:{label}" and not cert.certified
        assert cert.per_graph[label].lower_bound < 0

    def test_cycle_is_a_propagation_failure(self, monkeypatch):
        self._rules(monkeypatch, {"A": _step("A", "B"), "B": _step("B", "A")})
        with pytest.raises(PropagationFailure, match="cyclic") as caught:
            certify(3, 8)
        assert caught.value.label == "A"

    def test_dangling_target_is_a_propagation_failure(self, monkeypatch):
        self._rules(monkeypatch, {"A": _step("A", "Z")})
        with pytest.raises(PropagationFailure, match="no rule") as caught:
            certify(3, 8)
        assert caught.value.label == "Z"

    def test_negative_margin_fails(self, monkeypatch):
        monkeypatch.setattr(yeff, "multivertex_margin",
                            lambda d, g, scale=Fraction(1): Fraction(-1))
        cert = certify(4, 9)
        assert cert.status == "failed:multivertex-margin"
        assert "multi-vertex margin: -1" in cert.notes

    def test_failing_closed_form_fails(self, monkeypatch):
        monkeypatch.setattr(yeff, "_closed_form_d4", lambda g, a, b: Fraction(-1))
        cert = certify(4, 15)
        assert cert.status == "failed:closed-form"
        assert "closed-form nonnegativity of the summed step: False" in cert.notes

    def test_first_negative_constraint_names_the_status(self, monkeypatch):
        # graphs by label, then the margin, then the closed form
        rules = build_rules(4, 15)
        label = max(rules)
        rule = rules[label]
        rules[label] = InequalityRule(label, rule.targets, Fraction(-10**6), rule.provenance)
        self._rules(monkeypatch, rules)
        monkeypatch.setattr(yeff, "multivertex_margin",
                            lambda d, g, scale=Fraction(1): Fraction(-1))
        assert certify(4, 15).status == f"failed:{label}"
        monkeypatch.setattr(yeff, "build_rules", build_rules)
        monkeypatch.setattr(yeff, "_closed_form_d4", lambda g, a, b: Fraction(-1))
        cert = certify(4, 15)
        assert cert.status == "failed:multivertex-margin"
        assert cert.notes == ["multi-vertex margin: -1",
                              "closed-form nonnegativity of the summed step: False"]

    def test_composite_rule_needs_a_genus_above_the_ramification(self):
        # (3, 2) has ramification index 3: a family varying either genus-3
        # vertex would base-change to genus 0
        entry = yeff._shape(5, (3, 2))
        with pytest.raises(PropagationFailure, match="no admissible base-change") as caught:
            yeff._step(entry, "X", 3, 3)
        assert caught.value.label == "X"
        assert yeff._step(entry, "X", 3, 4) == yeff._step(entry, "X", 4, 3)

class TestOneDerivationPerShape:
    @pytest.mark.parametrize("d,genera", [(3, (4, 6, 10, 24)), (4, (3, 9, 15, 33)),
                                          (5, (16, 36, 56))])
    def test_rules_equal_the_per_genus_record_route(self, d, genera):
        for g in genera:
            for scale in (Fraction(1), Fraction(2), Fraction(1, 3)):
                assert build_rules(d, g, scale) == _rules_by_records(d, g, scale)

    def test_rules_use_no_per_genus_record(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a per-genus pencil record was built")
        for name in ("partial_pencil_record", "pentagonal_basechange_profile_record",
                     "pentagonal_pencil_numbers", "trigonal_pencil_delta",
                     "tetragonal_pencil_delta", "hyperelliptic_pencil_delta"):
            monkeypatch.setattr(family_calc, name, refuse)
        for d, g in ((3, 8), (4, 15), (5, 36)):
            assert certify(d, g).certified

    def test_second_genus_derives_nothing(self, monkeypatch):
        for name in _FORM_CACHES:
            getattr(yeff, name).cache_clear()
        checks = []
        real = yeff.require

        def counting(cond, what):
            checks.append(what)
            real(cond, what)
        monkeypatch.setattr(yeff, "require", counting)

        def derivations():
            return [getattr(yeff, name).cache_info().misses for name in _FORM_CACHES]
        certify(5, 16)
        first = derivations()
        # the entries of the unramified and the rational-vertex shapes and
        # of the six ramified profiles, each with its three checks, and the
        # margin
        assert first[1] == 2 + 6 and len(checks) == 6 * 3 + 1
        certify(5, 36)
        assert derivations() == first and len(checks) == 6 * 3 + 1

    def test_sweep_derives_no_entry_and_checks_no_profile(self, monkeypatch):
        # once one certify per degree has derived every shape's entry, a
        # pass over the benchmark's 26 sweep points only reads entries: no
        # entry is derived and no profile is checked again (building each
        # rule through the public slack reader checked 933)
        sweep = [(d, g) for d, g, scale in _PINNED_CERT_POINTS if scale == 1]
        for d in (3, 4, 5):
            certify(*next(point for point in sweep if point[0] == d))
        checked = []
        real = family_calc.check_profile

        def counting(d, profile):
            checked.append(profile)
            real(d, profile)
        monkeypatch.setattr(yeff, "check_profile", counting)
        monkeypatch.setattr(family_calc, "check_profile", counting)
        derived = yeff._shape.cache_info().misses
        for d, g in sweep:
            assert certify(d, g).certified
        assert yeff._shape.cache_info().misses == derived and checked == []

    def test_self_hit_comes_from_the_section_bookkeeping(self, monkeypatch):
        # the composite's self-intersection check compares the section
        # bookkeeping with 9 * 5!, so a wrong bookkeeping makes it fire.
        # The bookkeeping is cached per profile: the sabotaged values must
        # not outlive the test
        real = family_calc.basechange_section_bookkeeping

        def sabotaged(d, branch_points, profile):
            books = real(d, branch_points, profile)
            return {**books, "blownSelfInt": books["blownSelfInt"] - 1}
        monkeypatch.setattr(family_calc, "basechange_section_bookkeeping", sabotaged)
        yeff._shape.cache_clear()
        family_calc._basechange.cache_clear()
        try:
            with pytest.raises(DerivationMismatch, match="self-intersection"):
                symbolic_slack(5, (2, 1, 1, 1))
        finally:
            family_calc._basechange.cache_clear()

    def test_bookkeeping_runs_once_per_profile(self, monkeypatch):
        calls = []
        real = family_calc.basechange_section_bookkeeping

        def counting(d, branch_points, profile):
            calls.append(profile)
            return real(d, branch_points, profile)
        monkeypatch.setattr(family_calc, "basechange_section_bookkeeping", counting)
        yeff._shape.cache_clear()
        family_calc._basechange.cache_clear()
        certify(5, 16)
        # the six ramified profiles of degree five
        assert len(calls) == len(set(calls)) == 6
        certify(5, 36)
        assert len(calls) == 6

    def test_returned_hits_are_not_the_cached_ones(self):
        first = family_calc._basechange_hits((2, 1, 1, 1))
        kept = dict(first)
        first["delta_profile"] *= 2
        assert family_calc._basechange_hits((2, 1, 1, 1)) == kept

    def test_composite_check_survives_optimize(self, engine_env):
        script = (
            "import hurwitzcalc.yeff as yeff\n"
            "from hurwitzcalc.errors import DerivationMismatch\n"
            "real = yeff._basechange_hits\n"
            "def wrong(profile):\n"
            "    hits = real(profile)\n"
            "    hits['delta_profile'] *= 2\n"
            "    return hits\n"
            "yeff._basechange_hits = wrong\n"
            "try:\n"
            "    yeff.certify(5, 16)\n"
            "except DerivationMismatch as exc:\n"
            "    raise SystemExit(0 if 'composite' in str(exc) else 2)\n"
            "raise SystemExit(1)\n")
        result = subprocess.run([sys.executable, "-O", "-c", script],
                                env=engine_env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr

    def test_import_derives_nothing(self, engine_env):
        # the forms are derived lazily, so a cold CLI start pays for none
        script = (
            "import hurwitzcalc.cli\n"
            "from hurwitzcalc import directrix, family_calc, yeff\n"
            "filled = [f'{m.__name__}.{name}' for m in (family_calc, directrix, yeff)\n"
            "          for name, obj in vars(m).items()\n"
            "          if hasattr(obj, 'cache_info') and obj.cache_info().currsize]\n"
            "forms = sum(hasattr(obj, 'cache_info') for m in (family_calc, directrix, yeff)\n"
            "            for obj in vars(m).values())\n"
            "print(forms, filled)\n"
            "raise SystemExit(1 if filled or forms < 9 else 0)\n")
        result = subprocess.run([sys.executable, "-c", script],
                                env=engine_env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stdout + result.stderr


    def test_cold_certify_substitutes_only_the_symmetric_tail(self, engine_env):
        # each vertex pencil is derived directly in the rule symbols, so the
        # only substitutions left are the degree-five derivation's two
        # symmetric-tail sums
        script = (
            "from hurwitzcalc.symkernel import Poly\n"
            "calls = []\n"
            "real = Poly.subs\n"
            "def counting(self, mapping):\n"
            "    calls.append(sorted(mapping))\n"
            "    return real(self, mapping)\n"
            "Poly.subs = counting\n"
            "from hurwitzcalc.yeff import certify\n"
            "for d, g in ((3, 12), (4, 39), (5, 16)):\n"
            "    if not certify(d, g).certified:\n"
            "        raise SystemExit(f'not certified at {(d, g)}')\n"
            "print(len(calls), calls)\n")
        result = subprocess.run([sys.executable, "-c", script],
                                env=engine_env, capture_output=True,
                                text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout.split()[0]) <= 2, result.stdout

class TestDomain:
    @pytest.mark.parametrize("d,g", [(4, -3), (5, -4), (3, -2)])
    def test_negative_genus_is_not_admissible(self, d, g):
        with pytest.raises(NotDivisorial):
            certify(d, g)
        with pytest.raises(OutOfRange):
            multivertex_margin(d, g)

    def test_margin_refuses_what_certify_refuses(self):
        # g = 10 is not 3 mod 6: the margin once returned 10 here
        for entry in (certify, multivertex_margin):
            with pytest.raises(NotDivisorial, match=r"\(d, g\) = \(4, 10\) is not admissible"):
                entry(4, 10)

    @pytest.mark.parametrize("scale", [0, -1, 0.5])
    @pytest.mark.parametrize("entry", [certify, build_rules, multivertex_margin],
                             ids=["certify", "build_rules", "multivertex_margin"])
    def test_scale_must_be_a_positive_rational(self, entry, scale):
        with pytest.raises(OutOfRange, match=f"scale of X .* got {scale}"):
            entry(3, 8, scale)

    def test_replay_of_a_zero_scale_is_refused(self):
        data = certify(3, 8).to_json()
        data["a"] = "0"
        with pytest.raises(OutOfRange, match="scale"):
            replay(Certificate.from_json(data))

    def test_genus_above_the_enumeration_limit(self):
        g = MAX_GENUS + 2       # admissible for d = 3
        with pytest.raises(OutOfRange):
            build_rules(3, g)
        with pytest.raises(OutOfRange):
            certify(3, g)
        assert certify(3, MAX_GENUS).certified
