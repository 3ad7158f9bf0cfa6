"""Acceptance suite: one test per acceptance criterion, each printing a
pass line and enforcing its stated time budget.  Run with `pytest -s` to
see the per-criterion report."""

import random
import time
from fractions import Fraction

from hurwitzcalc.bundles import (SplittingType, generic_tame, is_tame,
                                 k1_pentagonal, syzygy_rank)
from hurwitzcalc.chow import (grassmann_top_constant_from_twist,
                              ring_grassmann_bundle_g25)
from hurwitzcalc.directrix import (DirectrixFamily, directrix_pushforward_degree,
                                   rotating_directrix_class,
                                   rotating_directrix_closed_form)
from hurwitzcalc.divisor_classes import (ChernData, ce_class, ce_class_from_bogomolov,
                                         class_x, invariants_from_chern, maroni_class,
                                         maroni_class_from_bogomolov,
                                         slope_bound)
from hurwitzcalc.errors import NoTameType
from hurwitzcalc.family_calc import (basechange_section_bookkeeping,
                                     partial_pencil_record,
                                     pentagonal_pencil_numbers,
                                     pentagonal_pencil_symbolic,
                                     c2_omega_tetragonal_ambient_restricted,
                                     c2_omega_tetragonal_surface,
                                     pencil_delta_on_surface,
                                     pencil_delta_via_euler,
                                     tetragonal_pencil_delta,
                                     trigonal_pencil_delta)
from hurwitzcalc.graphs import (canonical_label, enumerate_two_vertex,
                                partitions, two_vertex_graph)
from hurwitzcalc.symkernel import Poly, RationalFunction
from hurwitzcalc.yeff import certify, check_closed_form_d4, symbolic_slack


def _report(criterion: int, started: float, budget: float, detail: str = ""):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.2f}s)"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {criterion}: PASS ({elapsed:.2f}s){suffix}")


def test_criterion_1_slope_regression():
    started = time.monotonic()
    assert slope_bound(3, 4) == Fraction(17, 2)
    assert slope_bound(4, 9) == Fraction(22, 3)
    assert slope_bound(5, 16) == Fraction(27, 4)
    g = Poly.var("g")
    assert class_x(3)["a"] / class_x(3)["b"] == 7 + RationalFunction(6, g)
    assert class_x(4)["a"] / class_x(4)["b"] == \
        Fraction(13, 2) + RationalFunction(15, 2 * g)
    assert class_x(5)["a"] / class_x(5)["b"] == \
        Fraction(31, 5) + RationalFunction(44, 5 * g)
    _report(1, started, 1.0, "17/2, 22/3, 27/4 and symbolic forms")


def test_criterion_2_symbolic_identities():
    started = time.monotonic()
    d, g, e2, f2, s = (Poly.var(n) for n in ("d", "g", "ch2E", "ch2F", "c1sqE"))
    inv = invariants_from_chern(ChernData(d, g, e2, f2, s))
    assert (12 * inv.lam - inv.kappa - inv.delta).is_zero()
    b = 2 * g + 2 * d - 2
    relation = (24 * (b - 1) * inv.lam - 3 * (b - 2) * inv.delta
                + 6 * inv.d_div - (b - 10) * inv.t_div)
    assert relation.is_zero()
    _report(2, started, 1.0, "both identities vanish in five symbols")


def test_criterion_3_class_pipeline():
    started = time.monotonic()
    g = Poly.var("g")
    expected = {3: RationalFunction(7 * g + 6, g),
                4: RationalFunction(13 * g + 15, 2 * g),
                5: RationalFunction(31 * g + 44, 5 * g)}
    for d in (3, 4, 5):
        # the printed coefficient tables agree with the Bogomolov route
        printed, derived = maroni_class(d), maroni_class_from_bogomolov(d)
        for attr in ("lambda_coef", "delta_coef", "d_coef"):
            assert getattr(printed, attr) == getattr(derived, attr)
        if d >= 4:
            printed, derived = ce_class(d), ce_class_from_bogomolov(d)
            for attr in ("lambda_coef", "delta_coef", "d_coef"):
                assert getattr(printed, attr) == getattr(derived, attr)
        data = class_x(d)
        assert data["X"].d_coef.is_zero()
        assert data["a"] / data["b"] == expected[d]
    assert class_x(5)["weightM"] == (2 * g - 22) / 5
    _report(3, started, 5.0, "D-elimination ratios and degree-five M-weight")


def test_criterion_4_pencil_oracles():
    started = time.monotonic()
    from hurwitzcalc.chow import surface_p1xp1
    # trigonal: both derivations, every genus
    for g in range(2, 41):
        assert trigonal_pencil_delta(g) == 7 * g + 6
    surf = surface_p1xp1()
    rs, rt = surf.ring.gen("Rs"), surf.ring.gen("Rt")
    k = Poly.var("k")
    assert pencil_delta_on_surface(surf, k * rs + 3 * rt) == \
        pencil_delta_via_euler(surf, k * rs + 3 * rt)
    # tetragonal: closed form plus the intermediate second Chern class
    u, v, g_r = Poly.var("u"), Poly.var("v"), Poly.var("gR")
    assert c2_omega_tetragonal_ambient_restricted(u, v, g_r) == \
        3 * v + 6 * u - 4 * g_r
    assert c2_omega_tetragonal_surface(u, v, g_r) == 3 * v + 6 * u - 4 * g_r - 8
    from hurwitzcalc.bundles import v_tetragonal
    for g in range(2, 41):
        assert tetragonal_pencil_delta(g) == v_tetragonal(g) + 6 * g + 6
    # pentagonal: formulas against the Euler-characteristic pipeline
    for g in range(2, 41):
        numbers = pentagonal_pencil_numbers(g)
        k1 = k1_pentagonal(g)
        assert numbers["lambda"] == 2 * g + 3 - k1
        assert numbers["delta"] == 13 * g + 32 - 7 * k1
        assert numbers["B"] == 5 * k1 - 3 * (g + 4)
    _report(4, started, 5.0, "trigonal, tetragonal, pentagonal for g <= 40")


def test_criterion_5_grassmannian_constants():
    started = time.monotonic()
    g, k1 = Poly.var("g"), Poly.var("k1")
    ring = ring_grassmann_bundle_g25(Poly.var("c1Fdual"))
    z, f = ring.gen("z"), ring.gen("f")
    assert (z ** 6 * f).integrate() == Poly.const(5)
    assert grassmann_top_constant_from_twist() == (Fraction(14), Fraction(0))
    sym = pentagonal_pencil_symbolic(g, k1)
    assert sym["B"] == 5 * k1 - 3 * (g + 4)
    _report(5, started, 1.0, "z^6 f = 5, twist constant 14, basepoint count")


def test_criterion_6_rotating_directrices():
    started = time.monotonic()
    count = 0
    for n in range(3, 7):
        for r in range(1, n - 1):
            for a in range(-5, 6):
                for l in range(-5, 6):
                    fam = DirectrixFamily(n, r, a, l)
                    assert directrix_pushforward_degree(fam) == \
                        Poly.const(-a - l)
                    assert rotating_directrix_class(fam) == \
                        rotating_directrix_closed_form(fam)
                    count += 1
    _report(6, started, 10.0, f"{count} families, pipeline == closed form")


def test_criterion_7_partial_pencil_records():
    started = time.monotonic()
    g_r = 7
    assert partial_pencil_record("trigonal_unramified_3pts", gr=g_r).delta == \
        7 * g_r + 3
    assert partial_pencil_record("trigonal_ramified_21", gr=g_r).delta == \
        7 * g_r + 4
    assert partial_pencil_record("trigonal_triple", gr=g_r).delta == 7 * g_r + 5
    assert partial_pencil_record("hyperelliptic_3vertex", gr=g_r).delta == \
        8 * g_r + 2
    assert partial_pencil_record("hyperelliptic_4vertex", gr=g_r).delta == \
        8 * g_r + 3
    from hurwitzcalc.bundles import v_tetragonal
    for g_r in (3, 6, 9):
        v = v_tetragonal(g_r)
        assert partial_pencil_record("tetragonal_unramified_4pts",
                                     gr=g_r).delta == v + 6 * g_r + 2
        assert partial_pencil_record("tetragonal_ramified_2pp",
                                     gr=g_r).delta == v + 6 * g_r + 3
    books = basechange_section_bookkeeping(5, 10, (2, 1, 1, 1))
    assert books["selfInt"] == -120
    assert books["pairInt"] == 60
    rec = partial_pencil_record("pentagonal_basechange", gr=16, g=36)
    assert rec.boundary_hits["delta_self"] == -1080
    assert rec.boundary_hits["delta_collision"] == 600
    _report(7, started, 1.0, "every recorded table value")


def test_criterion_8_y_effectivity():
    started = time.monotonic()
    g, g_r = Poly.var("g"), Poly.var("gR")
    # slacks as exact identities, rederived from the records
    assert symbolic_slack(3, (1, 1, 1)) == 3 * g - 6 * g_r
    assert symbolic_slack(3, (2, 1)) == 4 * g - 6 * g_r
    # the triple-ramification record (lambda = gR, delta = 7gR + 5) derives
    # to 5g - 6gR; the digit-transposed form does not satisfy the identity
    assert symbolic_slack(3, (3,)) == 5 * g - 6 * g_r
    assert symbolic_slack(3, (3,)) != 6 * g - 5 * g_r
    assert symbolic_slack(4, (2, 1, 1)).subs({"v": (g_r + 3) / 2}) == \
        9 * g - 15 * g_r
    # the summed degree-four inequality collapses to its closed form
    from math import comb
    a_sym, b_sym = Poly.var("a"), Poly.var("b")
    for k in (0, 1, 2):
        for i in range(0, 9):
            total = Poly.const(0)
            for l in range(1, i + 1):
                total = total + (18 * b_sym - 3 * a_sym) * l \
                    + b_sym * Fraction(3 * l + k + 3, 2)
            total = total + (6 * b_sym * k + 2 * b_sym - k * a_sym) * i
            closed = (3 * (Fraction(13, 2) * b_sym - a_sym) * comb(i + 1, 2)
                      + ((Fraction(13, 2) * k + Fraction(7, 2)) * b_sym
                         - k * a_sym) * i)
            assert total == closed
    a5 = (31 * g + 44) / 10
    b5 = g / 2
    w5 = (2 * g - 22) / 5
    k_r, m_r = Poly.var("kR"), Poly.var("mR")
    lemma_term = (b5 * (13 * g_r + 27 - 7 * k_r) - a5 * (2 * g_r + 3 - k_r)
                  + w5 * (k_r + m_r))
    assert lemma_term.subs({"mR": -3 * (g_r + 4) / 4}) == \
        3 * g - Fraction(11, 2) * g_r
    for d, genus in ((3, 4), (3, 6), (3, 8), (4, 9), (4, 15), (5, 16), (5, 36)):
        run_started = time.monotonic()
        cert = certify(d, genus)
        assert cert.certified, cert.status
        assert time.monotonic() - run_started < 10.0
        if d == 4:
            assert check_closed_form_d4(genus)
    _report(8, started, 70.0, "seven certified runs, slacks pinned")


def test_criterion_9_combinatorial_invariants():
    started = time.monotonic()
    rng = random.Random(1729)
    for _ in range(10_000):
        rank = rng.randint(1, 10)
        t = SplittingType(tuple(rng.randint(-5, 15) for _ in range(rank)))
        assert t.h0() - t.h1() == t.degree + t.rank
    for d in range(4, 9):
        for i in range(1, d - 2):
            assert syzygy_rank(d, i) == syzygy_rank(d, d - 2 - i)
    # generic tame type against a brute-force argmax over all partitions
    partition_cache: dict[int, list[tuple[int, ...]]] = {}
    for d in range(3, 7):
        for g in range(2, 31):
            rank, degree = d - 1, g + d - 1
            parts = partition_cache.setdefault(degree, partitions(degree))
            for m in range(1, degree // rank + 1):
                candidates = [tuple(reversed(p)) for p in parts
                              if len(p) == rank and min(p) == m
                              and is_tame(SplittingType(tuple(p)))]
                if not candidates:
                    try:
                        generic_tame(d, g, m)
                        raise AssertionError("expected NoTameType")
                    except NoTameType:
                        continue
                best = max(candidates,
                           key=lambda t: sum((rank - i) * a
                                             for i, a in enumerate(t)))
                assert generic_tame(d, g, m).degrees == best
    # dual-graph enumeration against the brute-force generator
    for d in (3, 4, 5):
        for g in range(2, 21):
            brute = set()
            for profile in partitions(d):
                total = g - len(profile) + 1
                if total < 0:
                    continue
                for g_l in range(total + 1):
                    brute.add(canonical_label(
                        two_vertex_graph(d, profile, g_l, total - g_l)))
            assert {canonical_label(gr)
                    for gr in enumerate_two_vertex(d, g)} == brute
    _report(9, started, 30.0, "Riemann-Roch, syzygy symmetry, tame argmax, graphs")
