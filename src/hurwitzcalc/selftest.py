"""Deterministic identity suite behind `hurwitzcalc selftest`.

Each check certifies an exact identity of the engine: symbolic relations
among the family invariants, ring constants, pencil counts, slope pins,
and a fast certification run.  Independent of locale and environment; no
randomness.
"""

from __future__ import annotations

from fractions import Fraction

from .bundles import SplittingType, syzygy_rank
from .chow import (grassmann_top_constant_from_twist, ring_grassmann_bundle_g25,
                   ring_proj_bundle_over_p1)
from .directrix import (DirectrixFamily, maroni_intersection_pentagonal,
                        rotating_directrix_class, rotating_directrix_closed_form)
from .divisor_classes import (ChernData, ce_class, ce_class_from_bogomolov, class_x,
                              invariants_from_chern, maroni_class,
                              maroni_class_from_bogomolov, slope_bound)
from .errors import EngineError, require
from .family_calc import (basechange_section_bookkeeping, pentagonal_pencil_numbers,
                          tetragonal_pencil_delta, trigonal_pencil_delta)
from .graphs import canonical_label, enumerate_two_vertex, partitions, two_vertex_graph
from .symkernel import Poly, ceil_div
from .yeff import certify, symbolic_slack


def _expect(what: str, actual, expected) -> None:
    """Require actual == expected; the failure names both sides."""
    require(actual == expected, f"{what}: got {actual}, expected {expected}")


def _check_symbolic_identities():
    d, g, e2, f2, s = (Poly.var(n) for n in ("d", "g", "ch2E", "ch2F", "c1sqE"))
    inv = invariants_from_chern(ChernData(d, g, e2, f2, s))
    _expect("12 lambda - kappa - delta", 12 * inv.lam - inv.kappa - inv.delta, 0)
    b = 2 * g + 2 * d - 2
    relation = (24 * (b - 1) * inv.lam - 3 * (b - 2) * inv.delta
                + 6 * inv.d_div - (b - 10) * inv.t_div)
    _expect("24(b-1) lambda - 3(b-2) delta + 6D - (b-10) T", relation, 0)


def _check_ring_constants():
    pe = ring_proj_bundle_over_p1(3, Poly.var("u") + Poly.var("v"))
    z, f = pe.gen("z"), pe.gen("f")
    u, v = Poly.var("u"), Poly.var("v")
    _expect("integral z^3 on P(E)", (z ** 3).integrate(), u + v)
    _expect("integral z^2 f on P(E)", (z ** 2 * f).integrate(), 1)
    _expect("integral (2z - uf)^2 (2z - vf) on P(E)",
            ((2 * z - u * f) ** 2 * (2 * z - v * f)).integrate(), 4 * v)
    gr = ring_grassmann_bundle_g25(Poly.var("c1Fdual"))
    zg, fg = gr.gen("z"), gr.gen("f")
    _expect("integral z^6 f on the G(2,5)-bundle", (zg ** 6 * fg).integrate(), 5)
    _expect("grassmann_top_constant_from_twist()", grassmann_top_constant_from_twist(),
            (Fraction(14), Fraction(0)))


def _check_pencils():
    _expect("trigonal_pencil_delta(4)", trigonal_pencil_delta(4), 34)
    _expect("tetragonal_pencil_delta(5)", tetragonal_pencil_delta(5), 4 + 30 + 6)
    _expect("pentagonal_pencil_numbers(16)", pentagonal_pencil_numbers(16),
            {"k1": 17, "B": 25, "lambda": 18, "delta": 121})


def _check_slopes():
    _expect("slope_bound(3, 4)", slope_bound(3, 4), Fraction(17, 2))
    _expect("slope_bound(4, 9)", slope_bound(4, 9), Fraction(22, 3))
    _expect("slope_bound(5, 16)", slope_bound(5, 16), Fraction(27, 4))


def _check_class_pipeline():
    for deg in (3, 4, 5):
        pairs = [("M", maroni_class(deg), maroni_class_from_bogomolov(deg))]
        if deg >= 4:
            pairs.append(("CE", ce_class(deg), ce_class_from_bogomolov(deg)))
        for name, printed, derived in pairs:
            for coef in ("lambda_coef", "delta_coef", "d_coef"):
                _expect(f"{name} {coef} at d = {deg}, printed vs Bogomolov",
                        getattr(printed, coef), getattr(derived, coef))
    g = Poly.var("g")
    _expect("class_x(5) weight of M", class_x(5)["weightM"], (2 * g - 22) / 5)


def _check_directrix():
    for n in (4, 5):
        for r in range(1, n - 1):
            for a in (-2, 0, 2):
                for l in (-2, 0, 1):
                    fam = DirectrixFamily(n, r, a, l)
                    _expect(f"directrix class of {fam} vs closed form",
                            rotating_directrix_class(fam),
                            rotating_directrix_closed_form(fam))
    _expect("maroni_intersection_pentagonal(16)", maroni_intersection_pentagonal(16), 2)
    _expect("maroni_intersection_pentagonal(36)", maroni_intersection_pentagonal(36), 4)


def _check_graphs():
    graphs = enumerate_two_vertex(3, 6)
    seen = set()
    for profile in partitions(3):
        total = 6 - len(profile) + 1
        for gl in range(total + 1):
            seen.add(canonical_label(two_vertex_graph(3, profile, gl, total - gl)))
    _expect("enumerate_two_vertex(3, 6) labels vs profile sweep",
            {canonical_label(gr) for gr in graphs}, seen)


def _check_bookkeeping():
    books = basechange_section_bookkeeping(5, 10, (2, 1, 1, 1))
    for key, expected in (("pairInt", 60), ("selfInt", -120), ("blownSelfInt", -1080)):
        _expect(f"base-change bookkeeping {key}", books[key], expected)


def _check_slacks():
    g, g_r = Poly.var("g"), Poly.var("gR")
    _expect("symbolic_slack(3, (1, 1, 1))", symbolic_slack(3, (1, 1, 1)), 3 * g - 6 * g_r)
    _expect("symbolic_slack(3, (2, 1))", symbolic_slack(3, (2, 1)), 4 * g - 6 * g_r)
    _expect("symbolic_slack(3, (3,))", symbolic_slack(3, (3,)), 5 * g - 6 * g_r)
    relaxed = symbolic_slack(4, (2, 1, 1)).subs({"v": (g_r + 3) / 2})
    _expect("symbolic_slack(4, (2, 1, 1)) at v = (gR + 3)/2", relaxed, 9 * g - 15 * g_r)


def _check_certification():
    _expect("certify(3, 4) status", certify(3, 4).status, "certified")


def _check_bundles():
    for degrees in ((3, 3, 3), (1, 1, 2, 2, 2), (-2, 0, 5)):
        t = SplittingType(degrees)
        _expect(f"h0 - h1 of {t}", t.h0() - t.h1(), t.degree + t.rank)
    for d in range(4, 9):
        for i in range(1, d - 2):
            _expect(f"syzygy_rank({d}, {i}) vs index {d - 2 - i}",
                    syzygy_rank(d, i), syzygy_rank(d, d - 2 - i))
    _expect("ceil_div(100, 6), ceil_div(-60, 4), ceil_div(0, 5)",
            (ceil_div(100, 6), ceil_div(-60, 4), ceil_div(0, 5)), (17, -15, 0))


CHECKS = (
    ("symbolic identities (Mumford, boundary relation)", _check_symbolic_identities),
    ("Chow-ring constants", _check_ring_constants),
    ("pencil singular-member counts", _check_pencils),
    ("slope pins", _check_slopes),
    ("class pipeline vs Bogomolov route", _check_class_pipeline),
    ("rotating directrices", _check_directrix),
    ("graph enumeration", _check_graphs),
    ("base-change bookkeeping", _check_bookkeeping),
    ("propagation slacks", _check_slacks),
    ("certification (3, 4)", _check_certification),
    ("splitting-type combinatorics", _check_bundles),
)


def run(verbose: bool = True) -> bool:
    """Run every check; print one line per check when verbose, naming what
    was compared when a check fails.  True when all pass."""
    ok = True
    for name, check in CHECKS:
        try:
            check()
            line = f"[PASS] {name}"
        except EngineError as exc:
            line = f"[FAIL] {name}: {exc}"
            ok = False
        if verbose:
            print(line)
    return ok
