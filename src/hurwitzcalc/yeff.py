"""Inequality propagation certifying that the boundary correction Y in
X = a*lambda - b*delta - Y has nonnegative coefficients.

Every enumerated boundary divisor is intersected with a partial-pencil
family lying inside it.  Writing the intersection of the family with
X = a*lambda - b*delta - Y and using that the family meets X nonnegatively
(or with a computed value, for the degree-five families) yields a linear
inequality

    c(source, Y) >= sum of target coefficients + slack,

with slack = (b*delta_rec - a*lambda_rec + X_rec) / (-self hit).  Chains of
such inequalities ground out at rational-vertex pencils, at the
irreducible-node divisor (whose Y-coefficient is zero), or at disconnected
configurations covered by the hyperelliptic-pencil margin, and propagate
lower bounds upward.  The certificate records every chain so it can be
replayed.

Each slack is a polynomial in the genera, derived once per process for
each rule shape (a degree and node profile, or one of the two degree-three
hyperelliptic-vertex shapes) with the varied vertex genus gR symbolic.  It
reads the rows of `family_calc.PENCIL_TABLE`, the same rows the pencil
records evaluate: the row's vertex pencil form, less its gluing sections
in delta.  A profile that no row carries gets the same construction, one
section per node.  The degree-five ramified composite is checked against
its closed form identically, once per profile.  A rule only evaluates its
shape's form at the graph's genera and multiplies by the scale of X.

A rule's flags come from its shape's row too: it is reconstructed when no
row carries the shape or its family's genus is below the row's `min_gr`,
and it is an equality when the row's family does not sweep its divisor.
Every rule's source and target labels are read from `graphs`, which builds
and labels each boundary graph once per process, so a warm `certify`
builds and labels no graph.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from .divisor_classes import admissible_genus, class_x
from .errors import NotDivisorial, PropagationFailure, Record, UnknownKind, require
from .family_calc import (PENCIL_TABLE, PencilRow, _basechange_hits, _nonnegative_genus,
                          check_profile, pencil_symbols, vertex_pencil_form)
from .graphs import hyperelliptic_vertex_label, labelled_two_vertex, two_vertex_label
from .symkernel import Poly, int_if_integral

# pseudo-targets that ground the induction
IRREDUCIBLE_NODE = "irreducible-node divisor (coefficient 0)"
DISCONNECTED = "disconnected residual (multi-vertex, covered by margin)"


class InequalityRule(Record):
    """One propagation step: c(source) >= sum of coeff * c(target) + slack."""

    source: str
    targets: tuple[tuple[str, Fraction], ...]
    slack: Fraction
    provenance: str
    reconstructed: bool = False
    equality: bool = False

    def to_json(self) -> dict:
        return {"source": self.source,
                "targets": [[t, str(c)] for t, c in self.targets],
                "slack": str(self.slack),
                "provenance": self.provenance,
                "reconstructed": self.reconstructed,
                "equality": self.equality}


class GraphResult(Record):
    label: str
    lower_bound: Fraction
    chain: list[dict]


class Certificate(Record):
    d: int
    g: int
    a: Fraction
    b: Fraction
    per_graph: dict[str, GraphResult]
    status: str
    notes: list[str]

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def to_json(self) -> dict:
        return {
            "d": self.d, "g": self.g,
            "a": str(self.a), "b": str(self.b),
            "status": self.status,
            "notes": list(self.notes),
            "graphs": {label: {"lowerBound": str(res.lower_bound),
                               "chain": res.chain}
                       for label, res in sorted(self.per_graph.items())},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        per_graph = {
            label: GraphResult(label, Fraction(entry["lowerBound"]),
                               entry["chain"])
            for label, entry in data["graphs"].items()}
        return cls(data["d"], data["g"], Fraction(data["a"]), Fraction(data["b"]),
                   per_graph, data["status"], list(data.get("notes", [])))


# ---------------------------------------------------------------------------
# Symbolic slack forms, derived once per rule shape
# ---------------------------------------------------------------------------

def slope_normalization(d: int) -> tuple[Poly, Poly]:
    """The per-degree (a, b) polynomials in g, read off the class X (which
    is derived once per degree)."""
    data = class_x(d)
    return data["a"].as_poly(), data["b"].as_poly()


def _slope_pair(d: int, g: int, scale: Fraction) -> tuple[Fraction, Fraction]:
    """(a, b) of the class X at an admissible (d, g), times `scale`."""
    if not admissible_genus(d, g):
        raise NotDivisorial(f"(d, g) = ({d}, {g}) is not admissible")
    a_poly, b_poly = slope_normalization(d)
    return _scaled(a_poly.eval({"g": g}), scale), _scaled(b_poly.eval({"g": g}), scale)


def _scaled(value: Fraction, scale: Fraction) -> Fraction:
    """value * scale, with no product at scale 1."""
    return value if scale == 1 else value * scale


# the coefficient of a target that a rule rests on once, shared by every rule
_UNIT = Fraction(1)

# the kind of the pencil-table row that grounds each rule shape; a shape
# that no row carries gets a reconstructed rule
_KIND_BY_SHAPE = {row.shape: kind for kind, row in PENCIL_TABLE.items() if row.shape}


@cache
def _vertex_slack(d: int, vertex: str, sections: int) -> Poly:
    """b*delta - a*lambda + X, in g and gR, of the partial pencil varying a
    vertex of the given type inside a degree-d divisor: the plain pencil
    with `sections` gluing sections taken off delta (self hit -1)."""
    a, b = slope_normalization(d)
    form = vertex_pencil_form(vertex)
    return b * (form["delta"] - sections) - a * form["lambda"] + form["X"]


def _row_slack(d: int, kind: str) -> Poly:
    row = PENCIL_TABLE[kind]
    return _vertex_slack(d, row.vertex, row.sections)


@cache
def _composite_form(profile: tuple[int, ...]) -> tuple[Fraction, Poly]:
    """(coefficient of c(unramified), slack) of the degree-five ramified
    rule, with the family genus gR symbolic: the base-changed family of the
    profile, composed with the simple-collision relation at the same genus
    to eliminate the collision divisor.  Required to give
    c(profile) = (lcm r / 10)(9 c(unramified) + 15b - P) identically, P
    being the unramified slack at gR."""
    row = PENCIL_TABLE["pentagonal_basechange"]
    n = row.copies
    b = slope_normalization(5)[1]
    # a*lambda - b*delta - X of the family, from its row
    s = -n * _vertex_slack(5, row.vertex, row.sections)
    hits, simple = _basechange_hits(profile), _basechange_hits(row.shape)
    require(-hits["delta_self"] == -simple["delta_self"] == 9 * n,
            "base-change self-intersection = -9 * 5!")
    t_profile = hits["delta_profile"]
    collisions = hits.get("delta_collision", Fraction(0))
    simple_total = simple["delta_profile"] + simple.get("delta_collision", Fraction(0))
    # c(profile) T = S + 9N c(unram) - collisions * c(simple),
    # c(simple) * simple_total = S + 9N c(unram)
    kept = (1 - collisions / simple_total) / t_profile
    ratio = Fraction(lcm(*profile) * sum(m - 1 for m in profile), 10)
    require(9 * n * kept == 9 * ratio, f"base-change composite coefficient, {profile}")
    slack = kept * s
    require(slack == ratio * (15 * b - symbolic_slack(5, (1, 1, 1, 1, 1))),
            f"base-change composite slack, {profile}")
    return 9 * ratio, slack


def symbolic_slack(d: int, profile: tuple[int, ...]) -> Poly:
    """Slack of the rule for the two-vertex divisors with the given node
    profile, in g and the varied vertex genus gR (and v, kR, mR where those
    enter); the rule at scale s has s times this form at the graph's
    genera.  It is the slack of the partial pencil varying the gR vertex
    (the vertex type of the degree's unramified row, less one gluing section
    per node), and for a ramified degree-five profile the base-change
    composite."""
    unramified = _KIND_BY_SHAPE.get((1,) * d)
    if unramified is None:
        raise NotDivisorial(f"no symbolic slack form for d={d}, profile={profile}")
    check_profile(d, profile)
    if d == 5 and profile != (1,) * d:
        return _composite_form(profile)[1]
    return _vertex_slack(d, PENCIL_TABLE[unramified].vertex, len(profile))


def symbolic_slack_threevertex(d3_shape: str) -> Poly:
    """Slack of the degree-three hyperelliptic-vertex rules:
    g(gR+2) - 6gR for the three-vertex shape, g(gR+3) - 6gR for the
    four-vertex shape."""
    kind = _KIND_BY_SHAPE.get(d3_shape)
    if kind is None or not isinstance(d3_shape, str):
        raise UnknownKind(f"unknown degree-three shape {d3_shape!r}")
    return _row_slack(3, kind)


def check_closed_form_d4(g: int) -> bool:
    """Nonnegativity of the summed degree-four inequality in closed form:

        3(13b/2 - a) C(i+1, 2) + ((13k/2 + 7/2) b - k a) i >= 0

    for all i >= 0 with 3i + k <= (g-3)/2 and k in {0, 1, 2}, at the
    degree-four (a, b) of X.  Each term is i * L_k(i) with L_k linear in i,
    so it is read off L_k at i = 1 and at the last i, exactly; a k whose
    range has no i >= 1 holds only the zero term."""
    a_poly, b_poly = slope_normalization(4)
    a, b = a_poly.eval({"g": g}), b_poly.eval({"g": g})

    def line(k: int, i: int) -> Fraction:
        return (3 * (Fraction(13, 2) * b - a) * (i + 1) / 2
                + (Fraction(13, 2) * k + Fraction(7, 2)) * b - k * a)
    lasts = {k: ((g - 3) // 2 - k) // 3 for k in (0, 1, 2)}
    return all(line(k, i) >= 0 for k, last in lasts.items() if last >= 1
               for i in (1, last))


# ---------------------------------------------------------------------------
# Rule generation
# ---------------------------------------------------------------------------

@cache
def _ram_reduction(profile: tuple[int, ...]) -> tuple[tuple[int, ...], Fraction] | None:
    """Profile after resolving one point of the largest ramified part,
    m -> (m-1, 1), with the number of reduced-ramification fibers (one per
    nonreduced basepoint) landing on it; None if the profile is unramified.
    Grouping those fibers on a single target graph needs the ramified parts
    equal, which holds for every profile of degree <= 4."""
    parts = sorted(profile, reverse=True)
    if parts[0] < 2:
        return None
    ramified = [m for m in profile if m >= 2]
    require(len(set(ramified)) == 1, f"{profile} has one ramified part size")
    reduced = tuple(sorted(parts[1:] + [parts[0] - 1, 1], reverse=True))
    return reduced, Fraction(len(ramified))


def build_rules(d: int, g: int,
                scale: Fraction = Fraction(1)) -> dict[str, InequalityRule]:
    """One propagation rule per enumerated boundary graph.  Its slack is
    `scale` times the slack form of the graph's shape at the graph's genera
    (every slack is linear in (a, b, X)); its targets and flags follow from
    the graph.  Certified/failed status is invariant under positive
    rescaling."""
    _slope_pair(d, g, scale)             # admissible (d, g) only
    rules: dict[str, InequalityRule] = {}

    for label, graph in labelled_two_vertex(d, g).items():
        profile = tuple(e.local_degree for e in graph.edges)
        g_small, g_big = sorted(v.genus for v in graph.vertices)
        rules[label] = _two_vertex_rule(d, g, scale, label, profile, g_big, g_small)

    if d == 3:
        # the three-vertex graph at gR has gL = g - 1 - gR.  A step of either
        # shape rests on it at gR - 1, on the irreducible node at gR = 1, and
        # on nothing at gR = 0, where the four-vertex form is the rational
        # vertex pencil's 3b
        three_label = {g_r: hyperelliptic_vertex_label("threevertex", g - 1 - g_r, g_r)
                       for g_r in range(1, g)}
        four_label = {g_r: hyperelliptic_vertex_label("fourvertex", g - g_r, g_r)
                      for g_r in range(g // 2 + 1)}
        rests = {0: (), 1: ((IRREDUCIBLE_NODE, _UNIT),)}
        rests.update((g_r + 1, ((label, _UNIT),)) for g_r, label in three_label.items())
        for shape, labels in (("three", three_label), ("four", four_label)):
            form = symbolic_slack_threevertex(f"{shape}vertex")
            for g_r, label in labels.items():
                rules[label] = InequalityRule(label, rests[g_r],
                                              _scaled(form.eval({"g": g, "gR": g_r}), scale),
                                              f"hyperelliptic {shape}-vertex step")
    return rules


def _two_vertex_rule(d: int, g: int, scale: Fraction, label: str,
                     profile: tuple[int, ...], g_l: int, g_r: int) -> InequalityRule:
    """The rule of the partial pencil varying the genus-g_r vertex of a
    two-vertex graph with the given node profile, g_l being the other
    vertex's genus.  A profile without a pencil-table row (degree four
    beyond (2, 1, 1)) gets the same construction with more nonreduced
    basepoints; the row, or its absence, sets the flags."""
    unram = (1,) * d
    if d == 5 and profile != unram:
        return _composite_rule(g, scale, label, profile, g_l, g_r)
    if d == 5 and g_r == 0:
        # a genus-0 vertex is rational: its five-basepoint pencil grounds the chain
        slack = _row_slack(5, "rational_partial").eval({"g": g, "dv": 5})
        return InequalityRule(label, (), _scaled(slack, scale),
                              "degree-5 rational vertex pencil")
    targets: list[tuple[str, Fraction]] = []
    if g_r >= d - 1:
        targets.append((two_vertex_label(d, unram, g_l + len(profile) - 1, g_r - (d - 1)),
                        _UNIT))
    elif g_r >= 1:
        targets.append((DISCONNECTED, _UNIT))
    reduction = _ram_reduction(profile)
    if reduction is not None and g_r >= 1:
        reduced, multiplicity = reduction
        targets.append((two_vertex_label(d, reduced, g_l, g_r - 1), multiplicity))

    slack = _scaled(symbolic_slack(d, profile).eval(pencil_symbols(g_r, g)), scale)
    family = "unramified" if profile == unram else f"ramified {profile}"
    row = PENCIL_TABLE.get(_KIND_BY_SHAPE.get(profile))
    return InequalityRule(label, tuple(targets), slack,
                          f"degree-{d} {family} partial pencil",
                          reconstructed=_reconstructed(row, g_r),
                          equality=row is not None and not row.sweeps)


def _reconstructed(row: PencilRow | None, genus: int) -> bool:
    """No pencil-table row carries the rule's shape, or its family's genus is below `min_gr`."""
    return row is None or genus < row.min_gr


def _composite_rule(g: int, scale: Fraction, label: str,
                    profile: tuple[int, ...], g_l: int, g_r: int) -> InequalityRule:
    """The degree-five ramified rule: the base-changed general pencil,
    composed with the simple-collision relation to eliminate the collision
    divisor.  The family varies the smaller genus g_r when it can."""
    r = sum(m - 1 for m in profile)
    fixed, varied = (g_l, g_r) if g_r > r else (g_r, g_l)
    if varied <= r:
        raise PropagationFailure(label, "no admissible base-change orientation")
    coeff_unram, form = _composite_form(profile)
    target = two_vertex_label(5, (1,) * 5, fixed, varied - r)
    row = PENCIL_TABLE.get(_KIND_BY_SHAPE.get(profile))
    return InequalityRule(label, ((target, coeff_unram),),
                          _scaled(form.eval(pencil_symbols(varied - r, g)), scale),
                          f"degree-5 base-change composite {profile}",
                          reconstructed=_reconstructed(row, varied - r), equality=True)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

_MARGIN_KINDS = ("hyperelliptic_3vertex", "trigonal_unramified_3pts")


@cache
def _margin_forms(d: int) -> tuple[Poly, ...]:
    """Slack forms of the hyperelliptic-vertex and, for d >= 4, the
    trigonal-vertex pencils; both pencil counts are required linear in the
    vertex genus, so the forms are linear in gR."""
    counts = (vertex_pencil_form(PENCIL_TABLE[kind].vertex)["delta"] for kind in _MARGIN_KINDS)
    require(all(count.total_degree() <= 1 for count in counts),
            "hyperelliptic and trigonal pencil counts are linear in the genus")
    kinds = _MARGIN_KINDS if d >= 4 else _MARGIN_KINDS[:1]
    return tuple(_row_slack(d, kind) for kind in kinds)


def multivertex_margin(d: int, g: int, scale: Fraction = Fraction(1)) -> Fraction:
    """Smallest slack of the hyperelliptic-vertex (and, when a degree-three
    vertex fits beside another one, trigonal-vertex) pencils over all vertex
    genera up to g.  These families reduce any boundary divisor with three
    or more vertices, and their slacks stay nonnegative because the
    pencils' slopes exceed a/b.

    Each slack is linear in the vertex genus, so its minimum over 1..g sits
    at g_r = 1 or g_r = g."""
    endpoints = (1, _nonnegative_genus(g))
    return min(_scaled(form.eval({"g": g, "gR": g_r}), scale)
               for form in _margin_forms(d) for g_r in endpoints)


def certify(d: int, g: int, scale: Fraction = Fraction(1)) -> Certificate:
    """Propagate the rule system and certify c(graph, Y) >= 0 for every
    enumerated boundary graph at (d, g)."""
    a, b = _slope_pair(d, g, scale)
    rules = build_rules(d, g, scale)

    # a bound is an int while it is integral: integers add with no gcd, and
    # a Fraction is built only for the graph's record
    bounds: dict[str, int | Fraction] = {IRREDUCIBLE_NODE: 0, DISCONNECTED: 0}
    chains: dict[str, list[dict]] = {IRREDUCIBLE_NODE: [], DISCONNECTED: []}
    in_progress: set[str] = set()

    def bound(label: str) -> int | Fraction:
        if label in bounds:
            return bounds[label]
        if label in in_progress:
            raise PropagationFailure(label, "cyclic rule dependency")
        if label not in rules:
            raise PropagationFailure(label, "no rule reaches this graph")
        in_progress.add(label)
        rule = rules[label]
        total = int_if_integral(rule.slack)
        steps = []
        for target, coeff in rule.targets:
            total += bound(target) if coeff == 1 else int_if_integral(coeff) * bound(target)
            steps.extend(chains[target])
        in_progress.discard(label)
        bounds[label] = total = int_if_integral(total)
        chains[label] = steps + [{
            "rule": rule.provenance,
            "source": label,
            "slack": str(rule.slack),
            "targets": [[t, str(c), str(bounds[t])] for t, c in rule.targets],
            "reconstructed": rule.reconstructed,
            "equality": rule.equality,
        }]
        return total

    per_graph: dict[str, GraphResult] = {}
    status = "certified"
    for label in sorted(rules):
        value = bound(label)
        per_graph[label] = GraphResult(label, Fraction(value), chains[label])
        if value < 0 and status == "certified":
            status = f"failed:{label}"

    margin = multivertex_margin(d, g, scale)
    notes = [f"multi-vertex margin: {margin}"]
    if margin < 0 and status == "certified":
        status = "failed:multivertex-margin"
    if d == 4:
        ok = check_closed_form_d4(g)
        notes.append(f"closed-form nonnegativity of the summed step: {ok}")
        if not ok and status == "certified":
            status = "failed:closed-form"
    return Certificate(d, g, a, b, per_graph, status, notes)


def replay(cert: Certificate) -> bool:
    """Re-run `certify` at the certificate's (d, g) and scale and confirm
    that the fresh certificate equals it whole: b, the status, the notes
    and every graph's lower bound and chain.  The scale of the class X is
    read off the recorded a."""
    scale = cert.a / _slope_pair(cert.d, cert.g, Fraction(1))[0]
    return certify(cert.d, cert.g, scale) == cert
