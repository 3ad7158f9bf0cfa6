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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm

from .bundles import k1_pentagonal, m_r_pentagonal
from .divisor_classes import admissible_genus, class_x
from .errors import NotDivisorial, PropagationFailure, require
from .family_calc import (_hyperelliptic_form, _trigonal_form,
                          partial_pencil_record,
                          pentagonal_basechange_profile_record,
                          tetragonal_pencil_delta, trigonal_pencil_delta,
                          hyperelliptic_pencil_delta)
from .graphs import (canonical_label, graph_four_vertex_d3,
                     graph_three_vertex_d3, enumerate_two_vertex,
                     two_vertex_graph)
from .symkernel import Poly

# pseudo-targets that ground the induction
IRREDUCIBLE_NODE = "irreducible-node divisor (coefficient 0)"
DISCONNECTED = "disconnected residual (multi-vertex, covered by margin)"


@dataclass(frozen=True)
class InequalityRule:
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


@dataclass
class GraphResult:
    label: str
    lower_bound: Fraction
    chain: list[dict]


@dataclass
class Certificate:
    d: int
    g: int
    a: Fraction
    b: Fraction
    per_graph: dict[str, GraphResult]
    status: str
    notes: list[str] = field(default_factory=list)

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
# Symbolic slack forms (used for the identity checks and for display)
# ---------------------------------------------------------------------------

@cache
def slope_normalization(d: int) -> tuple[Poly, Poly]:
    """The per-degree (a, b) polynomials in g, from the class X, derived
    once per degree."""
    data = class_x(d)
    return data["a"].as_poly(), data["b"].as_poly()


def symbolic_record_form(d: int, profile: tuple[int, ...]) -> dict[str, Poly]:
    """lambda, delta, and X-intersection of the partial pencil varying one
    vertex of a two-vertex divisor with the given node profile, as
    polynomials in gR (and v, kR, mR where those enter).

    delta is the plain-pencil count minus one per gluing section; the
    degree-five entries carry the exact X-value from the Maroni rotation
    count, everything else only meets X nonnegatively (encoded as 0 here).
    """
    g_r = Poly.var("gR")
    k = len(profile)
    if d == 3:
        return {"lambda": g_r, "delta": 7 * g_r + 6 - k, "x": Poly.const(0)}
    if d == 4:
        v = Poly.var("v")
        return {"lambda": g_r, "delta": v + 6 * g_r + 6 - k, "x": Poly.const(0)}
    if d == 5 and k == 5:
        g, k_r, m_r = Poly.var("g"), Poly.var("kR"), Poly.var("mR")
        weight = (2 * g - 22) / 5
        return {"lambda": 2 * g_r + 3 - k_r,
                "delta": 13 * g_r + 27 - 7 * k_r,
                "x": weight * (k_r + m_r)}
    raise NotDivisorial(f"no symbolic record form for d={d}, profile={profile}")


def symbolic_slack(d: int, profile: tuple[int, ...]) -> Poly:
    """b*delta - a*lambda + X for the record above (self hit -1)."""
    a, b = slope_normalization(d)
    form = symbolic_record_form(d, profile)
    return b * form["delta"] - a * form["lambda"] + form["x"]


def symbolic_slack_threevertex(d3_shape: str) -> Poly:
    """Slack of the degree-three hyperelliptic-vertex rules:
    g(gR+2) - 6gR for the three-vertex shape, g(gR+3) - 6gR for the
    four-vertex shape."""
    a, b = slope_normalization(3)
    g_r = Poly.var("gR")
    if d3_shape == "threevertex":
        delta = 8 * g_r + 2
    elif d3_shape == "fourvertex":
        delta = 8 * g_r + 3
    else:
        raise ValueError(d3_shape)
    return b * delta - a * g_r


def pentagonal_step_term(g: int, g_r: int, a: Fraction, b: Fraction,
                         scale: Fraction = Fraction(1)) -> Fraction:
    """The additive term of the degree-five unramified step,

        P = b(13 gR + 27 - 7 kR) - a(2 gR + 3 - kR) + w(kR + mR),

    with w = (2g - 22)/5.  Replacing mR by -3(gR+4)/4 turns P into exactly
    3g - (11/2) gR, so with the true ceiling P is at least that bound.
    `scale` rescales the class X, hence a, b, and w together."""
    k_r = k1_pentagonal(g_r)
    m_r = m_r_pentagonal(g_r)
    weight = Fraction(2 * g - 22, 5) * scale
    return (b * (13 * g_r + 27 - 7 * k_r)
            - a * (2 * g_r + 3 - k_r)
            + weight * (k_r + m_r))


def check_closed_form_d4(g: int) -> bool:
    """Nonnegativity of the summed degree-four inequality in closed form:

        3(13b/2 - a) C(i+1, 2) + ((13k/2 + 7/2) b - k a) i >= 0

    for all i >= 0 with 3i + k <= (g-3)/2 and k in {0, 1, 2}, at
    (a, b) = (13g + 15, 2g).  Verified exactly, term by term."""
    a = Fraction(13 * g + 15)
    b = Fraction(2 * g)
    for k in (0, 1, 2):
        i = 0
        while 3 * i + k <= (g - 3) // 2:
            value = (3 * (Fraction(13, 2) * b - a) * comb(i + 1, 2)
                     + ((Fraction(13, 2) * k + Fraction(7, 2)) * b - k * a) * i)
            if value < 0:
                return False
            i += 1
    return True


# ---------------------------------------------------------------------------
# Rule generation
# ---------------------------------------------------------------------------

def _ram_reduction(profile: tuple[int, ...]) -> tuple[int, ...] | None:
    """Profile after resolving one point of the largest ramified part:
    m -> (m-1, 1); None if the profile is unramified."""
    parts = sorted(profile, reverse=True)
    if parts[0] < 2:
        return None
    m = parts[0]
    rest = parts[1:]
    return tuple(sorted(rest + [m - 1, 1], reverse=True))


def _two_vertex_key(d: int, profile: tuple[int, ...], x: int, y: int) -> str:
    return canonical_label(two_vertex_graph(d, profile, x, y))


def _record_for(d: int, profile: tuple[int, ...], g_r: int,
                g: int) -> tuple[Fraction, Fraction, Fraction, bool]:
    """(lambda, delta, x_lower, reconstructed) of the partial pencil varying
    a genus-g_r vertex with the given node profile, pulled from the named
    pencil records where one exists."""
    k = len(profile)
    if d == 3:
        named = {(1, 1, 1): "trigonal_unramified_3pts",
                 (2, 1): "trigonal_ramified_21",
                 (3,): "trigonal_triple"}
        rec = partial_pencil_record(named[profile], gr=g_r)
        return rec.lam, rec.delta, Fraction(0), False
    if d == 4:
        if profile == (1, 1, 1, 1):
            rec = partial_pencil_record("tetragonal_unramified_4pts", gr=g_r)
            return rec.lam, rec.delta, Fraction(0), False
        if profile == (2, 1, 1):
            rec = partial_pencil_record("tetragonal_ramified_2pp", gr=g_r)
            return rec.lam, rec.delta, Fraction(0), False
        # deeper ramification: same construction with more nonreduced
        # basepoints; delta is the plain count minus one per gluing section
        delta = tetragonal_pencil_delta(g_r) - k
        return Fraction(g_r), delta, Fraction(0), True
    raise NotDivisorial(f"no record route for d={d}")


def build_rules(d: int, g: int,
                scale: Fraction = Fraction(1)) -> dict[str, InequalityRule]:
    """One propagation rule per enumerated boundary graph, generated from
    the pencil records by intersecting with X = a*lambda - b*delta - Y.
    `scale` multiplies (a, b); certified/failed status is invariant under
    positive rescaling."""
    if not admissible_genus(d, g):
        raise NotDivisorial(f"(d, g) = ({d}, {g}) is not admissible")
    a_poly, b_poly = slope_normalization(d)
    a = a_poly.eval({"g": g}) * scale
    b = b_poly.eval({"g": g}) * scale

    rules: dict[str, InequalityRule] = {}

    for graph in enumerate_two_vertex(d, g):
        label = canonical_label(graph)
        profile = tuple(sorted((e.local_degree for e in graph.edges), reverse=True))
        genera = sorted(v.genus for v in graph.vertices)
        g_small, g_big = genera[0], genera[1]
        if d in (3, 4):
            rules[label] = _rule_d34(d, g, a, b, label, profile, g_big, g_small)
        else:
            rules[label] = _rule_d5(g, a, b, scale, label, profile, g_big, g_small)

    if d == 3:
        for g_r in range(1, g):
            g_l = g - 1 - g_r
            label = canonical_label(graph_three_vertex_d3(g_l, g_r))
            rec = partial_pencil_record("hyperelliptic_3vertex", gr=g_r)
            slack = b * rec.delta - a * rec.lam
            if g_r - 1 == 0:
                targets = ((IRREDUCIBLE_NODE, Fraction(1)),)
            else:
                targets = ((canonical_label(graph_three_vertex_d3(g_l + 1, g_r - 1)),
                            Fraction(1)),)
            rules[label] = InequalityRule(label, targets, slack,
                                          "hyperelliptic three-vertex step")
        for g_r in range(0, g // 2 + 1):
            g_l = g - g_r
            if g_l < g_r:
                continue
            label = canonical_label(graph_four_vertex_d3(g_l, g_r))
            rec = partial_pencil_record("hyperelliptic_4vertex", gr=g_r) \
                if g_r >= 1 else None
            delta = rec.delta if rec else Fraction(3)   # rational vertex pencil
            lam = rec.lam if rec else Fraction(0)
            slack = b * delta - a * lam
            if g_r >= 2:
                targets = ((canonical_label(graph_three_vertex_d3(g_l, g_r - 1)),
                            Fraction(1)),)
            elif g_r == 1:
                targets = ((IRREDUCIBLE_NODE, Fraction(1)),)
            else:
                targets = ()
            rules[label] = InequalityRule(label, targets, slack,
                                          "hyperelliptic four-vertex step")
    return rules


def _rule_d34(d: int, g: int, a: Fraction, b: Fraction, label: str,
              profile: tuple[int, ...], g_l: int, g_r: int) -> InequalityRule:
    lam, delta, x_low, reconstructed = _record_for(d, profile, g_r, g)
    slack = b * delta - a * lam + x_low
    k = len(profile)
    targets: list[tuple[str, Fraction]] = []

    split_right = g_r - (d - 1)
    split_left = g_l + k - 1
    if split_right >= 0:
        unram = tuple([1] * d)
        targets.append((_two_vertex_key(d, unram, split_left, split_right),
                        Fraction(1)))
    elif g_r >= 1:
        targets.append((DISCONNECTED, Fraction(1)))

    reduced = _ram_reduction(profile)
    if reduced is not None and g_r - 1 >= 0:
        # one reduced-ramification fiber per nonreduced basepoint; grouping
        # them on a single target graph needs the ramified parts equal,
        # which holds for every profile of degree <= 4
        ramified_parts = {m for m in profile if m >= 2}
        require(len(ramified_parts) == 1, f"{profile} has one ramified part size")
        multiplicity = Fraction(sum(1 for m in profile if m >= 2))
        targets.append((_two_vertex_key(d, reduced, g_l, g_r - 1), multiplicity))

    family = "unramified" if profile == tuple([1] * d) else f"ramified {profile}"
    return InequalityRule(label, tuple(targets), slack,
                          f"degree-{d} {family} partial pencil",
                          reconstructed=reconstructed)


def _rule_d5(g: int, a: Fraction, b: Fraction, scale: Fraction, label: str,
             profile: tuple[int, ...], g_l: int, g_r: int) -> InequalityRule:
    unram = (1, 1, 1, 1, 1)
    if profile == unram:
        # the five-basepoint partial pencil: an exact relation
        if g_r == 0:
            rec = partial_pencil_record("rational_partial", dv=5)
            return InequalityRule(label, (), b * rec.delta - a * rec.lam,
                                  "degree-5 rational vertex pencil")
        slack = pentagonal_step_term(g, g_r, a, b, scale)
        reconstructed = g_r == 1
        if g_r >= 2:
            rec = partial_pencil_record("pentagonal_unramified_5pts", gr=g_r, g=g)
            x_val = rec.x_hit * scale
            require(slack == b * rec.delta - a * rec.lam + x_val,
                    f"degree-5 step term = record at gR = {g_r}")
        split_right = g_r - 4
        if split_right >= 0:
            targets = ((_two_vertex_key(5, unram, g_l + 4, split_right), Fraction(1)),)
        else:
            targets = ((DISCONNECTED, Fraction(1)),)
        return InequalityRule(label, targets, slack,
                              "degree-5 unramified partial pencil",
                              reconstructed=reconstructed, equality=True)

    # ramified: the base-changed general pencil, composed with the
    # simple-collision relation to eliminate the collision divisor
    r = sum(m - 1 for m in profile)
    orientations = [(g_l, g_r), (g_r, g_l)]
    choice = None
    for other, varied in orientations:
        if varied - r >= 1:
            choice = (other, varied - r)
            if varied == min(g_l, g_r):
                break
    if choice is None:
        raise PropagationFailure(label, "no admissible base-change orientation")
    fixed_genus, fam_genus = choice

    n = factorial(5)
    lcm_ord = lcm(*profile)
    rec_profile = pentagonal_basechange_profile_record(g, fam_genus, profile)
    rec_simple = pentagonal_basechange_profile_record(g, fam_genus, (2, 1, 1, 1))
    s_profile = (a * rec_profile.lam - b * rec_profile.delta
                 - rec_profile.x_hit * scale)
    s_simple = (a * rec_simple.lam - b * rec_simple.delta
                - rec_simple.x_hit * scale)
    t_profile = rec_profile.boundary_hits["delta_profile"]
    collisions = rec_profile.boundary_hits.get("delta_collision", Fraction(0))
    simple_total = (rec_simple.boundary_hits["delta_profile"]
                    + rec_simple.boundary_hits.get("delta_collision", Fraction(0)))
    self_hit = -rec_profile.boundary_hits["delta_self"]
    require(self_hit == -rec_simple.boundary_hits["delta_self"] == 9 * n,
            "base-change self-intersection = -9 * 5!")

    # c(profile) T = S_profile + 9N c(unram) - collisions * c(simple),
    # c(simple) * 600 = S_simple + 9N c(unram)
    coeff_unram = (9 * n - collisions * 9 * n / simple_total) / t_profile
    slack = (s_profile - collisions * s_simple / simple_total) / t_profile
    require(coeff_unram == Fraction(9 * lcm_ord * r, 10),
            f"base-change composite coefficient, {profile}")
    expected = Fraction(lcm_ord * r, 10) * (15 * b - pentagonal_step_term(
        g, fam_genus, a, b, scale))
    require(slack == expected, f"base-change composite slack, {profile}")

    target = _two_vertex_key(5, unram, fixed_genus, fam_genus)
    return InequalityRule(label, ((target, coeff_unram),), slack,
                          f"degree-5 base-change composite {profile}",
                          reconstructed=profile != (2, 1, 1, 1), equality=True)


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def multivertex_margin(d: int, g: int, scale: Fraction = Fraction(1)) -> Fraction:
    """Smallest slack of the hyperelliptic-vertex (and, when a degree-three
    vertex fits beside another one, trigonal-vertex) pencils over all vertex
    genera up to g.  These families reduce any boundary divisor with three
    or more vertices, and their slacks stay nonnegative because the
    pencils' slopes exceed a/b.

    Both pencil counts are linear in the vertex genus, so each slack is too,
    and its minimum over 1..g sits at g_r = 1 or g_r = g."""
    require(_hyperelliptic_form().total_degree() <= 1
            and _trigonal_form().total_degree() <= 1,
            "hyperelliptic and trigonal pencil counts are linear in the genus")
    a_poly, b_poly = slope_normalization(d)
    a = a_poly.eval({"g": g}) * scale
    b = b_poly.eval({"g": g}) * scale
    endpoints = (1, g)
    slacks = [b * (hyperelliptic_pencil_delta(g_r) - 2) - a * g_r for g_r in endpoints]
    if d >= 4:
        slacks += [b * (trigonal_pencil_delta(g_r) - 3) - a * g_r for g_r in endpoints]
    return min(slacks)


def certify(d: int, g: int, scale: Fraction = Fraction(1)) -> Certificate:
    """Propagate the rule system and certify c(graph, Y) >= 0 for every
    enumerated boundary graph at (d, g)."""
    if not admissible_genus(d, g):
        raise NotDivisorial(f"(d, g) = ({d}, {g}) is not admissible")
    rules = build_rules(d, g, scale)
    a_poly, b_poly = slope_normalization(d)
    a = a_poly.eval({"g": g}) * scale
    b = b_poly.eval({"g": g}) * scale

    bounds: dict[str, Fraction] = {IRREDUCIBLE_NODE: Fraction(0),
                                   DISCONNECTED: Fraction(0)}
    chains: dict[str, list[dict]] = {IRREDUCIBLE_NODE: [], DISCONNECTED: []}
    in_progress: set[str] = set()

    def bound(label: str) -> Fraction:
        if label in bounds:
            return bounds[label]
        if label in in_progress:
            raise PropagationFailure(label, "cyclic rule dependency")
        if label not in rules:
            raise PropagationFailure(label, "no rule reaches this graph")
        in_progress.add(label)
        rule = rules[label]
        total = rule.slack
        steps = []
        for target, coeff in rule.targets:
            total += coeff * bound(target)
            steps.extend(chains[target])
        in_progress.discard(label)
        bounds[label] = total
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
        per_graph[label] = GraphResult(label, value, chains[label])
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
    """Re-run every derivation chain in the certificate and confirm each
    recorded lower bound.  The scale of the class X is read off the
    recorded a."""
    a_poly, b_poly = slope_normalization(cert.d)
    scale = cert.a / a_poly.eval({"g": cert.g})
    if cert.b != b_poly.eval({"g": cert.g}) * scale:
        return False
    fresh = certify(cert.d, cert.g, scale)
    if set(fresh.per_graph) != set(cert.per_graph):
        return False
    return all(fresh.per_graph[k].lower_bound == v.lower_bound
               for k, v in cert.per_graph.items())
