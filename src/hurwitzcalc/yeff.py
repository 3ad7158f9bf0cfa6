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
replayed.  Its status names the first negative entry of one ordered list
of exact values (every graph's bound by label, the multi-vertex margin,
then at d = 4 the closed form), or is "certified".

Each rule shape (a degree and node profile, the degree-five rational
vertex, or a degree-three hyperelliptic-vertex shape) has one entry,
derived once per process from the rows of `family_calc.PENCIL_TABLE` that
the pencil records evaluate: its slack form with the family genus gR
symbolic (the row's vertex pencil form less its gluing sections in delta,
one per node where no row carries the shape; the degree-five ramified
composite checked against its closed form identically), its provenance,
its flags and its step constants.  One constructor builds every rule from
its entry: it evaluates the form at the family genus, multiplies by the
scale of X, and applies one flag rule to every rule, the rational- and
hyperelliptic-vertex ones included: reconstructed when no row carries the
shape or the family's genus is below the row's `min_gr`, an equality when
the family does not sweep its divisor.  Every label is read from `graphs`,
which validates and labels each graph shape once per process and labels a
genus pair by formatting its two genera into the shape's templates; the
enumeration gives each two-vertex graph as its label, profile and genera,
so no rule is read off a built graph.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from .divisor_classes import admissible_genus, class_x
from .errors import NotDivisorial, OutOfRange, PropagationFailure, Record, UnknownKind, require
from .family_calc import (PENCIL_TABLE, _basechange_hits, _nonnegative_genus, check_profile,
                          pencil_symbols, vertex_pencil_form)
from .graphs import hyperelliptic_vertex_label, two_vertex_label, two_vertex_splits
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
# Rule shapes: one entry each, derived once per process
# ---------------------------------------------------------------------------

def slope_normalization(d: int) -> tuple[Poly, Poly]:
    """The per-degree (a, b) polynomials in g, read off the class X (which
    is derived once per degree)."""
    data = class_x(d)
    return data["a"].as_poly(), data["b"].as_poly()


def _admissible(d: int, g: int) -> None:
    if not admissible_genus(d, g):
        raise NotDivisorial(f"(d, g) = ({d}, {g}) is not admissible")


def _slope_pair(d: int, g: int, scale: Fraction) -> tuple[Fraction, Fraction]:
    """(a, b) of the class X at an admissible (d, g), times `scale`."""
    _admissible(d, g)
    _positive(scale)
    a_poly, b_poly = slope_normalization(d)
    return _scaled(a_poly.eval({"g": g}), scale), _scaled(b_poly.eval({"g": g}), scale)


def _positive(scale: Fraction) -> None:
    """Refuse a scale of X that is not a positive int or Fraction."""
    if not isinstance(scale, (int, Fraction)) or scale <= 0:
        raise OutOfRange(f"the scale of X must be a positive rational, got {scale!r}")


def _scaled(value: Fraction, scale: Fraction) -> Fraction:
    """value * scale, with no product at scale 1."""
    return value if scale == 1 else value * scale


# the coefficient of a target that a rule rests on once, shared by every rule
_UNIT = Fraction(1)

# the kind of the pencil-table row that grounds each rule shape; a shape
# that no row carries gets reconstructed rules
_KIND_BY_SHAPE = {row.shape: kind for kind, row in PENCIL_TABLE.items() if row.shape}


@cache
def _vertex_slack(d: int, vertex: str, sections: int) -> Poly:
    """b*delta - a*lambda + X, in g and gR, of the partial pencil varying a
    vertex of the given type inside a degree-d divisor: the plain pencil
    with `sections` gluing sections taken off delta (self hit -1)."""
    a, b = slope_normalization(d)
    form = vertex_pencil_form(vertex)
    return b * (form["delta"] - sections) - a * form["lambda"] + form["X"]


class _Shape(Record):
    """What every rule of one shape shares: its slack form (in g, the family
    genus gR, and v, kR, mR when `pencil` or dv = `degree`), provenance,
    flags and step constants.  `min_gr` is None when no row carries the
    shape; `composite` is a degree-five composite's (r, coefficient)."""

    form: Poly
    provenance: str
    min_gr: int | None
    equality: bool
    degree: int
    pencil: bool
    nodes: int
    reduction: tuple[tuple[int, ...], Fraction] | None
    composite: tuple[int, Fraction] | None


@cache
def _shape(d: int, shape: tuple[int, ...] | str) -> _Shape:
    """The entry of a node profile (a partition of d), of "rational" (the
    degree-five rational vertex) or of a degree-three hyperelliptic-vertex
    shape.  A profile's form is the slack of the pencil varying its gR
    vertex, of the degree's unramified vertex type, less one gluing section
    per node.  A ramified degree-five profile's is the base-change
    composite: it eliminates the collision divisor by the simple-collision
    relation at the same genus, and must give c(profile) =
    (lcm r / 10)(9 c(unramified) + 15b - P), P the unramified slack."""
    row = PENCIL_TABLE.get("rational_partial" if shape == "rational"
                           else _KIND_BY_SHAPE.get(shape))
    equality = row is not None and not row.sweeps
    nodes, reduction, composite, unram = 0, None, None, (1,) * d
    if isinstance(shape, str):
        form = _vertex_slack(d, row.vertex, row.sections)
        provenance = (f"degree-{d} rational vertex pencil" if shape == "rational"
                      else f"hyperelliptic {shape.removesuffix('vertex')}-vertex step")
    elif d == 5 and shape != unram:
        base = PENCIL_TABLE["pentagonal_basechange"]
        n, r = base.copies, sum(m - 1 for m in shape)
        hits, simple = _basechange_hits(shape), _basechange_hits(base.shape)
        require(-hits["delta_self"] == -simple["delta_self"] == 9 * n,
                "base-change self-intersection = -9 * 5!")
        # with S = a*lambda - b*delta - X of the family, from its row:
        # c(profile) T = S + 9N c(unram) - collisions * c(simple), and
        # c(simple) * simple_total = S + 9N c(unram)
        collisions = hits.get("delta_collision", Fraction(0))
        simple_total = simple["delta_profile"] + simple.get("delta_collision", Fraction(0))
        kept = (1 - collisions / simple_total) / hits["delta_profile"]
        ratio = Fraction(lcm(*shape) * r, 10)
        require(9 * n * kept == 9 * ratio, f"base-change composite coefficient, {shape}")
        form = -n * kept * _vertex_slack(5, base.vertex, base.sections)
        require(form == ratio * (15 * slope_normalization(5)[1] - _shape(5, unram).form),
                f"base-change composite slack, {shape}")
        provenance, equality = f"degree-5 base-change composite {shape}", True
        composite = (r, 9 * ratio)
    else:
        nodes = len(shape)
        form = _vertex_slack(d, PENCIL_TABLE[_KIND_BY_SHAPE[unram]].vertex, nodes)
        family = "unramified" if shape == unram else f"ramified {shape}"
        provenance = f"degree-{d} {family} partial pencil"
        # resolving one point of the largest ramified part, m -> (m-1, 1),
        # lands one reduced-ramification fiber per nonreduced basepoint on
        # the reduced profile; grouping them on one target graph needs the
        # ramified parts equal, which holds for every profile of degree <= 4
        ramified = [m for m in shape if m >= 2]
        if ramified:
            require(len(set(ramified)) == 1, f"{shape} has one ramified part size")
            parts = sorted(shape, reverse=True)
            reduction = (tuple(sorted(parts[1:] + [parts[0] - 1, 1], reverse=True)),
                         Fraction(len(ramified)))
    return _Shape(form, provenance, None if row is None else row.min_gr, equality, d,
                  bool(form.variables() - {"g", "gR", "dv"}), nodes, reduction, composite)


def symbolic_slack(d: int, profile: tuple[int, ...]) -> Poly:
    """Slack of the rule for the two-vertex divisors with the given node
    profile, in g and the varied vertex genus gR (and v, kR, mR where those
    enter): the form of the profile's entry, which the rule at scale s
    evaluates at the graph's genera and multiplies by s."""
    if (1,) * d not in _KIND_BY_SHAPE:
        raise NotDivisorial(f"no symbolic slack form for d={d}, profile={profile}")
    check_profile(d, profile)
    return _shape(d, tuple(profile)).form


def symbolic_slack_threevertex(d3_shape: str) -> Poly:
    """Slack of the degree-three hyperelliptic-vertex rules:
    g(gR+2) - 6gR for the three-vertex shape, g(gR+3) - 6gR for the
    four-vertex shape."""
    if d3_shape not in _KIND_BY_SHAPE or not isinstance(d3_shape, str):
        raise UnknownKind(f"unknown degree-three shape {d3_shape!r}")
    return _shape(3, d3_shape).form


def check_closed_form_d4(g: int) -> bool:
    """Nonnegativity of the summed degree-four inequality in closed form:

        3(13b/2 - a) C(i+1, 2) + ((13k/2 + 7/2) b - k a) i >= 0

    for all i >= 0 with 3i + k <= (g-3)/2 and k in {0, 1, 2}, at the
    degree-four (a, b) of X: whether :func:`_closed_form_d4` is >= 0.  It
    is defined for every integer g; `certify` reads the closed form only at
    an admissible g."""
    a_poly, b_poly = slope_normalization(4)
    return _closed_form_d4(g, a_poly.eval({"g": g}), b_poly.eval({"g": g})) >= 0


def _closed_form_d4(g: int, a: Fraction, b: Fraction) -> Fraction:
    """The exact value of the degree-four closed form at (a, b): each term
    is i * L_k(i) with L_k linear in i, so the least L_k at i = 1 and at the
    last i, or 0 when no k has an i >= 1 (only zero terms).  With a = A/D
    and b = B/D over one denominator,

        4D L_k(i) = 3(13B - 2A)(i + 1) + (26k + 14)B - 4kA,

    so the least value is taken in integers and one Fraction is built."""
    den = lcm(a.denominator, b.denominator)
    big_a, big_b = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    slope = 3 * (13 * big_b - 2 * big_a)
    lasts = {k: ((g - 3) // 2 - k) // 3 for k in (0, 1, 2)}
    least = min((slope * (i + 1) + (26 * k + 14) * big_b - 4 * k * big_a
                 for k, last in lasts.items() if last >= 1 for i in (1, last)), default=0)
    return Fraction(least, 4 * den)


# ---------------------------------------------------------------------------
# Rule generation
# ---------------------------------------------------------------------------

def build_rules(d: int, g: int,
                scale: Fraction = Fraction(1)) -> dict[str, InequalityRule]:
    """One propagation rule per enumerated boundary graph, read off its
    shape's entry: the enumeration gives the graph's label, profile and
    genera, from which come its family genus and its target labels (every
    slack is linear in (a, b, X)).  Certified/failed status is invariant
    under positive rescaling."""
    _admissible(d, g)
    _positive(scale)
    rules: dict[str, InequalityRule] = {}

    for label, profile, g_r, g_l in two_vertex_splits(d, g):
        # a genus-0 vertex of degree five is rational: its five-basepoint
        # pencil grounds the chain
        entry = _shape(d, "rational" if d == 5 and g_r == 0 and profile == (1,) * 5
                       else profile)
        rules[label] = _rule(entry, g, scale, label, *_step(entry, label, g_l, g_r))

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
        for shape, labels in (("threevertex", three_label), ("fourvertex", four_label)):
            entry = _shape(3, shape)
            for g_r, label in labels.items():
                rules[label] = _rule(entry, g, scale, label, g_r, rests[g_r])
    return rules


def _step(entry: _Shape, label: str, g_l: int,
          g_r: int) -> tuple[int, tuple[tuple[str, Fraction], ...]]:
    """(family genus, targets) of `entry`'s rule at the two-vertex graph
    `label`.  The family varies the genus-g_r vertex and rests on the
    unramified graph d - 1 genera lower (or on the disconnected residual)
    and on a ramified profile's reduction one genus lower.  A composite
    varies the smaller genus when it can, base-changed r genera lower."""
    d, unram = entry.degree, (1,) * entry.degree
    if entry.composite is not None:
        r, coefficient = entry.composite
        fixed, varied = (g_l, g_r) if g_r > r else (g_r, g_l)
        if varied <= r:
            raise PropagationFailure(label, "no admissible base-change orientation")
        return varied - r, ((two_vertex_label(d, unram, fixed, varied - r), coefficient),)
    targets: list[tuple[str, Fraction]] = []
    if g_r >= d - 1:
        targets.append((two_vertex_label(d, unram, g_l + entry.nodes - 1, g_r - (d - 1)),
                        _UNIT))
    elif g_r >= 1:
        targets.append((DISCONNECTED, _UNIT))
    if entry.reduction is not None and g_r >= 1:
        reduced, multiplicity = entry.reduction
        targets.append((two_vertex_label(d, reduced, g_l, g_r - 1), multiplicity))
    return g_r, tuple(targets)


def _rule(entry: _Shape, g: int, scale: Fraction, label: str, genus: int,
          targets: tuple[tuple[str, Fraction], ...]) -> InequalityRule:
    """The one constructor of a rule: its shape's form at the family genus,
    times the scale, with its shape's provenance and equality flag.  It is
    reconstructed when no row carries the shape or the family's genus is
    below the row's `min_gr`."""
    at = (pencil_symbols(genus, g) if entry.pencil
          else {"g": g, "gR": genus, "dv": entry.degree})
    return InequalityRule(label, targets, _scaled(Fraction(entry.form._value(at)), scale),
                          entry.provenance, entry.min_gr is None or genus < entry.min_gr,
                          entry.equality)


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
    rows = [PENCIL_TABLE[kind] for kind in (_MARGIN_KINDS if d >= 4 else _MARGIN_KINDS[:1])]
    return tuple(_vertex_slack(d, row.vertex, row.sections) for row in rows)


def multivertex_margin(d: int, g: int, scale: Fraction = Fraction(1)) -> Fraction:
    """Smallest slack of the hyperelliptic-vertex (and, when a degree-three
    vertex fits beside another one, trigonal-vertex) pencils over all vertex
    genera up to g.  These families reduce any boundary divisor with three
    or more vertices.  The margin is not always nonnegative: at d = 4 the
    trigonal slack g*gR + 6g - 15gR is g(g - 9) at gR = g, so (4, 3) fails.

    Each slack is linear in the vertex genus, so its minimum over 1..g sits
    at g_r = 1 or g_r = g.  Like `certify`, it refuses a (d, g) that is not
    admissible."""
    _positive(scale)
    _admissible(d, _nonnegative_genus(g))
    return min(_scaled(form.eval({"g": g, "gR": g_r}), scale)
               for form in _margin_forms(d) for g_r in (1, g))


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
        total = slack = int_if_integral(rule.slack)
        steps = []
        for target, coeff in rule.targets:
            total += bound(target) if coeff is _UNIT else int_if_integral(coeff) * bound(target)
            steps.extend(chains[target])
        in_progress.discard(label)
        bounds[label] = total = int_if_integral(total)
        chains[label] = steps + [{
            "rule": rule.provenance,
            "source": label,
            "slack": str(slack),
            "targets": [[t, str(c), str(bounds[t])] for t, c in rule.targets],
            "reconstructed": rule.reconstructed,
            "equality": rule.equality,
        }]
        return total

    # the verdict constraints, in the order the status reads them
    constraints = [(label, bound(label)) for label in sorted(rules)]
    per_graph = {label: GraphResult(label, Fraction(value), chains[label])
                 for label, value in constraints}
    constraints.append(("multivertex-margin", margin := multivertex_margin(d, g, scale)))
    notes = [f"multi-vertex margin: {margin}"]
    if d == 4:
        constraints.append(("closed-form", closed := _closed_form_d4(g, a, b)))
        notes.append(f"closed-form nonnegativity of the summed step: {closed >= 0}")
    status = next((f"failed:{label}" for label, value in constraints if value < 0),
                  "certified")
    return Certificate(d, g, a, b, per_graph, status, notes)


def replay(cert: Certificate) -> bool:
    """Re-run `certify` at the certificate's (d, g) and scale and confirm
    that the fresh certificate equals it whole: b, the status, the notes
    and every graph's lower bound and chain.  The scale of the class X is
    read off the recorded a."""
    scale = cert.a / _slope_pair(cert.d, cert.g, Fraction(1))[0]
    return certify(cert.d, cert.g, scale) == cert
