"""Decorated bipartite dual graphs of boundary divisors.

A boundary divisor of the space of admissible degree-d covers is encoded by
a two-sided graph: vertices carry (genus, degree), edges join the two sides
and carry the local degree of the cover at the corresponding node.  The
degree sums on the two sides both equal d, the local degrees at a vertex
sum to its degree, and the total arithmetic genus is

    g = sum of vertex genera + #edges - #vertices + 1.

Vertex counts of satellite (genus-zero, degree-one) vertices are always
derived from the degree-sum rule, never taken on faith.

Every boundary graph that the engine names, the two-vertex graphs and the
degree-three three- and four-vertex graphs, is labelled here.  Each shape
(a node profile, or a three- or four-vertex shape) is built by its
constructor, validated and labelled once per process; its two side
readings become format templates with the two genera as fields.  A genus
pair is then only checked for a negative genus and formatted into the
templates, once per process, in one cache of label strings.  The
enumeration hands the certifier each two-vertex graph as its label, node
profile and two genera, so a certificate builds no graph; only the
callers that print or check graphs (`graphs enum`, `selftest`) build them,
through the public constructor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from .errors import InvalidGraph, OutOfRange, Record, UnknownKind, require


class Vertex(Record):
    ident: str
    side: str           # "L" or "R"
    genus: int
    degree: int


class Edge(Record):
    left: str
    right: str
    local_degree: int


class DualGraph(Record):
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def side(self, side: str) -> list[Vertex]:
        return [v for v in self.vertices if v.side == side]

    def swap_sides(self) -> "DualGraph":
        flip = {"L": "R", "R": "L"}
        return DualGraph(
            tuple(Vertex(v.ident, flip[v.side], v.genus, v.degree)
                  for v in self.vertices),
            tuple(Edge(e.right, e.left, e.local_degree) for e in self.edges))

    def to_json(self) -> dict:
        return {
            "L": [[v.ident, v.genus, v.degree] for v in self.side("L")],
            "R": [[v.ident, v.genus, v.degree] for v in self.side("R")],
            "edges": [[e.left, e.right, e.local_degree] for e in self.edges],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DualGraph":
        vertices = tuple(Vertex(i, side, g, d)
                         for side in ("L", "R")
                         for i, g, d in data[side])
        edges = tuple(Edge(l, r, k) for l, r, k in data["edges"])
        return cls(vertices, edges)


def _incidence_problems(gr: DualGraph) -> list[str]:
    """Edges that do not join an existing L-vertex to an R-vertex, and
    vertices whose incident local degrees do not sum to their degree."""
    problems: list[str] = []
    by_id = {v.ident: v for v in gr.vertices}
    # the local degrees at each vertex, summed in the one pass over the
    # edges; an edge from a vertex to itself counts once
    incident = dict.fromkeys(by_id, 0)
    for e in gr.edges:
        lv, rv = by_id.get(e.left), by_id.get(e.right)
        if lv is None or rv is None:
            problems.append(f"edge {e.left}-{e.right} references a missing vertex")
        elif not (lv.side == "L" and rv.side == "R"):
            problems.append(f"edge {e.left}-{e.right} does not join L to R")
        if lv is not None:
            incident[e.left] += e.local_degree
        if rv is not None and e.right != e.left:
            incident[e.right] += e.local_degree
    for v in gr.vertices:
        if incident[v.ident] != v.degree:
            problems.append(
                f"vertex {v.ident}: local degrees sum to {incident[v.ident]}, not {v.degree}")
    return problems


def violations(gr: DualGraph, d: int, g: int) -> list[str]:
    """Structured list of convention violations; empty iff the graph is a
    valid boundary-divisor graph for degree d and genus g."""
    problems: list[str] = []
    if len({v.ident for v in gr.vertices}) != len(gr.vertices):
        problems.append("duplicate vertex identifiers")
    side_degree = {"L": 0, "R": 0}
    for v in gr.vertices:
        if v.side in side_degree:
            side_degree[v.side] += v.degree
        else:
            problems.append(f"vertex {v.ident} on unknown side {v.side!r}")
        if v.degree < 1 or v.genus < 0:
            problems.append(f"vertex {v.ident} has invalid decorations")
    for e in gr.edges:
        if e.local_degree < 1:
            problems.append(f"edge {e.left}-{e.right} has nonpositive local degree")
    problems += _incidence_problems(gr)
    for side, total in side_degree.items():
        if total != d:
            problems.append(f"side {side} has total degree {total}, not {d}")
    total_genus = (sum(v.genus for v in gr.vertices)
                   + len(gr.edges) - len(gr.vertices) + 1)
    if total_genus != g:
        problems.append(f"arithmetic genus {total_genus}, expected {g}")
    return problems


def validate(gr: DualGraph, d: int, g: int) -> bool:
    return not violations(gr, d, g)


def _check_structure(gr: DualGraph) -> None:
    problems = _incidence_problems(gr)
    if problems:
        raise InvalidGraph(problems[0])


def ramification_index(gr: DualGraph) -> int:
    """Sum of (local degree - 1) over all edges; zero iff unramified."""
    _check_structure(gr)
    return sum(e.local_degree - 1 for e in gr.edges)


def excess(gr: DualGraph) -> int:
    """min over the two sides of (ramification index + side's total genus).
    Zero exactly for unramified graphs with an all-rational side."""
    r = ramification_index(gr)
    genus_l = sum(v.genus for v in gr.side("L"))
    genus_r = sum(v.genus for v in gr.side("R"))
    return r + min(genus_l, genus_r)


def boundary_multiplicity(profile: tuple[int, ...], node_degree: int) -> Fraction:
    """Intersection multiplicity of a one-parameter family inside a
    boundary divisor: the degree of the node's normal-bundle tensor divided
    by lcm of the local degrees over the node."""
    if not profile or any(m < 1 for m in profile):
        raise OutOfRange("profile must consist of positive integers")
    return Fraction(node_degree, lcm(*profile))


# ---------------------------------------------------------------------------
# Canonical labels (invariant under the left-right symmetry)
# ---------------------------------------------------------------------------

def canonical_label(gr: DualGraph) -> str:
    """Deterministic label, identical for a graph and its side-swap: the
    smaller of the graph's two side readings."""
    return min(_side_readings(gr))


def _side_readings(gr: DualGraph) -> tuple[str, str]:
    """The graph's labels read with L first and with R first."""
    # each vertex is formatted once, as (genus, degree, text): the numbers
    # order the sides and the edges, the text is what the label prints
    by_id = {}
    sides = {"L": [], "R": []}
    for v in gr.vertices:
        decoration = by_id[v.ident] = (v.genus, v.degree, f"{v.genus}g{v.degree}")
        if v.side in sides:
            sides[v.side].append(decoration)
    left, right = (",".join(text for _, _, text in sorted(sides[side]))
                   for side in ("L", "R"))
    ends = [(by_id[e.left], by_id[e.right], e.local_degree) for e in gr.edges]
    forward = ";".join(f"({a[2]}|{b[2]}|{k})" for a, b, k in sorted(ends))
    backward = ";".join(f"({b[2]}|{a[2]}|{k})"
                        for b, a, k in sorted((b, a, k) for a, b, k in ends))
    return f"L[{left}]R[{right}]E[{forward}]", f"L[{right}]R[{left}]E[{backward}]"


def two_vertex_label(d: int, profile: tuple[int, ...], genus_left: int,
                     genus_right: int) -> str:
    """`canonical_label(two_vertex_graph(...))`.  The label does not
    depend on which genus is on the left, so it is kept once per profile
    and unordered genus pair."""
    return _labelled(d, profile, *sorted((genus_left, genus_right)))


def hyperelliptic_vertex_label(shape: str, genus_left: int, genus_right: int) -> str:
    """`canonical_label` of the degree-three "threevertex" or "fourvertex"
    graph (`graph_three_vertex_d3`, `graph_four_vertex_d3`) with the given
    genera, kept once per shape and genus pair."""
    if shape not in ("threevertex", "fourvertex"):
        raise UnknownKind(f"unknown degree-three shape {shape!r}")
    return _labelled(3, shape, genus_left, genus_right)


@cache
def _labelled(d: int, shape: tuple[int, ...] | str, genus_a: int, genus_b: int) -> str:
    """The label of a boundary graph, kept once per process for each shape
    and genus pair.  A shape is a node profile of a two-vertex graph
    (genera in increasing order), "threevertex" or "fourvertex".  The
    shape's entry was validated and labelled once; a graph of the shape
    differs from the validated one only in its two genera, and the one
    condition of `violations` that depends on them, genus >= 0, is
    checked here.  The label is the smaller of the two side readings with
    the genera formatted in; no graph is built."""
    if genus_a < 0 or genus_b < 0:
        raise InvalidGraph("enumeration produced an invalid graph")
    forward, backward = _shape_entry(d, shape)
    return min(forward.format(genus_a, genus_b), backward.format(genus_a, genus_b))


# the genera a shape's label templates are read at: numbers that print
# nowhere else in a label
_PROBE = (1000001, 1000002)
# the genus pairs where the templates must give the canonical label: equal
# genera, and a one- and a two-digit genus in either text order
_CHECKED = ((0, 0), (1, 10), (10, 1))


@cache
def _shape_entry(d: int, shape: tuple[int, ...] | str) -> tuple[str, str]:
    """What every graph of a shape shares, derived once per process: the
    two side readings of `canonical_label` as format templates with the
    genera as fields {0} and {1}, read off the constructor's graph at the
    probe genera.  The constructor's graph is validated at the probe and
    at every checked pair, where the templates must reproduce its
    canonical label."""
    templates = tuple(reading.replace(f"{_PROBE[0]}g", "{0}g").replace(f"{_PROBE[1]}g", "{1}g")
                      for reading in _side_readings(_validated(d, shape, *_PROBE)))
    for pair in _CHECKED:
        require(min(template.format(*pair) for template in templates)
                == canonical_label(_validated(d, shape, *pair)),
                f"label template of {shape} at genera {pair}")
    return templates


def _validated(d: int, shape: tuple[int, ...] | str, genus_a: int,
               genus_b: int) -> DualGraph:
    """The public constructor's graph of a shape with the given genera,
    validated against the genus formula: the genera plus the shape's edge
    count less its vertex count, plus one."""
    if shape == "threevertex":
        graph, edges_less_vertices = graph_three_vertex_d3(genus_a, genus_b), 0
    elif shape == "fourvertex":
        graph, edges_less_vertices = graph_four_vertex_d3(genus_a, genus_b), -1
    else:
        graph = two_vertex_graph(d, shape, genus_a, genus_b)
        edges_less_vertices = len(shape) - 2
    if not validate(graph, d, genus_a + genus_b + edges_less_vertices + 1):
        raise InvalidGraph("enumeration produced an invalid graph")
    return graph


# ---------------------------------------------------------------------------
# Constructors for the standard shapes
# ---------------------------------------------------------------------------

def two_vertex_graph(d: int, profile: tuple[int, ...],
                     genus_left: int, genus_right: int) -> DualGraph:
    """One vertex per side, edges with the given local-degree profile."""
    if sum(profile) != d or any(m < 1 for m in profile):
        raise InvalidGraph(f"{profile} is not a partition of {d}")
    vertices = (Vertex("l", "L", genus_left, d), Vertex("r", "R", genus_right, d))
    edges = tuple(Edge("l", "r", m) for m in sorted(profile, reverse=True))
    return DualGraph(vertices, edges)


def _rational_right(d: int, genus_left: int, right: tuple[tuple[str, int], ...],
                    joins: tuple[tuple[str, int], ...]) -> DualGraph:
    """Left "l" (genus_left, d); right: the rational vertices `right`, each
    (ident, degree), on the edges `joins` from "l", each (ident, local
    degree), plus one degree-one satellite "a{i}" per degree still missing."""
    satellites = [f"a{i}" for i in range(d - sum(k for _, k in right))]
    vertices = (Vertex("l", "L", genus_left, d),
                *(Vertex(ident, "R", 0, k) for ident, k in right),
                *(Vertex(a, "R", 0, 1) for a in satellites))
    edges = (*(Edge("l", ident, k) for ident, k in joins),
             *(Edge("l", a, 1) for a in satellites))
    return DualGraph(vertices, edges)


def graph_irreducible_node(d: int, g: int) -> DualGraph:
    """Left (genus g-1, degree d); right: a degree-two rational vertex
    joined twice, plus d-2 satellites."""
    return _rational_right(d, g - 1, (("w", 2),), (("w", 1), ("w", 1)))


def graph_triple_point(d: int, g: int) -> DualGraph:
    """Left (g, d); right: one vertex on a local-degree-3 edge plus d-3
    satellites (the satellite count follows from the degree-sum rule)."""
    return _rational_right(d, g, (("t", 3),), (("t", 3),))


def graph_double_pair(d: int, g: int) -> DualGraph:
    """Left (g, d); right: two vertices on local-degree-2 edges plus d-4
    satellites."""
    pair = (("t1", 2), ("t2", 2))
    return _rational_right(d, g, pair, pair)


def graph_three_vertex_d3(genus_left: int, genus_right: int) -> DualGraph:
    """Degree three, three vertices: left (gL, 3); right a hyperelliptic
    vertex (gR, 2) joined twice plus one satellite."""
    vertices = (Vertex("l", "L", genus_left, 3),
                Vertex("h", "R", genus_right, 2),
                Vertex("a", "R", 0, 1))
    edges = (Edge("l", "h", 1), Edge("l", "h", 1), Edge("l", "a", 1))
    return DualGraph(vertices, edges)


def graph_four_vertex_d3(genus_left: int, genus_right: int) -> DualGraph:
    """Degree three, four vertices: two on each side, with the
    hyperelliptic vertex (gR, 2) joined to both left vertices."""
    vertices = (Vertex("l", "L", genus_left, 2), Vertex("l2", "L", 0, 1),
                Vertex("h", "R", genus_right, 2), Vertex("a", "R", 0, 1))
    edges = (Edge("l", "h", 1), Edge("l2", "h", 1), Edge("l", "a", 1))
    return DualGraph(vertices, edges)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, parts in non-increasing order."""
    if n == 0:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(n, n, ())
    return out


# Largest total genus the two-vertex enumeration accepts.  The graph count,
# and so a certificate's rule count, grows linearly in g, and certificate
# JSON grows quadratically (every chain repeats the chains it rests on):
# about 11 MB at (d, g) = (3, 200) and 46 MB at (3, 400).
MAX_GENUS = 200


def two_vertex_splits(d: int, g: int) -> list[tuple[str, tuple[int, ...], int, int]]:
    """All two-vertex boundary graphs for degree d and total genus g, each
    as (canonical label, node profile, smaller genus, larger genus), in
    label order: every partition of d as the edge profile and every genus
    split compatible with the genus formula, up to the side swap.  Both
    vertices have degree d, so the swap maps a split onto its mirror and
    only the splits with the smaller genus first are taken.  No graph is
    built.  The genus must lie in 0..MAX_GENUS."""
    if d not in (3, 4, 5):
        raise OutOfRange("two-vertex enumeration is wired for d in {3, 4, 5}")
    if not 0 <= g <= MAX_GENUS:
        raise OutOfRange(f"two-vertex enumeration needs 0 <= g <= {MAX_GENUS}, got {g}")
    splits = []
    for profile in partitions(d):
        genus_total = g - len(profile) + 1
        for genus_a in range(genus_total // 2 + 1):
            genus_b = genus_total - genus_a
            splits.append((_labelled(d, profile, genus_a, genus_b), profile, genus_a, genus_b))
    splits.sort()
    return splits


def labelled_two_vertex(d: int, g: int) -> dict[str, DualGraph]:
    """The graphs of `two_vertex_splits`, built by `two_vertex_graph` with
    the smaller genus on the left, by canonical label in label order."""
    return {label: two_vertex_graph(d, profile, genus_a, genus_b)
            for label, profile, genus_a, genus_b in two_vertex_splits(d, g)}


def enumerate_two_vertex(d: int, g: int) -> list[DualGraph]:
    """The graphs of `labelled_two_vertex`, in label order."""
    return list(labelled_two_vertex(d, g).values())
