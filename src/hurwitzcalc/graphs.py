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
degree-three three- and four-vertex graphs, is built, validated and
labelled once per process, per shape and genus pair, in one cache here.
The enumeration, the certifier and the CLI read labels from it and build
or label no graph themselves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from .errors import InvalidGraph, OutOfRange, Record


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
    for e in gr.edges:
        lv, rv = by_id.get(e.left), by_id.get(e.right)
        if lv is None or rv is None:
            problems.append(f"edge {e.left}-{e.right} references a missing vertex")
        elif not (lv.side == "L" and rv.side == "R"):
            problems.append(f"edge {e.left}-{e.right} does not join L to R")
    for v in gr.vertices:
        incident = sum(e.local_degree for e in gr.edges
                       if v.ident in (e.left, e.right))
        if incident != v.degree:
            problems.append(
                f"vertex {v.ident}: local degrees sum to {incident}, not {v.degree}")
    return problems


def violations(gr: DualGraph, d: int, g: int) -> list[str]:
    """Structured list of convention violations; empty iff the graph is a
    valid boundary-divisor graph for degree d and genus g."""
    problems: list[str] = []
    if len({v.ident for v in gr.vertices}) != len(gr.vertices):
        problems.append("duplicate vertex identifiers")
    for v in gr.vertices:
        if v.side not in ("L", "R"):
            problems.append(f"vertex {v.ident} on unknown side {v.side!r}")
        if v.degree < 1 or v.genus < 0:
            problems.append(f"vertex {v.ident} has invalid decorations")
    for e in gr.edges:
        if e.local_degree < 1:
            problems.append(f"edge {e.left}-{e.right} has nonpositive local degree")
    problems += _incidence_problems(gr)
    for side in ("L", "R"):
        total = sum(v.degree for v in gr.side(side))
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
    smaller of the graph's labels read with L first and with R first."""
    sides = {side: ",".join(f"{g}g{d}" for g, d in sorted(
                 (v.genus, v.degree) for v in gr.vertices if v.side == side))
             for side in ("L", "R")}
    by_id = {v.ident: (v.genus, v.degree) for v in gr.vertices}
    ends = [(by_id[e.left], by_id[e.right], e.local_degree) for e in gr.edges]

    def oriented(first: str, second: str, pairs) -> str:
        edges = ";".join(f"({gl}g{dl}|{gr_}g{dr}|{k})"
                         for (gl, dl), (gr_, dr), k in sorted(pairs))
        return f"L[{sides[first]}]R[{sides[second]}]E[{edges}]"

    return min(oriented("L", "R", ends),
               oriented("R", "L", [(right, left, k) for left, right, k in ends]))


def two_vertex_label(d: int, profile: tuple[int, ...], genus_left: int,
                     genus_right: int) -> str:
    """`canonical_label(two_vertex_graph(...))`.  The label does not
    depend on which genus is on the left, so it is kept once per profile
    and unordered genus pair."""
    return _labelled(d, profile, *sorted((genus_left, genus_right)))[1]


def hyperelliptic_vertex_label(shape: str, genus_left: int, genus_right: int) -> str:
    """`canonical_label` of the degree-three "threevertex" or "fourvertex"
    graph (`graph_three_vertex_d3`, `graph_four_vertex_d3`) with the given
    genera, kept once per shape and genus pair."""
    return _labelled(3, shape, genus_left, genus_right)[1]


@cache
def _labelled(d: int, shape: tuple[int, ...] | str, genus_a: int,
              genus_b: int) -> tuple[DualGraph | None, str]:
    """The one place a boundary graph is built, validated and labelled,
    once per process for each shape and genus pair.  A shape is a node
    profile of a two-vertex graph (genera in increasing order) or a key of
    `_HYPERELLIPTIC_VERTEX`.  Only the two-vertex graphs, which the
    enumeration returns, are kept; of the others no caller reads more than
    the label."""
    if isinstance(shape, str):
        build, edges_less_vertices = _HYPERELLIPTIC_VERTEX[shape]
        graph, kept = build(genus_a, genus_b), None
    else:
        graph = kept = two_vertex_graph(d, shape, genus_a, genus_b)
        edges_less_vertices = len(shape) - 2
    if not validate(graph, d, genus_a + genus_b + edges_less_vertices + 1):
        raise InvalidGraph("enumeration produced an invalid graph")
    return kept, canonical_label(graph)


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


# the degree-three hyperelliptic-vertex shapes: constructor, and the
# graph's edge count less its vertex count (the genus formula's term)
_HYPERELLIPTIC_VERTEX = {"threevertex": (graph_three_vertex_d3, 0),
                         "fourvertex": (graph_four_vertex_d3, -1)}


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


def labelled_two_vertex(d: int, g: int) -> dict[str, DualGraph]:
    """All two-vertex boundary graphs for degree d and total genus g, by
    canonical label in label order: every partition of d as the edge
    profile and every genus split compatible with the genus formula, up to
    the side swap.  Both vertices have degree d, so the swap maps a split
    onto its mirror and only the splits with the smaller genus on the left
    are built.  The genus must lie in 0..MAX_GENUS."""
    if d not in (3, 4, 5):
        raise OutOfRange("two-vertex enumeration is wired for d in {3, 4, 5}")
    if not 0 <= g <= MAX_GENUS:
        raise OutOfRange(f"two-vertex enumeration needs 0 <= g <= {MAX_GENUS}, got {g}")
    seen: dict[str, DualGraph] = {}
    for profile in partitions(d):
        genus_total = g - len(profile) + 1
        for genus_left in range(genus_total // 2 + 1):
            graph, label = _labelled(d, profile, genus_left, genus_total - genus_left)
            seen.setdefault(label, graph)
    return {label: seen[label] for label in sorted(seen)}


def enumerate_two_vertex(d: int, g: int) -> list[DualGraph]:
    """The graphs of `labelled_two_vertex`, in label order."""
    return list(labelled_two_vertex(d, g).values())
