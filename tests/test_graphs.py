import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzcalc import graphs
from hurwitzcalc.errors import DerivationMismatch, InvalidGraph, OutOfRange, UnknownKind
from hurwitzcalc.graphs import (MAX_GENUS, DualGraph, Edge, Vertex,
                                boundary_multiplicity, canonical_label,
                                enumerate_two_vertex, excess, graph_double_pair,
                                graph_four_vertex_d3, graph_irreducible_node,
                                graph_three_vertex_d3, graph_triple_point,
                                partitions, ramification_index,
                                two_vertex_graph, validate, violations)


class TestValidation:
    def test_irreducible_node_graph(self):
        for d, g in ((3, 5), (4, 9), (5, 16)):
            gr = graph_irreducible_node(d, g)
            assert validate(gr, d, g), violations(gr, d, g)

    def test_triple_point_graph_satellite_count(self):
        gr = graph_triple_point(5, 7)
        assert validate(gr, 5, 7)
        # degree-sum rule forces d-3 satellites beside the triple vertex
        assert len(gr.side("R")) == 1 + 2

    def test_double_pair_graph(self):
        gr = graph_double_pair(5, 7)
        assert validate(gr, 5, 7)

    def test_standard_shapes_keep_their_vertices_and_edges(self):
        # `graphs enum --json` prints the idents
        def shape(gr):
            return ([(v.ident, v.side, v.genus, v.degree) for v in gr.vertices],
                    [(e.left, e.right, e.local_degree) for e in gr.edges])
        sats = [("a0", "R", 0, 1), ("a1", "R", 0, 1)]
        sat_edges = [("l", "a0", 1), ("l", "a1", 1)]
        assert shape(graph_irreducible_node(4, 9)) == (
            [("l", "L", 8, 4), ("w", "R", 0, 2), *sats],
            [("l", "w", 1), ("l", "w", 1), *sat_edges])
        assert shape(graph_triple_point(5, 7)) == (
            [("l", "L", 7, 5), ("t", "R", 0, 3), *sats], [("l", "t", 3), *sat_edges])
        assert shape(graph_double_pair(4, 7)) == (
            [("l", "L", 7, 4), ("t1", "R", 0, 2), ("t2", "R", 0, 2)],
            [("l", "t1", 2), ("l", "t2", 2)])

    def test_unknown_side_and_nonpositive_local_degree(self):
        gr = DualGraph((Vertex("a", "L", 0, 1), Vertex("b", "M", 0, 1)),
                       (Edge("a", "b", 0),))
        problems = violations(gr, 1, 0)
        assert "vertex b on unknown side 'M'" in problems
        assert "edge a-b has nonpositive local degree" in problems

    def test_same_side_edge_is_invalid(self):
        gr = DualGraph((Vertex("a", "L", 0, 1), Vertex("b", "L", 0, 1)),
                       (Edge("a", "b", 1),))
        assert not validate(gr, 2, 0)
        assert any("join L to R" in v for v in violations(gr, 2, 0))

    def test_degree_sum_violation_reported(self):
        gr = two_vertex_graph(3, (1, 1, 1), 2, 2)
        problems = violations(gr, 4, 6)
        assert any("total degree" in p for p in problems)

    def test_genus_violation_reported(self):
        gr = two_vertex_graph(3, (1, 1, 1), 2, 2)
        assert any("genus" in p for p in violations(gr, 3, 7))


class TestStatistics:
    def test_irreducible_node_is_excess_zero(self):
        gr = graph_irreducible_node(4, 9)
        assert ramification_index(gr) == 0
        assert excess(gr) == 0

    def test_triple_point_ramification(self):
        assert ramification_index(graph_triple_point(5, 7)) == 2

    def test_double_pair_statistics(self):
        gr = graph_double_pair(5, 7)
        assert ramification_index(gr) == 2
        assert excess(gr) == 2              # r + min(7, 0)

    def test_excess_symmetric_under_swap(self):
        for profile in ((1, 1, 1), (2, 1), (3,)):
            gr = two_vertex_graph(3, profile, 4, 1)
            assert excess(gr) == excess(gr.swap_sides())

    def test_unramified_iff_all_edges_simple(self):
        for d in (3, 4, 5):
            for profile in partitions(d):
                gr = two_vertex_graph(d, profile, 1, 1)
                assert (ramification_index(gr) == 0) == all(m == 1 for m in profile)

    def test_invalid_graph_rejected(self):
        # each with the message `violations` gives for it
        for edge, message in ((Edge("a", "b", 1), "vertex a: local degrees sum to 1, not 2"),
                              (Edge("a", "c", 2), "edge a-c references a missing vertex"),
                              (Edge("b", "a", 2), "edge b-a does not join L to R")):
            gr = DualGraph((Vertex("a", "L", 0, 2), Vertex("b", "R", 0, 2)), (edge,))
            with pytest.raises(InvalidGraph, match=f"^{message}$"):
                ramification_index(gr)
            assert message in violations(gr, 2, 0)

    def test_statistics_check_only_the_incidences(self):
        # bad decorations and a repeated identifier are `violations`, but
        # the statistics need only edges and local degrees that fit
        gr = DualGraph((Vertex("a", "L", -1, 1), Vertex("b", "R", 0, 1),
                        Vertex("b", "R", 0, 1)), (Edge("a", "b", 1),))
        assert ramification_index(gr) == 0
        assert violations(gr, 1, -1)[:2] == ["duplicate vertex identifiers",
                                             "vertex a has invalid decorations"]


class TestBoundaryMultiplicity:
    def test_examples(self):
        assert boundary_multiplicity((2, 1, 1), 2) == 1
        assert boundary_multiplicity((1, 1, 1, 1), 7) == 7
        assert boundary_multiplicity((3, 2), 6) == 1

    def test_rational_output(self):
        assert boundary_multiplicity((2, 2), 1) == Fraction(1, 2)

    def test_empty_profile_rejected(self):
        with pytest.raises(OutOfRange):
            boundary_multiplicity((), 1)


class TestCanonicalLabels:
    def test_swap_invariance(self):
        gr = two_vertex_graph(4, (2, 1, 1), 5, 2)
        assert canonical_label(gr) == canonical_label(gr.swap_sides())

    def test_distinct_profiles_get_distinct_labels(self):
        labels = {canonical_label(two_vertex_graph(4, p, 3, 2))
                  for p in partitions(4)}
        assert len(labels) == len(partitions(4))


def one_sided_label(gr):
    """The label read off one orientation, as labels were once built."""
    sides = []
    for side in ("L", "R"):
        decorations = sorted((v.genus, v.degree) for v in gr.side(side))
        sides.append(",".join(f"{g}g{d}" for g, d in decorations))
    by_id = {v.ident: v for v in gr.vertices}
    edge_desc = sorted(
        (by_id[e.left].genus, by_id[e.left].degree,
         by_id[e.right].genus, by_id[e.right].degree, e.local_degree)
        for e in gr.edges)
    edges = ";".join(f"({gl}g{dl}|{gr_}g{dr}|{k})"
                     for gl, dl, gr_, dr, k in edge_desc)
    return f"L[{sides[0]}]R[{sides[1]}]E[{edges}]"


def oracle_label(gr):
    return min(one_sided_label(gr), one_sided_label(gr.swap_sides()))


@st.composite
def dual_graphs(draw):
    """Random two-sided graphs, not necessarily valid boundary graphs."""
    vertices = [Vertex(f"{side}{i}", side, draw(st.integers(0, 4)), draw(st.integers(1, 4)))
                for side in ("L", "R") for i in range(draw(st.integers(1, 4)))]
    left = [v.ident for v in vertices if v.side == "L"]
    right = [v.ident for v in vertices if v.side == "R"]
    edges = draw(st.lists(st.builds(Edge, st.sampled_from(left), st.sampled_from(right),
                                    st.integers(1, 3)), max_size=6))
    return DualGraph(tuple(draw(st.permutations(vertices))), tuple(edges))


@st.composite
def flawed_dual_graphs(draw):
    """Graphs of `dual_graphs` with some of the flaws `violations` reports:
    a repeated identifier, an unknown side, bad decorations, a zero local
    degree, a dangling edge and an edge from a vertex to itself."""
    gr = draw(dual_graphs())
    vertices, edges = list(gr.vertices), list(gr.edges)
    idents = [v.ident for v in vertices]
    if draw(st.booleans()):
        vertices.append(Vertex(draw(st.sampled_from(idents)), draw(st.sampled_from("LR")),
                               draw(st.integers(-1, 4)), draw(st.integers(0, 4))))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(vertices) - 1))
        vertices[i] = Vertex(vertices[i].ident, "M", vertices[i].genus, vertices[i].degree)
    ends = st.sampled_from(idents)
    if draw(st.booleans()):
        edges.append(Edge(draw(ends), draw(ends), 0))
    if draw(st.booleans()):
        end, dangling = draw(ends), draw(st.sampled_from(["x", "y"]))
        edges.append(draw(st.sampled_from([Edge(end, dangling, 1), Edge(dangling, end, 2)])))
    if draw(st.booleans()):
        end = draw(ends)
        edges.append(Edge(end, end, draw(st.integers(1, 3))))
    return DualGraph(tuple(draw(st.permutations(vertices))),
                     tuple(draw(st.permutations(edges))))


def scanned_incidence_problems(gr):
    """`graphs._incidence_problems` as first written: one scan of the edges
    per vertex."""
    problems = []
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


def scanned_violations(gr, d, g):
    """`graphs.violations` as first written, over the scanning incidence
    check."""
    problems = []
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
    problems += scanned_incidence_problems(gr)
    for side in ("L", "R"):
        total = sum(v.degree for v in gr.side(side))
        if total != d:
            problems.append(f"side {side} has total degree {total}, not {d}")
    total_genus = (sum(v.genus for v in gr.vertices)
                   + len(gr.edges) - len(gr.vertices) + 1)
    if total_genus != g:
        problems.append(f"arithmetic genus {total_genus}, expected {g}")
    return problems


class TestViolationsOracle:
    @settings(max_examples=300)
    @given(st.one_of(dual_graphs(), flawed_dual_graphs()), st.integers(1, 8),
           st.integers(-1, 12))
    def test_random_graphs(self, gr, d, g):
        # the same messages in the same order
        assert graphs._incidence_problems(gr) == scanned_incidence_problems(gr)
        assert violations(gr, d, g) == scanned_violations(gr, d, g)

    def test_standard_shapes(self):
        for d in (3, 4, 5):
            for g in range(1, 12):
                for gr in (graph_irreducible_node(d, g), graph_triple_point(d, g),
                           graph_double_pair(d, g), *enumerate_two_vertex(d, g)):
                    assert violations(gr, d, g) == scanned_violations(gr, d, g)


class TestLabelOracle:
    @settings(max_examples=300)
    @given(dual_graphs())
    def test_random_graphs(self, gr):
        assert canonical_label(gr) == oracle_label(gr)
        assert canonical_label(gr.swap_sides()) == canonical_label(gr)

    def test_standard_shapes(self):
        for d in (3, 4, 5):
            for g in range(1, 12):
                for gr in (graph_irreducible_node(d, g), graph_triple_point(d, g),
                           graph_double_pair(d, g)):
                    assert canonical_label(gr) == oracle_label(gr)
        for g_l, g_r in ((0, 0), (3, 1), (1, 3), (5, 5)):
            for gr in (graph_three_vertex_d3(g_l, g_r), graph_four_vertex_d3(g_l, g_r)):
                assert canonical_label(gr) == oracle_label(gr)

    @settings(max_examples=150)
    @given(st.sampled_from(partitions(3)), st.integers(0, 12), st.integers(0, 12))
    def test_degree_three_shapes_and_their_swaps(self, profile, g_l, g_r):
        # a graph and its side-swap both get the smaller of the two full
        # readings
        for gr in (two_vertex_graph(3, profile, g_l, g_r), graph_three_vertex_d3(g_l, g_r),
                   graph_four_vertex_d3(g_l, g_r)):
            for graph in (gr, gr.swap_sides()):
                assert canonical_label(graph) == oracle_label(graph)

    def test_enumeration_matches_the_full_genus_range(self):
        # every split built, each labelled by the oracle, the first of a
        # swap pair kept: the enumeration before it built half the splits.
        # The genera past 60 put a vertex genus on both sides of each
        # two- and three-digit boundary
        for d in (3, 4, 5):
            for g in (*range(0, 61), 99, 100, 101, 199, 200):
                seen = {}
                for profile in partitions(d):
                    total = g - len(profile) + 1
                    for g_l in range(total + 1):
                        gr = two_vertex_graph(d, profile, g_l, total - g_l)
                        seen.setdefault(oracle_label(gr), gr)
                expected = [seen[label].to_json() for label in sorted(seen)]
                assert [gr.to_json() for gr in enumerate_two_vertex(d, g)] == expected

    def test_shape_templates_at_the_digit_boundaries(self, cold_labels):
        # the text order of a shape's two readings flips where a genus
        # gains a digit: on both sides of each flip, the formatted label of
        # every shape is the canonical label of its constructor's graph
        shapes = {(d, profile): lambda a, b, d=d, p=profile: two_vertex_graph(d, p, a, b)
                  for d in (3, 4, 5) for profile in partitions(d)}
        shapes[3, "threevertex"] = graph_three_vertex_d3
        shapes[3, "fourvertex"] = graph_four_vertex_d3
        assert len(shapes) == 17
        crossings = [(a, b) for a in (9, 10, 99, 100, 199, 200)
                     for b in (0, 1, 9, 10, 11, 99, 100, 101, 199, 200)]
        pairs = [*((a, b) for a in range(31) for b in range(31)),
                 *crossings, *((b, a) for a, b in crossings)]
        for (d, shape), build in shapes.items():
            for a, b in pairs:
                assert graphs._labelled(d, shape, a, b) == canonical_label(build(a, b))


class TestEnumeration:
    def test_genus_split_counts_d3(self):
        graphs = enumerate_two_vertex(3, 6)
        unramified = [gr for gr in graphs
                      if all(e.local_degree == 1 for e in gr.edges)]
        # splits of gL + gR = 4 up to the side swap: (0,4), (1,3), (2,2)
        assert len(unramified) == 3

    def test_single_edge_profile_uses_full_genus(self):
        graphs = enumerate_two_vertex(3, 6)
        triples = [gr for gr in graphs if len(gr.edges) == 1]
        for gr in triples:
            assert sum(v.genus for v in gr.vertices) == 6

    def test_profile_2111_genus_budget(self):
        graphs = enumerate_two_vertex(5, 16)
        with_profile = [gr for gr in graphs
                        if sorted((e.local_degree for e in gr.edges),
                                  reverse=True) == [2, 1, 1, 1]]
        for gr in with_profile:
            assert sum(v.genus for v in gr.vertices) == 16 - 3

    def test_matches_brute_force(self):
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
                enumerated = {canonical_label(gr)
                              for gr in enumerate_two_vertex(d, g)}
                assert enumerated == brute

    def test_all_outputs_validate(self):
        for d, g in ((3, 8), (4, 9), (5, 16)):
            for gr in enumerate_two_vertex(d, g):
                assert validate(gr, d, g)

    def test_genus_range(self):
        for g in (-5, -1, MAX_GENUS + 1):
            with pytest.raises(OutOfRange):
                enumerate_two_vertex(3, g)
        assert len(enumerate_two_vertex(3, 0)) == 1
        assert enumerate_two_vertex(5, MAX_GENUS)

    def test_rejects_unsupported_degree(self):
        with pytest.raises(OutOfRange):
            enumerate_two_vertex(6, 10)

    def test_partitions_of_zero(self):
        assert partitions(0) == [()]

    def test_profile_must_partition_the_degree(self):
        with pytest.raises(InvalidGraph, match="is not a partition of 3"):
            two_vertex_graph(3, (2, 2), 1, 1)
        with pytest.raises(InvalidGraph, match="is not a partition of 3"):
            two_vertex_graph(3, (4, -1), 1, 1)

    def test_an_invalid_enumerated_graph_is_an_engine_bug(self, monkeypatch, cold_labels):
        def one_edge_short(d, profile, genus_left, genus_right):
            return two_vertex_graph(d - 1, profile[1:], genus_left, genus_right)
        monkeypatch.setattr(graphs, "two_vertex_graph", one_edge_short)
        with pytest.raises(InvalidGraph, match="enumeration produced an invalid graph"):
            graphs.two_vertex_label(3, (1, 1, 1), 1, 2)

    def test_a_three_vertex_graph_without_its_satellite_is_an_engine_bug(
            self, monkeypatch, cold_labels):
        def no_satellite(genus_left, genus_right):
            gr = graph_three_vertex_d3(genus_left, genus_right)
            return DualGraph(gr.vertices[:2], gr.edges[:2])
        monkeypatch.setattr(graphs, "graph_three_vertex_d3", no_satellite)
        with pytest.raises(InvalidGraph, match="enumeration produced an invalid graph"):
            graphs.hyperelliptic_vertex_label("threevertex", 1, 2)

    def test_a_negative_genus_is_refused_for_every_pair(self, cold_labels):
        # the shape entries are derived cold by the first call of each pair
        # and read warm by the second
        for _ in range(2):
            for label in (lambda a, b: graphs.two_vertex_label(4, (2, 1, 1), a, b),
                          lambda a, b: graphs.hyperelliptic_vertex_label("threevertex", a, b),
                          lambda a, b: graphs.hyperelliptic_vertex_label("fourvertex", a, b)):
                for pair in ((-1, 3), (3, -1)):
                    with pytest.raises(InvalidGraph,
                                       match="enumeration produced an invalid graph"):
                        label(*pair)
                assert label(1, 3)

    def test_an_unknown_hyperelliptic_shape_is_refused(self):
        for shape in ("bogus", "threevertices", (1, 1, 1)):
            with pytest.raises(UnknownKind, match=re.escape(f"shape {shape!r}")):
                graphs.hyperelliptic_vertex_label(shape, 3, 4)

    def test_built_graphs_are_the_constructor_graphs(self):
        # the enumeration hands out labels and genera; the graphs that
        # `labelled_two_vertex` builds from them are the constructor's
        for d in (3, 4, 5):
            for g in (60, 100, 200):
                splits = graphs.two_vertex_splits(d, g)
                assert len(splits) == sum((g - len(profile) + 1) // 2 + 1
                                          for profile in partitions(d))
                built = graphs.labelled_two_vertex(d, g)
                assert list(built) == sorted(built) == [label for label, *_ in splits]
                for (label, profile, genus_a, genus_b), graph in zip(splits, built.values()):
                    assert genus_a <= genus_b
                    expected = two_vertex_graph(d, profile, genus_a, genus_b)
                    assert graph.to_json() == expected.to_json()
                    assert canonical_label(expected) == label

    def test_a_template_that_misses_the_canonical_label_is_a_derivation_bug(
            self, monkeypatch, cold_labels):
        real = graphs.canonical_label

        def swapped_digits(gr):
            return real(gr).replace("10g", "01g")
        monkeypatch.setattr(graphs, "canonical_label", swapped_digits)
        for shape, label in (((2, 1), lambda: graphs.two_vertex_label(3, (2, 1), 4, 5)),
                             ("fourvertex",
                              lambda: graphs.hyperelliptic_vertex_label("fourvertex", 4, 5))):
            with pytest.raises(DerivationMismatch,
                               match=re.escape(f"label template of {shape} at genera (1, 10)")):
                label()

    def test_validates_and_labels_each_graph_once(self, monkeypatch, cold_labels):
        # each shape's constructor graph is validated at the probe genera and
        # at the checked pairs, and labelled at the checked pairs; a genus
        # pair is only formatted.  Validating and labelling each graph took
        # 13 714 calls of each for the full range here
        counts = {"validate": 0, "canonical_label": 0}

        def counting(name):
            real = getattr(graphs, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(graphs, name, counting(name))
        returned = sum(len(enumerate_two_vertex(d, g))
                       for d in (3, 4, 5) for g in range(0, 61))
        assert returned == 13714
        shapes = sum(len(partitions(d)) for d in (3, 4, 5))
        assert shapes == 15
        derived = {"validate": shapes * (1 + len(graphs._CHECKED)),
                   "canonical_label": shapes * len(graphs._CHECKED)}
        assert counts == derived
        # new genus pairs and cached ones alike are neither validated nor
        # labelled again
        enumerate_two_vertex(3, 40)
        enumerate_two_vertex(5, MAX_GENUS)
        assert counts == derived


class TestShapes:
    def test_three_vertex_genus_formula(self):
        gr = graph_three_vertex_d3(2, 3)
        assert validate(gr, 3, 6)           # gL + gR + 1

    def test_four_vertex_genus_formula(self):
        gr = graph_four_vertex_d3(2, 2)
        assert validate(gr, 3, 4)           # gL + gR

    def test_json_round_trip(self):
        gr = graph_three_vertex_d3(2, 3)
        assert canonical_label(DualGraph.from_json(gr.to_json())) == \
            canonical_label(gr)
