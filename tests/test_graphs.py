from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzcalc import graphs
from hurwitzcalc.errors import InvalidGraph, OutOfRange
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
        # swap pair kept: the enumeration before it built half the splits
        for d in (3, 4, 5):
            for g in range(0, 61):
                seen = {}
                for profile in partitions(d):
                    total = g - len(profile) + 1
                    for g_l in range(total + 1):
                        gr = two_vertex_graph(d, profile, g_l, total - g_l)
                        seen.setdefault(oracle_label(gr), gr)
                expected = [seen[label].to_json() for label in sorted(seen)]
                assert [gr.to_json() for gr in enumerate_two_vertex(d, g)] == expected


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

    def test_an_invalid_enumerated_graph_is_an_engine_bug(self, monkeypatch):
        def one_edge_short(d, profile, genus_left, genus_right):
            return two_vertex_graph(d - 1, profile[1:], genus_left, genus_right)
        monkeypatch.setattr(graphs, "two_vertex_graph", one_edge_short)
        graphs._labelled.cache_clear()
        try:
            with pytest.raises(InvalidGraph, match="enumeration produced an invalid graph"):
                graphs.two_vertex_label(3, (1, 1, 1), 1, 2)
        finally:
            graphs._labelled.cache_clear()


    def test_validates_and_labels_each_graph_once(self, monkeypatch):
        # the enumeration builds only the splits with the smaller genus on
        # the left; the full range validated 26 978 graphs for these 13 714
        counts = {"validate": 0, "canonical_label": 0}

        def counting(name):
            real = getattr(graphs, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        for name in counts:
            monkeypatch.setattr(graphs, name, counting(name))
        graphs._labelled.cache_clear()
        returned = sum(len(enumerate_two_vertex(d, g))
                       for d in (3, 4, 5) for g in range(0, 61))
        assert returned == 13714
        assert counts == {"validate": returned, "canonical_label": returned}
        # a cached graph is not validated again
        enumerate_two_vertex(3, 40)
        assert counts == {"validate": returned, "canonical_label": returned}


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
