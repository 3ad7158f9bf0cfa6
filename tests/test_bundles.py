import random

import pytest
from hypothesis import given, strategies as st

from hurwitzcalc.bundles import (CoverInvariants, SplittingType, balanced_type,
                                 divisorial_conditions, ext1_dim, generic_tame,
                                 is_balanced, is_tame, k1_pentagonal,
                                 m_r_pentagonal, maroni_codimension,
                                 pushforward_c1_power,
                                 rational_and_elliptic_tables, syzygy_rank,
                                 v_tetragonal, _tame_types)
from hurwitzcalc.errors import IndexOutOfRange, NoTameType, OutOfRange
from hurwitzcalc.symkernel import Poly

splitting_types = st.lists(st.integers(-6, 12), min_size=1, max_size=9).map(
    lambda xs: SplittingType(tuple(xs)))


class TestSplittingType:
    @given(splitting_types)
    def test_riemann_roch(self, t):
        assert t.h0() - t.h1() == t.degree + t.rank

    @given(splitting_types)
    def test_balanced_iff_ext1_vanishes(self, t):
        spread = t.degrees[-1] - t.degrees[0]
        assert is_balanced(t) == (ext1_dim(t) == 0) == (spread <= 1)

    def test_examples(self):
        assert is_balanced(SplittingType((3, 3, 3)))
        assert ext1_dim(SplittingType((3, 3, 3))) == 0
        assert not is_balanced(SplittingType((2, 3, 4)))
        assert ext1_dim(SplittingType((2, 3, 4))) == 1
        assert is_balanced(SplittingType((1, 1, 2, 2, 2)))

    def test_serialization(self):
        t = SplittingType((1, 1, 2))
        assert str(t) == "O(1)+O(1)+O(2)"
        assert SplittingType.from_json(t.to_json()) == t


class TestBalancedType:
    def test_examples(self):
        assert balanced_type(4, 12).degrees == (3, 3, 3, 3)
        assert balanced_type(5, 12).degrees == (2, 2, 2, 3, 3)
        assert balanced_type(1, 7).degrees == (7,)

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError, match="rank must be at least 1"):
            balanced_type(0, 7)

    @given(st.integers(1, 9), st.integers(-20, 40))
    def test_balanced_and_correct(self, rank, degree):
        t = balanced_type(rank, degree)
        assert t.rank == rank and t.degree == degree and is_balanced(t)


class TestTame:
    def test_gap_example(self):
        assert not is_tame(SplittingType((1, 2, 4)))
        assert is_tame(SplittingType((2, 3, 4)))

    def test_generic_tame_examples(self):
        assert generic_tame(4, 6, 2).degrees == (2, 3, 4)
        assert generic_tame(4, 6, 3).degrees == (3, 3, 3)

    def test_no_tame_type(self):
        # floor 1 cannot reach degree 9 in rank 3 (gaps capped at 1)
        with pytest.raises(NoTameType):
            generic_tame(4, 9, 1)

    def test_matches_brute_argmax(self):
        # independent oracle: filter all partitions by length, floor, gaps
        from hurwitzcalc.graphs import partitions
        by_degree: dict[int, list[tuple[int, ...]]] = {}
        for d in range(3, 7):
            for g in range(2, 31):
                rank, degree = d - 1, g + d - 1
                parts = by_degree.setdefault(degree, partitions(degree))
                for m in range(1, degree // rank + 1):
                    candidates = [tuple(reversed(p)) for p in parts
                                  if len(p) == rank and min(p) == m
                                  and is_tame(SplittingType(tuple(p)))]
                    if not candidates:
                        with pytest.raises(NoTameType):
                            generic_tame(d, g, m)
                        continue
                    weight = lambda t: sum((rank - i) * a for i, a in enumerate(t))
                    best = max(candidates, key=weight)
                    ties = [c for c in candidates if weight(c) == weight(best)]
                    assert len(ties) == 1
                    assert generic_tame(d, g, m).degrees == best

    def test_enumerator_output_is_tame(self):
        for t in _tame_types(4, 17, 2):
            assert is_tame(SplittingType(t)) and t[0] == 2 and sum(t) == 17

    def test_enumerator_edge_cases(self):
        # rank one: the one twist is the floor and the degree
        assert list(_tame_types(1, 5, 5)) == [(5,)]
        assert list(_tame_types(1, 5, 4)) == []
        assert list(_tame_types(3, 9, 0)) == [] and list(_tame_types(0, 0, 1)) == []


class TestMaroniCodimension:
    def test_divisorial_cases(self):
        assert maroni_codimension(4, 6, 2) == 1
        assert maroni_codimension(3, 4, 2) == 1

    def test_full_space_clause(self):
        assert maroni_codimension(4, 6, 3) == 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            maroni_codimension(4, 6, 1)          # below (g+d-1)/C(d,2)
        with pytest.raises(OutOfRange):
            maroni_codimension(4, 6, 4)


class TestDivisorialConditions:
    def test_examples(self):
        assert divisorial_conditions(4, 9) == {"maroni": True, "ce": True}
        assert divisorial_conditions(5, 16) == {"maroni": True, "ce": True}
        assert divisorial_conditions(3, 5) == {"maroni": False, "ce": False}

    def test_congruence_classes(self):
        for g in range(4, 60):
            both = divisorial_conditions(4, g)
            assert (both["maroni"] and both["ce"]) == (g % 6 == 3)
            both = divisorial_conditions(5, g)
            assert (both["maroni"] and both["ce"]) == (g % 20 == 16)

    def test_out_of_range(self):
        for d, g in ((2, 5), (3, 1)):
            with pytest.raises(OutOfRange, match="need d >= 3 and g >= 2"):
                divisorial_conditions(d, g)


class TestSyzygyRanks:
    def test_examples(self):
        assert syzygy_rank(5, 1) == 5       # equals rank F = d(d-3)/2
        assert syzygy_rank(4, 2) == 1       # the final determinant line
        assert syzygy_rank(6, 2) == 16

    def test_symmetry(self):
        for d in range(4, 9):
            for i in range(1, d - 2):
                assert syzygy_rank(d, i) == syzygy_rank(d, d - 2 - i)

    def test_first_is_quadrics_rank(self):
        for d in range(4, 9):
            assert syzygy_rank(d, 1) == CoverInvariants(d, 7).rank_f

    def test_index_errors(self):
        with pytest.raises(IndexOutOfRange):
            syzygy_rank(5, 0)
        with pytest.raises(IndexOutOfRange):
            syzygy_rank(5, 4)


class TestTables:
    def test_degree_five(self):
        tables = rational_and_elliptic_tables(5)
        assert tables["F_rational"].degrees == (1, 1, 2, 2, 2)
        assert tables["E_rational"].degrees == (1, 1, 1, 1)

    def test_degree_four_elliptic(self):
        assert rational_and_elliptic_tables(4)["F_elliptic"].degrees == (2, 2)

    def test_degree_three_has_no_quadrics(self):
        tables = rational_and_elliptic_tables(3)
        assert tables["F_rational"] is None and tables["F_elliptic"] is None

    def test_degree_two_is_out_of_range(self):
        with pytest.raises(OutOfRange, match="need d >= 3"):
            rational_and_elliptic_tables(2)

    def test_degree_consistency_with_c1_relation(self):
        for d in range(4, 9):
            tables = rational_and_elliptic_tables(d)
            assert tables["F_rational"].degree == (d - 3) * (d - 1)
            assert tables["F_elliptic"].degree == (d - 3) * d
            assert tables["F_rational"].rank == d * (d - 3) // 2


class TestCoverInvariants:
    def test_record(self):
        cov = CoverInvariants(5, 16)
        assert (cov.rank_e, cov.deg_e) == (4, 20)
        assert (cov.rank_f, cov.deg_f) == (5, 40)
        assert cov.branch_points == 40
        assert cov.deg_f == (cov.d - 3) * cov.deg_e


class TestPushforward:
    def test_formula_instances(self):
        c1 = Poly.var("c1E")
        assert pushforward_c1_power(1, c1) == c1
        assert pushforward_c1_power(2, c1) == 3 * c1
        assert pushforward_c1_power(3, c1) == 5 * c1

    def test_recovers_quadrics_degree_at_rank_three(self):
        # c1(Sym^2 E) = (rank+1) c1(E) = 4 c1(E) for rank three, so the
        # quadrics bundle has c1 = 4c1 - 3c1 = (d-3) c1(E) at d = 4
        c1 = Poly.var("c1E")
        sym2 = 4 * c1
        assert sym2 - pushforward_c1_power(2, c1) == (4 - 3) * c1

    def test_rejects_nonpositive_power(self):
        with pytest.raises(OutOfRange):
            pushforward_c1_power(0, Poly.var("c"))


class TestCeilingHelpers:
    def test_pinned_values(self):
        assert k1_pentagonal(16) == 17
        assert m_r_pentagonal(16) == -15
        assert v_tetragonal(3) == 3
        assert v_tetragonal(6) == 5


def test_random_splitting_types_riemann_roch_bulk():
    rng = random.Random(20240811)
    for _ in range(10_000):
        rank = rng.randint(1, 10)
        t = SplittingType(tuple(rng.randint(-5, 15) for _ in range(rank)))
        assert t.h0() - t.h1() == t.degree + t.rank
