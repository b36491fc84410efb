"""Unit tests for partition combinatorics."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import in_rectangle, rectangle_complement
from schurkernels import partitions as pt

partition_strategy = st.lists(
    st.integers(min_value=1, max_value=20), max_size=8
).map(lambda xs: tuple(sorted(xs, reverse=True)))


class TestCanonical:
    def test_trims_zeros(self):
        assert pt.canonical((3, 1, 0, 0)) == (3, 1)

    def test_rejects_increase(self):
        with pytest.raises(ValueError):
            pt.canonical((1, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pt.canonical((2, -1))


class TestConjugate:
    def test_empty(self):
        assert pt.conjugate(()) == ()

    def test_known_diagram(self):
        assert pt.conjugate((6, 6, 5, 3)) == (4, 4, 4, 3, 3, 2)

    def test_self_conjugate(self):
        assert pt.conjugate((2, 1)) == (2, 1)

    def test_involution_bulk(self):
        rng = random.Random(3)
        for _ in range(10_000):
            p = pt.canonical(sorted((rng.randint(0, 20) for _ in range(rng.randint(0, 6))),
                                    reverse=True))
            assert pt.conjugate(pt.conjugate(p)) == p

    @given(partition_strategy)
    @settings(max_examples=200, deadline=None)
    def test_involution_property(self, p):
        assert pt.conjugate(pt.conjugate(p)) == p

    @given(partition_strategy)
    @settings(max_examples=100, deadline=None)
    def test_size_preserved(self, p):
        assert sum(pt.conjugate(p)) == sum(p)

    @given(partition_strategy)
    @settings(max_examples=200, deadline=None)
    def test_column_counts(self, p):
        """p'_j is the number of parts >= j, for j = 1..p_1."""
        width = p[0] if p else 0
        assert pt.conjugate(p) == tuple(sum(1 for x in p if x >= j)
                                        for j in range(1, width + 1))


class TestEnumerateBounded:
    def test_degenerate(self):
        assert pt.enumerate_bounded(0, 5) == [()]
        assert pt.enumerate_bounded(5, 0) == [()]

    def test_small_listing(self):
        assert pt.enumerate_bounded(1, 2) == [(), (1,), (2,)]

    def test_graded_lex_order(self):
        out = pt.enumerate_bounded(2, 2)
        assert out == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]

    @pytest.mark.parametrize("rows", range(0, 9))
    @pytest.mark.parametrize("cols", range(0, 9))
    def test_count(self, rows, cols):
        assert len(pt.enumerate_bounded(rows, cols)) == comb(rows + cols, rows)

    def test_all_fit(self):
        for p in pt.enumerate_bounded(3, 4):
            assert in_rectangle(p, 3, 4)


class TestRectangleComplement:
    def test_known_diagram(self):
        assert rectangle_complement((3, 1), 4, 6) == (6, 6, 5, 3)

    def test_empty_gives_rectangle(self):
        assert rectangle_complement((), 3, 5) == (5, 5, 5)

    def test_rectangle_gives_empty(self):
        assert rectangle_complement((5, 5, 5), 3, 5) == ()

    def test_out_of_rectangle(self):
        with pytest.raises(ValueError):
            rectangle_complement((7,), 2, 6)

    def test_involution(self):
        for mu in pt.enumerate_bounded(3, 4):
            assert rectangle_complement(rectangle_complement(mu, 3, 4), 3, 4) == mu

    def test_commutes_with_conjugation(self):
        for mu in pt.enumerate_bounded(3, 4):
            lhs = pt.conjugate(rectangle_complement(mu, 3, 4))
            rhs = rectangle_complement(pt.conjugate(mu), 4, 3)
            assert lhs == rhs


class TestHookContent:
    def test_single_cell(self):
        assert pt.hook_content_data((1,)) == [((1, 1), 1, 0)]

    def test_staircase(self):
        data = pt.hook_content_data((2, 1))
        hooks = sorted(h for _, h, _ in data)
        contents = sorted(c for _, _, c in data)
        assert hooks == [1, 1, 3]
        assert contents == [-1, 0, 1]

    def test_row(self):
        data = pt.hook_content_data((2,))
        assert sorted(h for _, h, _ in data) == [1, 2]
