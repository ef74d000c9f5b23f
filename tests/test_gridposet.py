"""Interval poset: sizes, order, ranks, Whitney numbers, chain counts."""

from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb.gridposet import (
    catalan,
    grid_bell,
    grid_chain_count,
    grid_elements,
    grid_leq,
    grid_rank,
    grid_size,
    grid_whitney,
)
from cobweb.sequences import NonIntegralError


def enumerate_pairs(k, n):
    """Independent oracle: raw set-builder for the element set."""
    return [(l, m) for l in range(k + 1) for m in range(n + 1) if l < m]


class TestSizeAndElements:
    def test_hand_enumerations(self):
        assert grid_size(1, 2) == 3
        assert grid_elements(1, 2) == [(0, 1), (0, 2), (1, 2)]
        assert grid_size(2, 3) == 6
        assert grid_elements(2, 3) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_single_column_chain(self):
        for n in range(1, 12):
            assert grid_size(0, n) == n
            assert grid_elements(0, n) == [(0, m) for m in range(1, n + 1)]

    def test_closed_form_matches_enumeration(self):
        for n in range(1, 31):
            for k in range(n):
                expected = enumerate_pairs(k, n)
                assert grid_elements(k, n) == expected
                assert grid_size(k, n) == len(expected)

    def test_extremes(self):
        elements = grid_elements(3, 7)
        assert min(elements) == (0, 1)
        assert max(elements) == (3, 7)
        assert all(grid_leq((0, 1), e) and grid_leq(e, (3, 7)) for e in elements)

    @pytest.mark.parametrize("k,n", [(2, 2), (3, 2), (-1, 3)])
    def test_bounds_rejected(self, k, n):
        with pytest.raises(ValueError):
            grid_size(k, n)
        with pytest.raises(ValueError):
            grid_elements(k, n)


class TestOrderAndRank:
    def test_componentwise_examples(self):
        assert grid_leq((0, 1), (1, 2))
        assert not grid_leq((1, 2), (0, 3))
        assert grid_leq((2, 3), (2, 3))

    def test_rank_examples(self):
        assert grid_rank((0, 1)) == 0
        assert grid_rank((1, 2)) == 2
        assert grid_rank((2, 3)) == 4

    def test_rank_rejects_degenerate_pair(self):
        with pytest.raises(ValueError):
            grid_rank((3, 3))

    def test_partial_order_laws_exhaustive(self):
        for n in range(2, 9):
            for k in range(n):
                elements = grid_elements(k, n)
                for a in elements:
                    assert grid_leq(a, a)
                for a, b in product(elements, repeat=2):
                    if a != b:
                        assert not (grid_leq(a, b) and grid_leq(b, a))
                for a, b, c in product(elements, repeat=3):
                    if grid_leq(a, b) and grid_leq(b, c):
                        assert grid_leq(a, c)


class TestWhitneyAndBell:
    def test_rank_census_examples(self):
        assert grid_whitney(2, 3) == [1, 1, 2, 1, 1]
        assert grid_whitney(1, 2) == [1, 1, 1]
        assert grid_whitney(0, 3) == [1, 1, 1]

    def test_census_shape(self):
        for n in range(1, 41):
            for k in range(n):
                whitney = grid_whitney(k, n)
                assert len(whitney) == k + n  # ranks 0 .. k+n-1
                assert all(w >= 1 for w in whitney)
                census = [0] * (k + n)  # closed form vs an enumerated census
                for l, m in enumerate_pairs(k, n):
                    census[l + m - 1] += 1
                assert whitney == census, (k, n)

    def test_bell_equals_size(self):
        assert grid_bell(2, 3) == 6
        assert grid_bell(1, 2) == 3
        for n in range(1, 31):
            for k in range(n):
                assert grid_bell(k, n) == grid_size(k, n)


class TestChainCount:
    def test_hand_counted_examples(self):
        assert grid_chain_count(1, 2) == 1
        assert grid_chain_count(2, 3) == 2
        assert grid_chain_count(3, 4) == 5

    def test_chain_poset_has_one_chain(self):
        for n in range(1, 13):
            assert grid_chain_count(0, n) == 1

    def test_catalan_diagonal(self):
        for n in range(1, 13):
            assert grid_chain_count(n - 1, n) == catalan(n - 1)

    @given(st.integers(min_value=1, max_value=40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_always_positive_integer(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n - 1))
        assert grid_chain_count(k, n) >= 1


    def test_remainder_raises_even_under_optimization(self, monkeypatch):
        monkeypatch.setattr("cobweb.gridposet.comb", lambda a, b: comb(a, b) + 1)
        with pytest.raises(NonIntegralError, match=r"\(k, n\) = \(1, 4\)"):
            grid_chain_count(1, 4)


class TestCatalan:
    def test_known_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5
        assert catalan(9) == comb(18, 9) // 10 == 4862

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)
