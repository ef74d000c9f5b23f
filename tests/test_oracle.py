"""Brute-force oracle: Hasse construction, chain enumeration, censuses."""

import re
from collections import Counter
from math import comb, prod
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import oracle
from cobweb.gridposet import (
    catalan,
    grid_chain_count,
    grid_elements,
    grid_leq,
    grid_rank,
    grid_size,
    grid_whitney,
)
from cobweb.oracle import (
    DEFAULT_MAX_CHAINS,
    ChainReport,
    HasseDiagram,
    ScaleLimitError,
    build_grid_hasse,
    count_maximal_chains,
    enumerate_maximal_chains,
    factorial_ratios,
    layer_sizes,
    pascal_rows,
    principal_ideals,
    rank_level_counts,
    recurrence_values,
)
from cobweb.pnfposet import POLICIES, pnf_max_rank, pnf_whitney_vector
from cobweb.sequences import (
    GCD_MORPHIC_SPECS,
    FSequence,
    NonIntegralError,
    f_binomial_rows,
    fibonacci,
    gaussian,
    lucas,
    naturals,
    ones,
    sequence_from_spec,
)

FIB = fibonacci()
NAT = naturals()
ONES = ones()
LAYERED_SEQS = (FIB, NAT, ONES, gaussian(2), gaussian(3))


def cubic_cover_edges(k, n):
    """Reference transitive reduction: a < b is a cover iff no c lies between."""
    elements = grid_elements(k, n)
    less = {(a, b) for a in elements for b in elements if a != b and grid_leq(a, b)}
    return sorted(
        (a, b)
        for a, b in less
        if not any((a, c) in less and (c, b) in less for c in elements)
    )


def pairwise_covers(k, n):
    """Reference reduction, one ``grid_leq`` call per ordered pair: with
    ``up(a)`` the bitset of elements strictly above ``a``, the covers of
    ``a`` are ``up(a)`` minus the up-set of every element of ``up(a)``.
    Returns the cover edges and the minimal vertices."""
    elements = grid_elements(k, n)
    up = [
        sum(1 << j for j, b in enumerate(elements) if a != b and grid_leq(a, b))
        for a in elements
    ]
    edges = []
    covered = 0
    for a, above in zip(elements, up):
        beyond = 0
        for j in range(len(elements)):
            if above >> j & 1:
                beyond |= up[j]
        covers = above & ~beyond
        edges += [(a, b) for j, b in enumerate(elements) if covers >> j & 1]
        covered |= covers
    return edges, tuple(v for j, v in enumerate(elements) if not covered >> j & 1)


def with_extra_edge(diagram, lower, upper):
    """The same vertices and ranks with one more (transitive) cover edge."""
    def successors_of(vertex):
        covers = list(diagram.successors(vertex))
        return sorted(covers + [upper]) if vertex == lower else covers

    return HasseDiagram(
        diagram.vertices, diagram.rank_of, successors_of, diagram.minimal_vertices
    )


def recursive_chain_report(diagram):
    """Reference walk: one recursive call per chain prefix."""
    lengths = []

    def extend(vertex, depth):
        uppers = diagram.successors(vertex)
        if not uppers:
            lengths.append(depth)
        for upper in uppers:
            extend(upper, depth + 1)

    for minimal in diagram.minimal_vertices:
        extend(minimal, 1)
    if not lengths:
        return ChainReport(0, 0, 0, True)
    return ChainReport(len(lengths), min(lengths), max(lengths), len(set(lengths)) == 1)


@st.composite
def rank_raising_diagrams(draw):
    """Small diagrams whose covers raise a drawn rank: several minimal
    vertices, transitive covers and uneven chain lengths allowed.  Vertex
    (i, rank) is the i-th drawn, so the vertex order ignores the ranks."""
    ranks = draw(st.lists(st.integers(0, 4), min_size=1, max_size=10))
    vertices = list(enumerate(ranks))
    covers = {vertex: [] for vertex in vertices}
    for lower in vertices:
        for upper in vertices:
            if lower[1] < upper[1] and draw(st.booleans()):
                covers[lower].append(upper)
    covered = {upper for uppers in covers.values() for upper in uppers}
    return HasseDiagram(
        vertices,
        itemgetter(1),
        covers.__getitem__,
        tuple(v for v in vertices if v not in covered),
    )


def calls_per_vertex(diagram, read):
    """How often ``read`` of ``diagram`` asks ``rank_of`` and ``successors``
    about each vertex: two Counters, in that order."""
    rank_of = mock.Mock(wraps=diagram.rank_of)
    successors = mock.Mock(wraps=diagram.successors)
    read(HasseDiagram(diagram.vertices, rank_of, successors, diagram.minimal_vertices))
    return [
        Counter(call.args[0] for call in asked.call_args_list) for asked in (rank_of, successors)
    ]


def layered(sizes):
    """The ordinal sum of antichains of the given sizes: every vertex of a
    level is covered by the whole level above."""
    levels = [[(k, i) for i in range(size)] for k, size in enumerate(sizes)]
    levels.append([])
    return HasseDiagram(
        [vertex for level in levels for vertex in level],
        itemgetter(0),
        lambda vertex: levels[vertex[0] + 1],
        tuple(levels[0]),
    )


def members(diagram, down):
    """The vertices whose bits are set in the bitset ``down``, in diagram order."""
    return [v for i, v in enumerate(diagram.vertices) if down >> i & 1]


def reachable(diagram, start):
    seen, stack = set(), [start]
    while stack:
        vertex = stack.pop()
        for upper in diagram.successors(vertex):
            if upper not in seen:
                seen.add(upper)
                stack.append(upper)
    return seen


class TestGridHasse:
    def test_hand_reduced_small_cases(self):
        diagram = build_grid_hasse(1, 2)
        assert len(diagram.vertices) == 3
        assert list(diagram.cover_edges()) == [((0, 1), (0, 2)), ((0, 2), (1, 2))]

        path = build_grid_hasse(0, 3)
        edges = list(path.cover_edges())
        assert len(edges) == 2
        assert edges == [((0, 1), (0, 2)), ((0, 2), (0, 3))]

    def test_hand_reduction_2_3(self):
        diagram = build_grid_hasse(2, 3)
        assert len(diagram.vertices) == 6
        assert sorted(diagram.cover_edges()) == [
            ((0, 1), (0, 2)),
            ((0, 2), (0, 3)),
            ((0, 2), (1, 2)),
            ((0, 3), (1, 3)),
            ((1, 2), (1, 3)),
            ((1, 3), (2, 3)),
        ]

    def test_unique_minimum(self):
        for k, n in [(0, 4), (1, 3), (3, 5)]:
            assert build_grid_hasse(k, n).minimal_vertices == ((0, 1),)

    def test_cover_edges_raise_rank_by_one(self):
        for k, n in [(1, 3), (2, 4), (3, 5), (4, 6)]:
            diagram = build_grid_hasse(k, n)
            for lower, upper in diagram.cover_edges():
                assert diagram.rank_of(upper) == diagram.rank_of(lower) + 1

    def test_transitive_closure_recovers_full_order(self):
        for n in range(2, 7):
            for k in range(n):
                diagram = build_grid_hasse(k, n)
                elements = grid_elements(k, n)
                for a in elements:
                    above = reachable(diagram, a)
                    expected = {b for b in elements if a != b and grid_leq(a, b)}
                    assert above == expected

    def test_irreflexive_acyclic(self):
        diagram = build_grid_hasse(3, 5)
        for a, b in diagram.cover_edges():
            assert a != b
        for vertex in diagram.vertices:
            assert vertex not in reachable(diagram, vertex)

    def test_bitset_covers_equal_cubic_reduction(self):
        for n in range(1, 13):
            for k in range(n):
                diagram = build_grid_hasse(k, n)
                assert list(diagram.cover_edges()) == cubic_cover_edges(k, n)
                assert diagram.minimal_vertices == ((0, 1),)

    def test_covers_equal_the_pairwise_reduction(self):
        for top in [*range(1, 25), 40]:
            diagram = build_grid_hasse(top - 1, top, max_index=top)
            edges, minimals = pairwise_covers(top - 1, top)
            assert list(diagram.cover_edges()) == edges
            assert diagram.minimal_vertices == minimals

    def test_a_vertex_order_that_is_no_linear_extension_is_rejected(self, monkeypatch):
        monkeypatch.setattr(oracle, "grid_elements", lambda k, n: grid_elements(k, n)[::-1])
        with pytest.raises(ValueError, match=r"^\(2, 3\) >= \(\d, \d\) comes before "):
            build_grid_hasse(2, 3)

    def test_scale_guard(self):
        with pytest.raises(ScaleLimitError, match="12"):
            build_grid_hasse(3, 13)
        assert len(build_grid_hasse(3, 13, max_index=13).vertices) == grid_size(3, 13)


class TestPrincipalIdeal:
    def test_every_grid_is_a_down_set_of_the_largest(self):
        direct = {}
        for top in range(1, 13):
            whole = build_grid_hasse(top - 1, top, max_index=top)
            ideals = principal_ideals(whole, whole.vertices)
            for (k, n), (down, census, report) in zip(whole.vertices, ideals, strict=True):
                if (k, n) not in direct:
                    grid = build_grid_hasse(k, n)
                    direct[k, n] = (
                        grid.vertices,
                        rank_level_counts(grid),
                        enumerate_maximal_chains(grid),  # the walk, not the sweep's DP
                    )
                assert (members(whole, down), census, report) == direct[k, n]
        assert len(direct) == grid_size(11, 12)

    @given(rank_raising_diagrams())
    @settings(max_examples=100, deadline=None)
    def test_each_down_set_equals_the_diagram_built_on_it(self, diagram):
        ideals = principal_ideals(diagram, diagram.vertices)
        for top, (down, census, report) in zip(diagram.vertices, ideals, strict=True):
            inside = [v for v in diagram.vertices if v == top or top in reachable(diagram, v)]
            covers = {v: [b for b in diagram.successors(v) if b in inside] for v in inside}
            minimals = tuple(v for v in diagram.minimal_vertices if v in inside)
            ideal = HasseDiagram(inside, diagram.rank_of, covers.__getitem__, minimals)
            assert members(diagram, down) == inside
            assert census == rank_level_counts(ideal)
            ranks = [diagram.rank_of(v) for v in inside]
            assert census == [ranks.count(j) for j in range(diagram.rank_of(top) + 1)]
            assert report == recursive_chain_report(ideal)

    def test_cover_edges_are_read_once_per_diagram(self):
        whole = build_grid_hasse(7, 8)
        tops = [(k, n) for n in range(2, 9) for k in range(n)]
        read = HasseDiagram.cover_edges
        with mock.patch.object(
            HasseDiagram, "cover_edges", autospec=True, side_effect=read
        ) as reads:
            ideals = list(principal_ideals(whole, tops))
        sizes = [down.bit_count() for down, _, _ in ideals]
        assert sizes == [grid_size(k, n) for k, n in tops]
        assert reads.call_count == 1

    @given(rank_raising_diagrams())
    @settings(max_examples=50, deadline=None)
    def test_ranks_and_covers_are_read_once_per_vertex(self, drawn):
        for diagram in (build_grid_hasse(7, 8), drawn):
            once = Counter(diagram.vertices)
            for read in (lambda d: list(principal_ideals(d, d.vertices)), count_maximal_chains):
                assert calls_per_vertex(diagram, read) == [once, once]

    def test_two_minima_by_hand(self):
        # (0, 0) and (0, 1) are minimal; (1, 0) covers both, (1, 1) only (0, 1)
        covers = {
            (0, 0): [(1, 0)],
            (0, 1): [(1, 0), (1, 1)],
            (1, 0): [(2, 0)],
            (1, 1): [(2, 0)],
            (2, 0): [],
        }
        diagram = HasseDiagram(
            list(covers), itemgetter(0), covers.__getitem__, ((0, 0), (0, 1))
        )
        # bit i of a down-set stands for the i-th vertex of list(covers)
        expected = {
            (2, 0): (0b11111, [2, 2, 1], ChainReport(3, 3, 3, True)),
            (1, 0): (0b00111, [2, 1], ChainReport(2, 2, 2, True)),
            (1, 1): (0b01010, [1, 1], ChainReport(1, 2, 2, True)),
            (0, 1): (0b00010, [1], ChainReport(1, 1, 1, True)),
        }
        assert list(principal_ideals(diagram, expected)) == list(expected.values())

    def test_a_top_outside_the_diagram_is_rejected(self):
        whole = build_grid_hasse(3, 4)
        with pytest.raises(ValueError, match=r"^\(4, 4\) is not a vertex of the diagram$"):
            list(principal_ideals(whole, [(3, 4), (4, 4)]))

    def test_a_rank_that_does_not_increase_is_rejected(self):
        base = build_grid_hasse(2, 3)
        flipped = HasseDiagram(
            base.vertices, lambda v: -grid_rank(v), base.successors, base.minimal_vertices
        )
        with pytest.raises(ValueError, match="^rank does not increase along the cover "):
            next(principal_ideals(flipped, [(0, 1)]))


class TestLayerSizes:
    """The oracle's side of P(n, F): level sizes from ``layer_sizes``, and
    the chain counters on the layered shape they give."""

    def test_level_sizes(self):
        assert layer_sizes(4, NAT) == [1, 3, 1]
        assert layer_sizes(6, FIB) == [1, 5, 6, 1]

    def test_single_vertex(self):
        diagram = layered(layer_sizes(1, FIB))
        assert len(diagram) == 1
        assert list(diagram.cover_edges()) == []
        assert count_maximal_chains(diagram) == ChainReport(1, 1, 1, True)
        assert enumerate_maximal_chains(diagram) == ChainReport(1, 1, 1, True)

    def test_complete_bipartite_between_consecutive_levels(self):
        diagram = layered(layer_sizes(5, NAT))  # levels 1, 4, 3
        edges = list(diagram.cover_edges())
        assert len(edges) == 1 * 4 + 4 * 3
        for lower, upper in edges:
            assert upper[0] == lower[0] + 1

    def test_census_consistency_to_30(self):
        for seq in LAYERED_SEQS:
            for policy in POLICIES:
                for n in range(1, 31):
                    sizes = layer_sizes(n, seq)[: pnf_max_rank(n, policy) + 1]
                    assert sizes == pnf_whitney_vector(n, seq, policy)

    def test_policy_changes_top_level(self):
        assert layer_sizes(4, NAT)[: pnf_max_rank(4, "include") + 1] == [1, 3, 1]
        assert layer_sizes(4, NAT)[: pnf_max_rank(4, "exclude") + 1] == [1, 3]

    def test_non_integral_level_names_the_entry(self):
        with pytest.raises(NonIntegralError) as raised:
            layer_sizes(6, lucas())
        assert str(raised.value) == (
            "(4 choose 2)_F is not an integer for F = lucas: "
            "F_4! leaves remainder 3 after dividing by F_2! F_2! = 9"
        )

    def test_inadmissible_value_is_rejected(self):
        zero_at_3 = FSequence("zero-at-3", lambda i: 0 if i == 3 else 1)
        with pytest.raises(ValueError, match="F_3 = 0"):
            layer_sizes(4, zero_at_3)

    def test_every_level_from_0_to_half_n(self):
        assert [len(layer_sizes(n, ONES)) for n in range(7)] == [1, 1, 2, 2, 3, 3, 4]
        assert layer_sizes(0, FIB) == [1]

    @pytest.mark.parametrize("n", [-1, -2, -7])
    def test_layer_sizes_rejects_a_negative_degree(self, n):
        with pytest.raises(ValueError, match=rf"^poset degree must be >= 0, got {n}$"):
            layer_sizes(n, NAT)


class TestRecurrenceValues:
    """``recurrence_values``: shipped sequences from their defining recurrences."""

    def test_first_values(self):
        assert recurrence_values("fib", range(1, 11)) == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        assert recurrence_values("lucas", range(1, 9)) == [1, 3, 4, 7, 11, 18, 29, 47]
        assert recurrence_values("naturals", [5, 1, 3]) == [5, 1, 3]
        assert recurrence_values("ones", [1, 2, 9]) == [1, 1, 1]
        assert recurrence_values("gauss2", range(1, 6)) == [1, 3, 7, 15, 31]
        assert recurrence_values("gauss3", [4, 4]) == [40, 40]
        assert recurrence_values("fib", []) == []

    @pytest.mark.parametrize("spec", [*GCD_MORPHIC_SPECS, "lucas", "gauss10"])
    def test_equal_to_the_shipped_values_from_f_0(self, spec):
        seq = sequence_from_spec(spec)
        indices = [*range(301), 1024]
        assert recurrence_values(spec, indices) == [seq.value_at(n) for n in indices]

    @pytest.mark.parametrize("spec", ["catalan", "", "42"])
    def test_an_unknown_name_is_rejected(self, spec):
        with pytest.raises(KeyError):
            recurrence_values(spec, [1])

    def test_a_negative_index_is_rejected(self):
        with pytest.raises(KeyError):
            recurrence_values("fib", [3, -1])

    @pytest.mark.parametrize("spec", ["fib7", "lucas2", "gauss", "gauss0", "gauss1"])
    @pytest.mark.parametrize(
        "read",
        [lambda spec: recurrence_values(spec, [5, 6]), lambda spec: next(pascal_rows(spec, 3))],
        ids=["recurrence_values", "pascal_rows"],
    )
    def test_a_spec_sequence_from_spec_refuses_is_rejected(self, spec, read):
        with pytest.raises(ValueError):
            sequence_from_spec(spec)
        with pytest.raises(KeyError) as raised:
            read(spec)
        assert raised.value.args == (spec,)


class TestPascalRows:
    """``pascal_rows``: the shipped family's division-free F-binomial rows."""

    @pytest.mark.parametrize("spec", GCD_MORPHIC_SPECS)
    def test_equal_to_factorial_ratios_and_the_row_engine_to_100(self, spec):
        seq = sequence_from_spec(spec)
        rows = list(pascal_rows(spec, 100))
        ratios = iter(factorial_ratios(seq, [(n, k) for n in range(101) for k in range(n + 1)]))
        assert rows == [[next(ratios) for _ in range(n + 1)] for n in range(101)]
        assert rows == list(f_binomial_rows(seq, 100))

    def test_row_zero_alone(self):
        assert list(pascal_rows("fib", 0)) == [[1]]

    @pytest.mark.parametrize("spec, last_row", [("lucas", 4), ("fib", -1)])
    def test_lucas_and_a_negative_last_row_are_rejected(self, spec, last_row):
        with pytest.raises(ValueError, match=re.escape(f"got ({spec!r}, {last_row})")):
            next(pascal_rows(spec, last_row))


class TestFactorialRatios:
    """``factorial_ratios``: the oracle's F-binomial reference for any sequence."""

    def test_naturals_give_ordinary_binomials_to_30(self):
        pairs = [(n, k) for n in range(31) for k in range(n + 1)]
        assert factorial_ratios(NAT, pairs) == [comb(n, k) for n, k in pairs]

    def test_each_index_is_read_once_and_f0_never(self):
        no_zero = FSequence("no-zero", lambda i: i if i > 0 else 1 // 0)
        read = mock.Mock(wraps=oracle.seq_eval)
        with mock.patch("cobweb.oracle.seq_eval", read):
            ratios = factorial_ratios(no_zero, [(5, 2), (0, 0), (7, 3), (5, 2)])
        assert ratios == [10, 1, 35, 10]
        assert [c.args[1] for c in read.call_args_list] == list(range(1, 8))

    def test_no_pairs_read_no_value(self):
        read = mock.Mock(wraps=oracle.seq_eval)
        with mock.patch("cobweb.oracle.seq_eval", read):
            assert factorial_ratios(FIB, []) == []
        read.assert_not_called()

    @pytest.mark.parametrize("pair", [(3, 4), (3, -1)])
    def test_an_entry_outside_the_triangle_is_rejected(self, pair):
        error = re.escape(f"0 <= k <= n, got {pair}") + "$"
        with pytest.raises(ValueError, match=error):
            factorial_ratios(NAT, [(2, 1), pair])


class TestChainEnumeration:
    def test_hand_enumerated_grid_chains(self):
        assert enumerate_maximal_chains(build_grid_hasse(1, 2)) == ChainReport(1, 3, 3, True)
        assert enumerate_maximal_chains(build_grid_hasse(2, 3)) == ChainReport(2, 5, 5, True)

    def test_ordinal_sum_chains_are_level_products(self):
        report = enumerate_maximal_chains(layered(layer_sizes(4, NAT)))
        assert report == ChainReport(3, 3, 3, True)

    def test_gradedness_across_grid_family(self):
        for n in range(2, 9):
            for k in range(n):
                report = enumerate_maximal_chains(build_grid_hasse(k, n))
                assert report.graded
                assert report.min_length == report.max_length == k + n

    def test_matches_closed_form(self):
        for n in range(2, 10):
            for k in range(n):
                report = enumerate_maximal_chains(build_grid_hasse(k, n))
                assert report.chain_count == grid_chain_count(k, n)

    def test_census_matches_whitney(self):
        for n in range(2, 10):
            for k in range(n):
                assert rank_level_counts(build_grid_hasse(k, n)) == grid_whitney(k, n)

    def test_census_rejects_a_negative_rank(self):
        ranks = {(0, 0): -1, (1, 0): 0}
        covers = {(0, 0): [(1, 0)], (1, 0): []}
        diagram = HasseDiagram(list(ranks), ranks.__getitem__, covers.__getitem__, ((0, 0),))
        with pytest.raises(ValueError, match=r"^vertex \(0, 0\) has negative rank -1$"):
            rank_level_counts(diagram)
        with pytest.raises(ValueError, match=r"^vertex \(0, 0\) has negative rank -1$"):
            next(principal_ideals(diagram, [(1, 0)]))

    def test_chain_guard_trips(self):
        with pytest.raises(ScaleLimitError, match="chains"):
            enumerate_maximal_chains(build_grid_hasse(5, 6), max_chains=10)

    @pytest.mark.parametrize(
        "diagram, chains",
        [
            (build_grid_hasse(5, 6), catalan(5)),
            (layered((1, 7, 15, 10, 1)), 1 * 7 * 15 * 10 * 1),  # 1050 open at depth 4
        ],
        ids=["grid-5-6", "naturals-8"],
    )
    def test_chain_guard_boundary(self, diagram, chains):
        report = enumerate_maximal_chains(diagram, max_chains=chains)
        assert report.chain_count == chains
        below = f"exceeded the guard of {chains - 1} chains; pass an explicit"
        with pytest.raises(ScaleLimitError, match=below):
            enumerate_maximal_chains(diagram, max_chains=chains - 1)

    def test_chain_longer_than_the_recursion_limit(self):
        diagram = build_grid_hasse(0, 1100, max_index=1100)
        report = enumerate_maximal_chains(diagram)
        assert report == ChainReport(1, 1100, 1100, True)
        assert report == count_maximal_chains(diagram)

    @given(
        rank_raising_diagrams(),
        st.sampled_from([1, 2, 3, 512, 1 << 16]),  # the last exceeds any level
    )
    @settings(max_examples=200, deadline=None)
    def test_batched_walk_equals_recursive_walk_and_dp(self, diagram, batch):
        expected = recursive_chain_report(diagram)
        assert expected == count_maximal_chains(diagram)
        with mock.patch.object(oracle, "_CHAIN_BATCH", batch):
            assert enumerate_maximal_chains(diagram) == expected
            count = expected.chain_count
            assert enumerate_maximal_chains(diagram, max_chains=count) == expected
            with pytest.raises(ScaleLimitError):
                enumerate_maximal_chains(diagram, max_chains=count - 1)

    def test_walk_and_guard_on_layered_shapes(self):
        sizes = (3, 4, 5, 6)
        diagram = layered(sizes)
        expected = recursive_chain_report(diagram)
        assert expected == count_maximal_chains(diagram)
        assert expected == ChainReport(prod(sizes), len(sizes), len(sizes), True)
        count = expected.chain_count
        assert enumerate_maximal_chains(diagram, max_chains=count) == expected
        below = f"exceeded the guard of {count - 1} chains; pass an explicit"
        with pytest.raises(ScaleLimitError, match=below):
            enumerate_maximal_chains(diagram, max_chains=count - 1)

    @pytest.mark.parametrize(
        "build, limit",
        [
            # level 2 of P(12, gauss2) alone
            (lambda: layered(layer_sizes(12, gaussian(2))[:3]), DEFAULT_MAX_CHAINS),
            (lambda: layered((1, 1000, 1000)), 10_000),  # only a batch of level 1 is over
        ],
        ids=["gauss2-12", "batch-over"],
    )
    def test_guard_asks_each_vertex_once_and_none_of_the_refused_level(self, build, limit):
        base = build()
        asked = Counter()

        def successors(vertex):
            asked[vertex] += 1
            return base.successors(vertex)

        diagram = HasseDiagram(base.vertices, base.rank_of, successors, base.minimal_vertices)
        with pytest.raises(ScaleLimitError) as guard:
            enumerate_maximal_chains(diagram, max_chains=limit)
        assert str(guard.value) == (
            f"maximal-chain enumeration exceeded the guard of {limit} "
            f"chains; pass an explicit max_chains to go further"
        )
        assert base.minimal_vertices[0] in asked and set(asked.values()) == {1}
        assert max(map(base.rank_of, asked)) == 1  # level 2 was refused

    def test_dp_equals_dfs_on_every_grid_to_12(self):
        for n in range(1, 13):
            for k in range(n):
                diagram = build_grid_hasse(k, n)
                assert count_maximal_chains(diagram) == enumerate_maximal_chains(diagram)

    def test_dp_equals_dfs_on_layered_diagrams_under_the_chain_guard(self):
        compared = 0
        for seq in LAYERED_SEQS:
            for policy in POLICIES:
                for n in range(1, 13):
                    product = 1
                    for size in pnf_whitney_vector(n, seq, policy):
                        product *= size
                    if product > DEFAULT_MAX_CHAINS:
                        continue
                    diagram = layered(layer_sizes(n, seq)[: pnf_max_rank(n, policy) + 1])
                    report = count_maximal_chains(diagram)
                    assert report == enumerate_maximal_chains(diagram)
                    assert report.chain_count == product
                    compared += 1
        assert compared > 60

    def test_dp_reaches_catalan_far_beyond_the_chain_guard(self):
        for n in (30, 40):
            report = count_maximal_chains(build_grid_hasse(n - 1, n, max_index=n))
            assert report == ChainReport(catalan(n - 1), 2 * n - 1, 2 * n - 1, True)

    def test_dp_reports_an_extra_transitive_edge_as_ungraded(self):
        diagram = with_extra_edge(build_grid_hasse(1, 2), (0, 1), (1, 2))
        assert count_maximal_chains(diagram) == ChainReport(2, 2, 3, False)
        assert enumerate_maximal_chains(diagram) == ChainReport(2, 2, 3, False)
        longer = with_extra_edge(build_grid_hasse(3, 5), (0, 2), (1, 3))
        report = count_maximal_chains(longer)
        assert not report.graded
        assert report == enumerate_maximal_chains(longer)

    def test_dp_rejects_a_rank_that_does_not_increase(self):
        base = build_grid_hasse(2, 3)
        flipped = HasseDiagram(
            base.vertices, lambda v: -grid_rank(v), base.successors, base.minimal_vertices
        )
        with pytest.raises(ValueError, match="rank does not increase"):
            count_maximal_chains(flipped)

    def test_empty_diagram_has_no_chains(self):
        empty = HasseDiagram([], itemgetter(0), {}.__getitem__, ())
        assert enumerate_maximal_chains(empty) == ChainReport(0, 0, 0, True)
        assert count_maximal_chains(empty) == ChainReport(0, 0, 0, True)

    @pytest.mark.parametrize(
        "covers",
        [
            {(0, 0): [(0, 0)]},
            {(0, 0): [(1, 0)], (1, 0): [(2, 0)], (2, 0): [(1, 0)]},
        ],
        ids=["self-loop", "2-cycle"],
    )
    def test_walk_and_dp_reject_a_cyclic_diagram(self, covers):
        asked = Counter()

        def successors(vertex):
            asked[vertex] += 1
            return covers[vertex]

        diagram = HasseDiagram(list(covers), itemgetter(0), successors, ((0, 0),))
        cycle = f"cover edges have a cycle: a chain grows past the diagram's {len(covers)} "
        with pytest.raises(ValueError, match=cycle):
            enumerate_maximal_chains(diagram)
        assert asked == Counter(covers.keys())  # it stops before a vertex repeats
        with pytest.raises(ValueError, match="rank does not increase"):
            count_maximal_chains(diagram)

    def test_product_rule_with_explicit_overrides(self):
        # the products exceed the default guard at the top of these ranges
        cases = [(NAT, range(1, 11)), (FIB, range(1, 10)), (ONES, range(1, 11))]
        for seq, degrees in cases:
            for n in degrees:
                product = 1
                for size in pnf_whitney_vector(n, seq):
                    product *= size
                report = enumerate_maximal_chains(
                    layered(layer_sizes(n, seq)), max_chains=product
                )
                assert report.chain_count == product
                assert report.graded
