"""Brute-force ground truth: explicit Hasse diagrams and exhaustive counts.

This module is the independent side of every dual check in the package.
It never reuses a closed form it is meant to validate:

* grid diagrams take the componentwise order relation and compute cover
  edges by transitive reduction of the full relation, not from the
  analytic staircase characterization;
* maximal chains are enumerated one by one by depth-first traversal along
  cover edges, never counted by formula;
* rank censuses recount materialized vertices.

Layered diagrams (ordinal sums of antichains) keep their cover edges
implicit: the edge set between consecutive levels is complete bipartite
and can vastly outnumber the vertices (billions of pairs at the scales
the vertex census still handles), so ``cover_edges`` is a deterministic
lazy iteration rather than a stored list.

Scale guards keep exhaustive work bounded: diagram construction refuses
top indices above ``DEFAULT_MAX_INDEX`` and vertex totals above
``DEFAULT_MAX_VERTICES``; chain enumeration aborts beyond
``DEFAULT_MAX_CHAINS``.  Every guard takes an explicit override.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .gridposet import grid_elements, grid_leq, grid_rank
from .pnfposet import DEFAULT_POLICY, pnf_whitney_vector
from .sequences import FSequence

Vertex = tuple[int, int]

DEFAULT_MAX_INDEX = 12
DEFAULT_MAX_VERTICES = 2_000_000
DEFAULT_MAX_CHAINS = 100_000


class ScaleLimitError(RuntimeError):
    """Construction or enumeration would exceed a scale guard."""


class HasseDiagram:
    """Vertices plus upper-cover structure of a finite graded poset.

    ``vertices`` is an ordered (lexicographic) sequence of opaque labels;
    ``rank_of`` is total on them; ``successors`` lists upper covers in
    lexicographic order.  Cover edges are exposed as a deterministic
    iteration so layered diagrams never materialize complete bipartite
    edge sets.
    """

    def __init__(
        self,
        vertices: Sequence[Vertex],
        rank_of: Callable[[Vertex], int],
        successors_of: Callable[[Vertex], Sequence[Vertex]],
        minimal_vertices: tuple[Vertex, ...],
    ):
        self.vertices = vertices
        self._rank_of = rank_of
        self._successors_of = successors_of
        self._minimals = minimal_vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def rank_of(self, vertex: Vertex) -> int:
        return self._rank_of(vertex)

    def successors(self, vertex: Vertex) -> Sequence[Vertex]:
        """Upper covers of ``vertex`` in lexicographic order."""
        return self._successors_of(vertex)

    @property
    def minimal_vertices(self) -> tuple[Vertex, ...]:
        return self._minimals

    def cover_edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """All (lower, upper) cover pairs, lexicographic by lower then upper."""
        for vertex in self.vertices:
            for upper in self.successors(vertex):
                yield vertex, upper


@dataclass(frozen=True)
class ChainReport:
    """Exhaustive maximal-chain statistics of one diagram."""

    chain_count: int
    min_length: int  # elements in the shortest maximal chain
    max_length: int
    graded: bool  # all maximal chains equally long


def _check_index(n: int, max_index: Optional[int], what: str) -> int:
    limit = DEFAULT_MAX_INDEX if max_index is None else max_index
    if n > limit:
        raise ScaleLimitError(
            f"{what} enumeration is guarded at top index {limit} (asked {n}); "
            f"pass an explicit max_index to go further"
        )
    return limit


def build_grid_hasse(k: int, n: int, max_index: Optional[int] = None) -> HasseDiagram:
    """Explicit Hasse diagram of the interval poset with top (k, n).

    Cover edges come from transitive reduction of the componentwise order,
    keeping this construction independent of any analytic description of
    the covers.
    """
    _check_index(n, max_index, "grid")
    elements = grid_elements(k, n)
    less = {
        (a, b)
        for a in elements
        for b in elements
        if a != b and grid_leq(a, b)
    }
    successors: dict[Vertex, list[Vertex]] = {v: [] for v in elements}
    has_predecessor = set()
    for a, b in sorted(less):
        if any((a, c) in less and (c, b) in less for c in elements):
            continue
        successors[a].append(b)
        has_predecessor.add(b)
    minimals = tuple(v for v in elements if v not in has_predecessor)
    return HasseDiagram(
        vertices=elements,
        rank_of=grid_rank,
        successors_of=lambda v: successors[v],
        minimal_vertices=minimals,
    )


def build_pnf_hasse(
    n: int,
    seq: FSequence,
    policy: str = DEFAULT_POLICY,
    max_index: Optional[int] = None,
    max_vertices: Optional[int] = None,
) -> HasseDiagram:
    """Explicit diagram of P(n, F): levels of copies, complete covers between
    consecutive levels.

    Vertices are (level, copy) pairs with copies numbered from 1.  Level
    sizes can be enormous for fast-growing F, so the total vertex count is
    guarded (default ``DEFAULT_MAX_VERTICES``).
    """
    _check_index(n, max_index, "layered-poset")
    vertex_limit = DEFAULT_MAX_VERTICES if max_vertices is None else max_vertices
    sizes = pnf_whitney_vector(n, seq, policy)
    total = sum(sizes)
    if total > vertex_limit:
        raise ScaleLimitError(
            f"P({n}, {seq.name}) has {total} elements, over the vertex guard "
            f"{vertex_limit}; pass an explicit max_vertices to go further"
        )
    levels = [[(k, i) for i in range(1, size + 1)] for k, size in enumerate(sizes)]
    vertices = [vertex for level in levels for vertex in level]
    empty: list[Vertex] = []

    def successors_of(vertex: Vertex) -> Sequence[Vertex]:
        nxt = vertex[0] + 1
        return levels[nxt] if nxt < len(levels) else empty

    return HasseDiagram(
        vertices=vertices,
        rank_of=lambda v: v[0],
        successors_of=successors_of,
        minimal_vertices=tuple(levels[0]),
    )


def enumerate_maximal_chains(
    diagram: HasseDiagram, max_chains: Optional[int] = None
) -> ChainReport:
    """Count every maximal chain exactly once by exhaustive DFS.

    Traversal starts from each minimal vertex and extends along cover
    edges until no upper cover remains; children are visited in
    lexicographic order, so any derived listing is reproducible.
    """
    limit = DEFAULT_MAX_CHAINS if max_chains is None else max_chains
    count = 0
    min_len: Optional[int] = None
    max_len = 0

    def extend(vertex: Vertex, depth: int) -> None:
        nonlocal count, min_len, max_len
        uppers = diagram.successors(vertex)
        if not uppers:
            count += 1
            if count > limit:
                raise ScaleLimitError(
                    f"maximal-chain enumeration exceeded the guard of {limit} "
                    f"chains; pass an explicit max_chains to go further"
                )
            if min_len is None or depth < min_len:
                min_len = depth
            if depth > max_len:
                max_len = depth
            return
        for upper in uppers:
            extend(upper, depth + 1)

    for minimal in diagram.minimal_vertices:
        extend(minimal, 1)
    if min_len is None:  # no vertices at all; not produced by the builders
        return ChainReport(0, 0, 0, True)
    return ChainReport(count, min_len, max_len, min_len == max_len)


def rank_level_counts(diagram: HasseDiagram) -> list[int]:
    """Rank census: entry j counts vertices of rank j, densely from 0."""
    census = Counter(diagram.rank_of(v) for v in diagram.vertices)
    top = max(census) if census else -1
    return [census.get(j, 0) for j in range(top + 1)]
