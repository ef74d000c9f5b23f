"""Brute-force ground truth: explicit Hasse diagrams and exhaustive counts.

This module is the independent side of every dual check in the package.
It never reuses a closed form it is meant to validate:

* grid diagrams take the componentwise order from the coordinates
  themselves, not from the library's order predicate, which ``verify``
  checks against it, and compute cover edges by transitive reduction,
  not from the analytic staircase characterization.  One Python-int
  bitset per coordinate value makes each up-set one AND, and the covers
  of a vertex are peeled off its up-set lowest bit first, one step per
  cover; this assumes no gradedness, so the gradedness check stays
  meaningful;
* every principal down-set ``{v <= top}`` of a built diagram, a bitset,
  with its census and cover paths, comes from one sweep of its cover
  edges in ascending rank (``principal_ideals``).  This keeps the oracle
  independent, because it uses only two facts: a down-set is convex, so
  its maximal chains are the cover paths from a minimal vertex up to
  ``top``, and grid (k, n) is the down-set of (k, n) in every grid whose
  top is at least (k, n).  The tests pin both against direct builds;
* F-binomials never come from the F-binomial engine.  Whole triangle
  rows of a shipped GCD-morphic sequence, and so its central column,
  come one row at a time from the division-free Pascal-type recurrence
  of Sagan and Savage over its recurrence values (``pascal_rows``).
  Any other F-binomial, lucas's among them, comes from ``seq_eval``
  values through the factorial ratio ``F_n! / (F_k! F_{n-k}!)``, one
  running product and one checked division per entry
  (``factorial_ratios``): so do the level sizes ``(n-k choose k)_F`` of
  P(n, F), k = 0..n // 2 (``layer_sizes``).  P(n, F) is an ordinal sum
  of antichains, so its level sizes fix its covers, chains and census,
  and no layered diagram is built; the level sizes also fix its
  Bell-like numbers under both degenerate-level policies, since
  ``exclude`` drops level n/2 of an even n;
* shipped sequence values (``recurrence_values``) come from each
  sequence's defining recurrence ``F_{n+1} = s F_n + t F_{n-1}``, one
  step per value, never from its closed form or factory;
* down-set censuses are popcounts against one bitset per rank, built
  once from the ranks that sweep reads once (``_sweep``).

Grid diagrams store their O(V) vertices and cover edges; the sweep holds
one path entry and one V-bit down-set per vertex, and one V-bit mask per rank.

A scale guard keeps exhaustive work bounded: diagram construction refuses
top indices above ``DEFAULT_MAX_INDEX``, unless given an explicit override.
"""

from typing import Iterable, Iterator, Sequence

from . import _Record
from .gridposet import grid_elements, grid_rank
from .sequences import FSequence, NonIntegralError, seq_eval

Vertex = tuple[int, int]

DEFAULT_MAX_INDEX = 12


class ScaleLimitError(RuntimeError):
    """Diagram construction would exceed the scale guard."""


class HasseDiagram(_Record):
    """Vertices plus upper-cover structure of a finite graded poset.

    ``vertices`` is a sized collection of opaque labels in lexicographic
    order (a list for grid diagrams).  ``rank_of`` is total on them and
    strictly increases along every cover edge; ``successors(v)`` lists the
    upper covers of ``v`` in lexicographic order; ``minimal_vertices`` is
    a tuple of the minimal ones.
    """

    __slots__ = ("vertices", "rank_of", "successors", "minimal_vertices")
    __eq__ = object.__eq__  # two diagrams are equal only if they are one
    __hash__ = object.__hash__

    def cover_edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """All (lower, upper) cover pairs, lexicographic by lower then upper."""
        for vertex in self.vertices:
            for upper in self.successors(vertex):
                yield vertex, upper


class ChainReport(_Record):
    """Exhaustive maximal-chain statistics of one diagram: ``min_length`` and
    ``max_length`` count the elements of its shortest and longest maximal
    chains, and ``graded`` is true when all are equally long."""

    __slots__ = ("chain_count", "min_length", "max_length", "graded")


def build_grid_hasse(k: int, n: int, max_index: int | None = None) -> HasseDiagram:
    """Explicit Hasse diagram of the interval poset with top (k, n).

    Cover edges come from transitive reduction of the componentwise order,
    keeping this construction independent of any analytic description of
    the covers.  With one bitset per coordinate value (the elements whose
    coordinate is at least that value), ``up(a) = {b >= a}`` is one AND.
    The covers of ``a`` are peeled off ``up(a) - {a}``: its lowest set bit
    is a cover, and clearing that cover's up-set leaves the rest.  This
    needs the lexicographic vertex order to extend the componentwise one,
    which is checked, not assumed: a ``b >= a`` before ``a`` in the vertex
    order raises ``ValueError``.
    """
    limit = DEFAULT_MAX_INDEX if max_index is None else max_index
    if n > limit:
        raise ScaleLimitError(
            f"grid enumeration is guarded at top index {limit} (asked {n}); "
            f"pass an explicit max_index to go further"
        )
    elements = grid_elements(k, n)
    at_least = [{}, {}]  # per coordinate: value -> {b : b[i] >= value}
    for i, masks in enumerate(at_least):
        above = 0  # descending b[i]: a value's last write holds every b at or above it
        for j, b in sorted(enumerate(elements), key=lambda jb: -jb[1][i]):
            above = masks[b[i]] = above | 1 << j
    up = [at_least[0][a[0]] & at_least[1][a[1]] for a in elements]
    successors = {}
    covered = 0
    for j, a in enumerate(elements):
        if up[j] & ((1 << j) - 1):
            before = elements[(up[j] & -up[j]).bit_length() - 1]
            raise ValueError(f"{before} >= {a} comes before {a} in the vertex order")
        rest = up[j] ^ 1 << j
        covered |= rest
        successors[a] = covers = []
        while rest:
            cover = (rest & -rest).bit_length() - 1
            covers.append(elements[cover])
            rest &= ~up[cover]
    minimals = tuple(v for j, v in enumerate(elements) if not covered >> j & 1)
    return HasseDiagram(elements, grid_rank, successors.__getitem__, minimals)


def _sweep(diagram: HasseDiagram):
    """Every vertex's rank, down-set and cover paths.

    The one read of a diagram: ``rank_of`` once per vertex, and the cover
    edges once, into lower covers.  In ascending rank, vertex ``t`` gets
    ``{v <= t}`` as a bitset over the vertex order (its own bit OR its lower
    covers' sets) and, from its lower covers', the count and lengths of the
    cover paths up to ``t`` from a vertex with no lower cover.  A cover
    whose rank does not increase raises ``ValueError``.
    """
    rank = {v: diagram.rank_of(v) for v in diagram.vertices}
    down = {v: 1 << i for i, v in enumerate(rank)}
    lower = {}
    for a, b in diagram.cover_edges():
        lower.setdefault(b, []).append(a)
    paths = {}
    start = [ChainReport(1, 0, 0, True)]  # the one path of no elements
    for vertex in sorted(rank, key=rank.__getitem__):
        below = lower.get(vertex, ())
        for a in below:
            if rank[a] >= rank[vertex]:
                raise ValueError(f"rank does not increase along the cover {a} < {vertex}")
            down[vertex] |= down[a]
        reports = [paths[a] for a in below] or start
        shortest = min(report.min_length for report in reports) + 1
        longest = max(report.max_length for report in reports) + 1
        count = sum(report.chain_count for report in reports)
        paths[vertex] = ChainReport(count, shortest, longest, shortest == longest)
    return rank, down, paths


def principal_ideals(diagram: HasseDiagram, tops: Iterable[Vertex]):
    """(down-set, rank census, chain report) of ``{v <= top}``, for each of ``tops``.

    All come from one ``_sweep``: the down-set is its bitset over the vertex
    order, and census entry j its popcount against the mask of rank j, built
    once from the rank table.  A down-set is convex, so its maximal chains
    are the cover paths from a minimal vertex up to ``top``.  A ``top`` that
    is not a vertex, or a negative rank, raises ``ValueError``.
    """
    rank, down, paths = _sweep(diagram)
    masks = []  # entry j: the bitset of the vertices of rank j, densely from 0
    for i, (vertex, j) in enumerate(rank.items()):
        if j < 0:
            raise ValueError(f"vertex {vertex} has negative rank {j}")
        masks += [0] * (j + 1 - len(masks))
        masks[j] |= 1 << i
    for top in tops:
        if top not in down:
            raise ValueError(f"{top} is not a vertex of the diagram")
        census = [(down[top] & mask).bit_count() for mask in masks[: rank[top] + 1]]
        yield down[top], census, paths[top]


def factorial_ratios(seq: FSequence, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """[F_n! / (F_k! F_{n-k}!) for (n, k) in pairs], each division checked.

    The factorials are one running product of ``seq_eval`` values, so each
    index 1..max n is read once and F_0 never; a remainder raises
    ``NonIntegralError`` naming the entry.
    """
    factorials = [1]
    for i in range(1, max((n for n, _ in pairs), default=0) + 1):
        factorials.append(factorials[-1] * seq_eval(seq, i))
    ratios = []
    for n, k in pairs:
        if not 0 <= k <= n:
            raise ValueError(f"factorial ratio needs 0 <= k <= n, got ({n}, {k})")
        denominator = factorials[k] * factorials[n - k]
        ratio, remainder = divmod(factorials[n], denominator)
        if remainder:
            raise NonIntegralError(
                f"({n} choose {k})_F is not an integer for F = {seq.name}: "
                f"F_{n}! leaves remainder {remainder} after dividing by "
                f"F_{k}! F_{n - k}! = {denominator}"
            )
        ratios.append(ratio)
    return ratios


def layer_sizes(n: int, seq: FSequence) -> list[int]:
    """Level sizes F_{n-k}! / (F_k! F_{n-2k}!) of P(n, F), k = 0..n // 2, from F_1..F_n."""
    if n < 0:
        raise ValueError(f"poset degree must be >= 0, got {n}")
    return factorial_ratios(seq, [(n - k, k) for k in range(n // 2 + 1)])


def _recurrence(spec):
    """(F_0, s, t) of a shipped sequence spec, as ``recurrence_values`` tabulates it.

    The specs are those ``sequence_from_spec`` builds: a name, then for
    gauss a base q >= 2.  Any other spec raises ``KeyError(spec)``.
    """
    name = spec.rstrip("0123456789")
    q = int(spec[len(name):] or 0)
    if name == "gauss" and q > 1:
        return 0, q + 1, -q
    return {"fib": (0, 1, 1), "lucas": (2, 1, 1), "naturals": (0, 2, -1), "ones": (1, 1, 0)}[spec]


def recurrence_values(spec: str, indices: Sequence[int]) -> list[int]:
    """[F_n for n in indices] of a shipped sequence, from its defining recurrence.

    ``spec`` is a sequence spec: a name, then gauss's base q.  Every shipped
    sequence has F_1 = 1 and, for n >= 1, F_{n+1} = s F_n + t F_{n-1}:

        ==========  ===  ============  ==============================
        sequence    F_0  (s, t)        recurrence
        ==========  ===  ============  ==============================
        fib         0    (1, 1)        F_{n+1} = F_n + F_{n-1}
        lucas       2    (1, 1)        L_{n+1} = L_n + L_{n-1}
        naturals    0    (2, -1)       F_{n+1} = 2 F_n - F_{n-1}
        ones        1    (1, 0)        F_{n+1} = F_n
        gauss<q>    0    (q + 1, -q)   F_{n+1} = (q + 1) F_n - q F_{n-1}
        ==========  ===  ============  ==============================

    F_0 is each sequence's value at 0, so index 0 is answered too.  The
    recurrence runs one step per index up to the largest and keeps only the
    values asked for, so a few large indices cost no more memory than small
    ones.  No closed form or factory of a shipped sequence is read: the
    point is to check those (fast doubling for fib and lucas, the geometric
    sum for gauss) against their definitions.  An unknown name, or an index
    below 0, raises ``KeyError``.
    """
    before, s, t = _recurrence(spec)
    wanted = set(indices)
    values, value = {}, 1
    for n in range(max(wanted, default=0) + 1):
        if n in wanted:
            values[n] = before
        before, value = value, s * value + t * before
    return [values[n] for n in indices]


def pascal_rows(spec: str, last_row: int) -> Iterator[list[int]]:
    """Yield rows 0..last_row of a shipped GCD-morphic sequence's F-binomial triangle.

    Every such sequence is, from F_1 on, the fundamental Lucas sequence
    ``U(s, t)`` of its row in ``recurrence_values``'s table: U_0 = 0,
    U_1 = 1 and U_{n+1} = s U_n + t U_{n-1}.  Sagan and Savage
    (Integers 10, 2010) give its F-binomials a Pascal-type recurrence,

        {n, k} = U_{k+1} {n-1, k} + t U_{n-k-1} {n-1, k-1},  0 < k < n,

    with {n, 0} = {n, n} = 1: sums of products, no division.  Each row is
    built from the one before it, and U_0..U_last_row come from
    ``recurrence_values``, never from ``seq_eval`` or the F-binomial engine.
    U_0 meets only t, so ones (F_0 = 1, t = 0) qualifies; a spec whose F_0
    and t are both nonzero, lucas, is no ``U`` and raises ``ValueError``,
    as does a ``last_row`` below 0.  An unknown name raises ``KeyError``.
    """
    before, _, t = _recurrence(spec)
    if before * t or last_row < 0:
        raise ValueError(
            f"pascal_rows needs U(s, t) and last_row >= 0, got ({spec!r}, {last_row})"
        )
    u = recurrence_values(spec, range(last_row + 1))
    row = [1]
    yield row
    for n in range(1, last_row + 1):
        row = [1, *[u[k + 1] * row[k] + t * u[n - k - 1] * row[k - 1] for k in range(1, n)], 1]
        yield row

