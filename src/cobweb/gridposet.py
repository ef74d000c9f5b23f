"""The interval poset of layer index pairs, with its rank combinatorics.

Elements are pairs (l, m) with 0 <= l <= k and l < m <= n, ordered
componentwise; the unique minimum is (0, 1) and the unique maximum (k, n).
The poset is graded by rank(l, m) = l + m - 1, so its Whitney numbers (the
rank census) and Bell-like number (their sum, which equals the size) have
elementary closed forms.  Rank j holds the pairs with l + m = j + 1, i.e.
max(0, j + 1 - n) <= l <= min(k, j // 2), so

    W_j = max(0, min(k, j // 2) - max(0, j + 1 - n) + 1),  j = 0 .. k + n - 1,

which costs O(k + n) and holds no elements in memory.  Only the oracle
(``cobweb.oracle``) enumerates elements.

Maximal chains are monotone staircase paths from (0, 1) to (k, n) inside
the region l < m; their count is the ballot number

    chains(k, n) = (n - k)/n * C(n + k - 1, k),

whose near-diagonal chains(n-1, n) is the Catalan number C_{n-1}.  A
tempting alternative closed form, (n + 1 - k)/n * C(n + k, n), is wrong:
it is non-integral already at (k, n) = (0, 2) and disagrees with exhaustive
enumeration at (1, 2).  The ballot form above is validated case by case
against the brute-force oracle (see ``cobweb.oracle`` and the test suite)
rather than trusted.
"""

from __future__ import annotations

from math import comb


def _check_bounds(k: int, n: int) -> None:
    if not 0 <= k < n:
        raise ValueError(f"grid poset needs 0 <= k < n, got k={k}, n={n}")


def grid_size(k: int, n: int) -> int:
    """Number of pairs (l, m) with 0 <= l <= k and l < m <= n."""
    _check_bounds(k, n)
    return (n - k) * (k + 1) + k * (k + 1) // 2


def grid_elements(k: int, n: int) -> list[tuple[int, int]]:
    """All elements of the poset in lexicographic order."""
    _check_bounds(k, n)
    return [(l, m) for l in range(k + 1) for m in range(l + 1, n + 1)]


def grid_leq(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Componentwise order: (l, m) <= (l', m') iff l <= l' and m <= m'."""
    return a[0] <= b[0] and a[1] <= b[1]


def grid_rank(a: tuple[int, int]) -> int:
    """Rank of the element (l, m): l + m - 1."""
    l, m = a
    if l >= m:
        raise ValueError(f"layer index needs l < m, got ({l}, {m})")
    return l + m - 1


def grid_whitney(k: int, n: int) -> list[int]:
    """Rank census: entry j counts elements of rank j, for j = 0 .. k+n-1."""
    _check_bounds(k, n)
    return [
        max(0, min(k, j // 2) - max(0, j + 1 - n) + 1) for j in range(k + n)
    ]


def grid_bell(k: int, n: int) -> int:
    """Sum of the Whitney numbers; equals grid_size(k, n)."""
    return sum(grid_whitney(k, n))


def grid_chain_count(k: int, n: int) -> int:
    """Number of maximal chains, via the ballot closed form."""
    _check_bounds(k, n)
    count, remainder = divmod((n - k) * comb(n + k - 1, k), n)
    if remainder:
        # ballot numbers are integers; a remainder would mean the formula is wrong
        from .sequences import NonIntegralError  # here only: `cobweb grid` skips sequences

        raise NonIntegralError(
            f"chains(k, n) at (k, n) = ({k}, {n}) is not an integer: "
            f"the ballot form leaves remainder {remainder} after dividing by n = {n}"
        )
    return count


def catalan(i: int) -> int:
    """The i-th Catalan number C(2i, i)/(i + 1)."""
    if i < 0:
        raise ValueError(f"catalan index must be >= 0, got {i}")
    return comb(2 * i, i) // (i + 1)
