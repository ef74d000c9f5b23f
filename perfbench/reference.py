"""Reference values for the benchmark's ops, computed without cobweb.

Every quantity here uses a different definition from the library's, so an
op's output is checked against something the library did not compute:

* sequence values come from linear recurrences (the library uses fast
  doubling for fib and a closed form for gauss);
* F-binomial rows come from ``math.comb`` for naturals, the fibonomial
  Pascal rule (n,k) = F_{k-1} (n-1,k) + F_{n-k+1} (n-1,k-1) for fib and
  the q-Pascal rule [n,k] = [n-1,k-1] + q^k [n-1,k] for gauss2 (the library
  divides an incremental product);
* B_n(naturals) = Fib(n+1);
* grid Whitney numbers come from a difference array over the rank
  interval [2l, l+n-1] of each row l (the library enumerates elements);
* grid chain counts use the reflection count C(n+k-1,k) - C(n+k-1,k-1)
  (the library uses the ballot form).

Big answers are longer than Python's default int-to-str limit of 4300
digits; ``unlimited_int_digits`` lifts it only around the benchmark's own
conversions and restores the caller's limit afterwards.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from math import comb
from typing import Iterator

SEQUENCES = ("fib", "naturals", "ones", "gauss2")


@contextmanager
def unlimited_int_digits() -> Iterator[None]:
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def values(name: str, count: int) -> list[int]:
    """[F_0, ..., F_count] by the sequence's linear recurrence."""
    if name == "fib":
        out = [0, 1]
        while len(out) <= count:
            out.append(out[-1] + out[-2])
    elif name == "gauss2":
        out = [0]
        while len(out) <= count:
            out.append(2 * out[-1] + 1)
    elif name == "naturals":
        out = list(range(count + 1))
    elif name == "ones":
        out = [1] * (count + 1)
    else:
        raise ValueError(f"no reference for sequence {name!r}")
    return out[: count + 1]


def rows(name: str) -> Iterator[list[int]]:
    """F-binomial triangle rows 0, 1, 2, ... (unbounded)."""
    if name not in SEQUENCES:
        raise ValueError(f"no reference for sequence {name!r}")
    fib = [0, 1]
    row, n = [1], 0
    while True:
        yield row
        n += 1
        if name == "naturals":
            row = [comb(n, k) for k in range(n + 1)]
        elif name == "ones":
            row = [1] * (n + 1)
        elif name == "fib":
            fib.append(fib[-1] + fib[-2])
            inner = [fib[k - 1] * row[k] + fib[n - k + 1] * row[k - 1] for k in range(1, n)]
            row = [1, *inner, 1]
        else:
            row = [1, *(row[k - 1] + (1 << k) * row[k] for k in range(1, n)), 1]


def triangle(name: str, last_row: int) -> list[list[int]]:
    """Rows 0..last_row of the F-binomial triangle."""
    return [row for _, row in zip(range(last_row + 1), rows(name))]


def whitney(name: str, n: int) -> list[int]:
    """Level sizes of P(n, F), degenerate level kept: (n-k choose k)_F, k <= n/2."""
    top = n // 2
    if name == "naturals":
        return [comb(n - k, k) for k in range(top + 1)]
    if name == "ones":
        return [1] * (top + 1)
    wanted = {n - k: k for k in range(top + 1)}
    levels = [0] * (top + 1)
    for r, row in zip(range(n + 1), rows(name)):
        if r in wanted:
            levels[wanted[r]] = row[wanted[r]]
    return levels


def bell(name: str, n: int) -> int:
    """B_n(F), the total size of P(n, F) with the degenerate level kept."""
    if name == "naturals":
        return values("fib", n + 1)[n + 1]
    return sum(whitney(name, n))


def bell_sequence(name: str, count: int) -> list[int]:
    """[B_1(F), ..., B_count(F)] from one pass over the triangle."""
    if name == "naturals":
        return values("fib", count + 1)[2:]
    totals = [0] * (count + 1)
    for r, row in zip(range(count + 1), rows(name)):
        for k in range(min(r, count - r) + 1):
            totals[r + k] += row[k]
    return totals[1:]


def central_column(name: str, count: int) -> list[int]:
    """[(2i choose i)_F for i = 1 .. count]."""
    if name == "naturals":
        return [comb(2 * i, i) for i in range(1, count + 1)]
    return [row[r // 2] for r, row in zip(range(2 * count + 1), rows(name)) if r % 2 == 0][1:]


def grid_size(k: int, n: int) -> int:
    return sum(n - l for l in range(k + 1))


def grid_whitney(k: int, n: int) -> list[int]:
    """Rank census of the grid poset: row l covers ranks 2l .. l+n-1."""
    delta = [0] * (k + n + 1)
    for l in range(k + 1):
        delta[2 * l] += 1
        delta[l + n] -= 1
    census, running = [], 0
    for j in range(k + n):
        running += delta[j]
        census.append(running)
    return census


def grid_chains(k: int, n: int) -> int:
    """Maximal chains of the grid poset by the reflection principle."""
    return comb(n + k - 1, k) - (comb(n + k - 1, k - 1) if k >= 1 else 0)
