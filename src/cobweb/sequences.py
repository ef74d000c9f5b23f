"""Admissible integer sequences with exact factorials and generalized binomials.

A sequence F is *admissible* when F_n >= 1 for every n >= 1 (F_0 may be 0).
Each admissible F induces an exact generalized Pascal triangle through the
F-factorial F_n! = F_1 * F_2 * ... * F_n and the F-binomial

    (n choose k)_F = F_n! / (F_k! * F_{n-k}!).

F = naturals recovers ordinary binomials, F_n = (q^n - 1)/(q - 1) the
Gaussian q-binomials, and F = fibonacci the fibonomial triangle.  All
arithmetic is exact big-integer arithmetic; every division is checked and a
non-zero remainder raises instead of silently truncating.

A sequence is *GCD-morphic* when gcd(F_n, F_m) = F_{gcd(n, m)} for all
n, m >= 1; ``gcd_morphic_check`` tests this exhaustively up to a bound.
The GCD-morphic shipped sequences have integral F-binomials throughout.
``lucas`` ships as a deliberate negative control: its first GCD-morphism
counterexample is (n, m) = (2, 4) and its first non-integral F-binomial is
(4 choose 2)_L = 84/9.

All F-binomial arithmetic runs on one engine.  Each call builds its own
value table of F_i, filled on first use of each index through ``seq_eval``
(so admissibility is checked) and dropped when the call returns; a call
therefore evaluates exactly the indices its entries need, never F_0, and
each of them once.  ``f_binomial`` reads an entry from the table by the
incremental product; ``f_binomial_rows`` yields whole rows by the
recurrence (n choose k)_F = (n choose k-1)_F * F_{n-k+1} / F_k, which is
step k of that product, taken for k <= n // 2 only: the rest of the row
is its mirror image, (n choose k)_F = (n choose n-k)_F, so a row costs
half its length in steps.  ``f_binomial_diagonal`` walks a line of
entries (the Whitney line of P(n, F), the central column) by the ratio of
neighbours: about N steps for N entries instead of N^2/2, and holds only
those entries and the value table.  All three share one checked
multiply-and-divide step and one meaning of (n choose k)_F, the factorial
ratio: each raises only at an entry that is not an integer, with the
per-entry product's error, or at an inadmissible value.

The shipped sequences are listed once, in a CLI name -> factory registry.
Each is spelled two ways, with the same result and errors: by name and
base (``make_sequence("gauss", 2)``, the CLI's ``--seq gauss --q 2``) or
by one spec, the name with gauss's base appended
(``sequence_from_spec("gauss2")``, a ``verify --seq`` token).

Every function here is pure: no shared mutable state (no table outlives its
call), safe to call from multiple threads, deterministic for equal inputs.
"""

from math import gcd, prod
from typing import Iterator, Optional

from . import _Record


class AdmissibilityError(ValueError):
    """A queried sequence value is not an int, or is below 1 at an index n >= 1."""


class NonIntegralError(ArithmeticError):
    """An F-binomial division left a remainder (non-admissible sequence)."""


class FSequence(_Record):
    """A sequence ``name`` with F_n = ``value_at(n)``, a total callable."""

    __slots__ = ("name", "value_at")

    def __repr__(self) -> str:
        return f"FSequence({self.name!r})"


class GcdCounterexample(_Record):
    """Witness that gcd(F_n, F_m) != F_{gcd(n, m)}: ``index_gcd`` is
    gcd(n, m), ``value_gcd`` gcd(F_n, F_m) and ``value_at_index_gcd``
    F_{gcd(n, m)}."""

    __slots__ = ("n", "m", "index_gcd", "value_gcd", "value_at_index_gcd")


class GcdMorphicReport(_Record):
    """Outcome of an exhaustive GCD-morphism check up to ``checked_bound``."""

    __slots__ = ("checked_bound", "holds", "counterexample")

    def __init__(
        self,
        checked_bound: int,
        holds: bool,
        counterexample: Optional[GcdCounterexample] = None,
    ) -> None:
        super().__init__(checked_bound, holds, counterexample)


def _index(n: int) -> int:
    """``n``, once it is a sequence index: a negative one raises ``ValueError``."""
    if n < 0:
        raise ValueError(f"sequence index must be >= 0, got {n}")
    return n


def seq_eval(seq: FSequence, n: int) -> int:
    """Return F_n, enforcing admissibility at the queried index.

    n must be >= 0.  F_n must be an ``int`` (exactly: a float, a
    ``Fraction`` or a ``bool`` is rejected, the last because ``True`` would
    print as a word, not 1) and, for n >= 1, at least 1.
    """
    value = seq.value_at(_index(n))
    if type(value) is not int:
        raise AdmissibilityError(
            f"{seq.name}: F_{n} = {value!r} is a {type(value).__name__}, not an int"
        )
    if n >= 1 and value < 1:
        raise AdmissibilityError(
            f"{seq.name}: F_{n} = {value} violates admissibility (F_n >= 1 for n >= 1)"
        )
    return value


def f_factorial(seq: FSequence, n: int) -> int:
    """Return F_n! = F_1 * F_2 * ... * F_n (empty product 1 for n = 0)."""
    if n < 0:
        raise ValueError(f"factorial index must be >= 0, got {n}")
    result = 1
    for i in range(1, n + 1):
        result *= seq_eval(seq, i)
    return result


class _ValueTable(dict):
    """F_i for one call: each index read through ``seq_eval`` on first use."""

    def __init__(self, seq: FSequence) -> None:
        super().__init__()
        self.seq = seq

    def __missing__(self, i: int) -> int:
        value = self[i] = seq_eval(self.seq, i)
        return value


def _checked_step(values: _ValueTable, n: int, k: int, step: int, product: int) -> int:
    """Step ``step`` towards (n choose k)_F: ``product`` / F_step, exactly.

    ``product`` is (n choose step-1)_F * F_{n-step+1}, so the quotient is
    (n choose step)_F whenever that is an integer, and a remainder means
    it is not one.
    """
    divisor = values[step]
    result, remainder = divmod(product, divisor)
    if remainder:
        raise NonIntegralError(
            f"({n} choose {k})_F is not an integer for F = {values.seq.name}: "
            f"step {step} leaves remainder {remainder} after dividing by "
            f"F_{step} = {divisor}"
        )
    return result


def _binomial(values: _ValueTable, n: int, k: int) -> int:
    if n < 0:
        raise ValueError(f"binomial upper index must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    result = 1
    for step in range(1, k + 1):
        try:
            result = _checked_step(values, n, k, step, result * values[n - step + 1])
        except NonIntegralError:  # (n choose step)_F is not an integer; is the entry?
            up = prod(values[i] for i in range(n - k + 1, n + 1))
            result, remainder = divmod(up, prod(values[i] for i in range(1, k + 1)))
            if remainder:
                raise
            return result
    return result


def f_binomial(seq: FSequence, n: int, k: int) -> int:
    """Return the exact F-binomial (n choose k)_F; 0 outside 0 <= k <= n.

    Computed as an incremental product, multiplying by F_{n-i} and dividing
    by F_{i+1} at step i.  Each intermediate value is the F-binomial
    (n choose i+1)_F, so for GCD-morphic sequences every division is exact.
    A step that leaves a remainder is answered by one checked division of
    F_{n-k+1}...F_n by F_1...F_k, and raises that step's error only if
    (n choose k)_F itself is not an integer.
    """
    return _binomial(_ValueTable(seq), n, k)


def _ratio_factors(n: int, k: int, next_n: int, next_k: int) -> tuple[tuple, tuple]:
    """Indices up, down: (next_n choose next_k)_F = (n choose k)_F * F_up / F_down.

    Telescoped from the factorial ratio: F_n! gains F_{n+1}..F_{next_n}
    (or loses F_{next_n+1}..F_n), and likewise F_k! and F_{n-k}! in the
    denominator.  For 0 <= k <= n and 0 <= next_k <= next_n no index is 0.
    """
    m, next_m = n - k, next_n - next_k
    up = (
        *range(n + 1, next_n + 1), *range(next_k + 1, k + 1), *range(next_m + 1, m + 1)
    )
    down = (
        *range(next_n + 1, n + 1), *range(k + 1, next_k + 1), *range(m + 1, next_m + 1)
    )
    return up, down


def f_binomial_diagonal(
    seq: FSequence, start: tuple[int, int], step: tuple[int, int], count: int
) -> list[int]:
    """[(n choose k)_F for (n, k) = start + i * step, i = 0 .. count-1].

    Neighbouring entries on a line differ by a ratio of a few sequence values
    (``_ratio_factors``), so each entry costs one checked multiply-and-divide
    instead of k: the Whitney line of P(n, F), start (n, 0) and step (-1, 1),
    and the central column (2m choose m)_F, start (2, 1) and step (2, 1),
    each take about ``count`` steps and hold only the entries and the value
    table.  An entry with k = 0 or k = n is 1 and reads no value, and the
    entry after it is computed by the per-entry product, so the Whitney line
    starts from (n-1 choose 1)_F = F_{n-1}/F_1 and never reads F_n.

    Each step gives the next entry exactly as a rational, so a step that
    leaves a remainder marks an entry that is not an integer: it raises the
    per-entry product's error for that entry, and ``RuntimeError`` if the
    per-entry product finds an integer there (the walk is wrong).  An
    inadmissible value raises where the walk first reads it.
    """
    if count < 0:
        raise ValueError(f"diagonal length must be >= 0, got {count}")
    (n, k), (dn, dk) = start, step
    values = _ValueTable(seq)
    entries = []
    for i in range(count):
        if i and 0 < k - dk < n - dn and 0 < k < n:  # this and the last are interior
            up, down = _ratio_factors(n - dn, k - dk, n, k)
            product, divisor = entries[-1], 1
            for j in up:
                product *= values[j]
            for j in down:
                divisor *= values[j]
            entry, remainder = divmod(product, divisor)
            if remainder:  # _binomial raises if (n choose k)_F is not an integer
                exact = _binomial(values, n, k)
                raise RuntimeError(
                    f"walk step {i} gives ({n} choose {k})_F = {product}/{divisor} "
                    f"for F = {seq.name}, but the per-entry product gives {exact}"
                )
            entries.append(entry)
        else:
            entries.append(_binomial(values, n, k))
        n, k = n + dn, k + dk
    return entries


def f_binomial_rows(
    seq: FSequence, last_row: int, diagonal: Optional[int] = None
) -> Iterator[list[int]]:
    """Yield the F-binomial triangle rows 0..last_row, one list per row.

    Entry k of row n comes from entry k-1 by one checked step for
    k <= n // 2, and entry k > n // 2 is entry n - k, so a row of length
    n+1 costs n // 2 multiplications and divisions.  With ``diagonal`` set,
    row n keeps only the entries with k <= diagonal - n (those that sum
    into the diagonal sums up to that index); by default every row is
    whole.  A row that cannot be completed raises before it is yielded,
    at its first non-integral entry: that entry's mirror image is not an
    integer either, so it lies in the half that is stepped.
    """
    if last_row < 0:
        raise ValueError(f"last row must be >= 0, got {last_row}")
    if diagonal is None:
        diagonal = 2 * last_row
    elif diagonal < last_row:
        raise ValueError(f"diagonal must be >= last row {last_row}, got {diagonal}")
    values = _ValueTable(seq)
    for n in range(last_row + 1):
        row = [1]
        for k in range(1, min(n // 2, diagonal - n) + 1):
            row.append(_checked_step(values, n, k, k, row[-1] * values[n - k + 1]))
        row += [row[n - k] for k in range(len(row), min(n, diagonal - n) + 1)]
        yield row


def gcd_morphic_check(seq: FSequence, bound: int) -> GcdMorphicReport:
    """Exhaustively test gcd(F_n, F_m) = F_{gcd(n, m)} for 1 <= n <= m <= bound.

    Returns the first counterexample in lexicographic (n, m) order, if any.
    """
    if bound < 1:
        raise ValueError(f"check bound must be >= 1, got {bound}")
    values = {i: seq_eval(seq, i) for i in range(1, bound + 1)}  # F_0 is never read
    for n in range(1, bound + 1):
        for m in range(n, bound + 1):
            value_gcd = gcd(values[n], values[m])
            index_gcd = gcd(n, m)
            if value_gcd != values[index_gcd]:
                witness = GcdCounterexample(n, m, index_gcd, value_gcd, values[index_gcd])
                return GcdMorphicReport(bound, False, witness)
    return GcdMorphicReport(bound, True, None)


# --- shipped sequences -------------------------------------------------------


def _fib_pair(n: int) -> tuple[int, int]:
    # fast doubling: returns (F_n, F_{n+1}) without shared state
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    if n & 1:
        return d, c + d
    return c, d


def _fib_value(n: int) -> int:
    return _fib_pair(_index(n))[0]


def _lucas_value(n: int) -> int:
    # L_n = 2*F_{n+1} - F_n
    a, b = _fib_pair(_index(n))
    return 2 * b - a


def fibonacci() -> FSequence:
    """F_1 = F_2 = 1, F_n = F_{n-1} + F_{n-2}; F_0 = 0."""
    return FSequence("fibonacci", _fib_value)


def naturals() -> FSequence:
    """F_n = n."""
    return FSequence("naturals", _index)


def ones() -> FSequence:
    """F_n = 1 for all n >= 0."""
    return FSequence("ones", lambda n: _index(n) ** 0)  # 1 at every index, 0 ** 0 too


def gaussian(q: int) -> FSequence:
    """F_n = (q^n - 1)/(q - 1) = 1 + q + ... + q^(n-1) for integer q >= 2."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"gaussian base must be an integer >= 2, got {q!r}")
    return FSequence(f"gauss(q={q})", lambda n: (q ** _index(n) - 1) // (q - 1))


def lucas() -> FSequence:
    """L_0 = 2, L_1 = 1, L_n = L_{n-1} + L_{n-2}; not GCD-morphic."""
    return FSequence("lucas", _lucas_value)


# CLI name -> factory; gauss's factory takes the base q
_FACTORIES = {
    "fib": fibonacci,
    "naturals": naturals,
    "ones": ones,
    "gauss": gaussian,
    "lucas": lucas,
}
SEQUENCE_NAMES = tuple(_FACTORIES)

# the shipped sequences expected to pass the GCD-morphism gate, as specs
GCD_MORPHIC_SPECS = ("fib", "naturals", "ones", "gauss2", "gauss3")


def make_sequence(name: str, q: Optional[int] = None) -> FSequence:
    """Build a shipped sequence by CLI name; ``q`` is required iff name is 'gauss'."""
    if name == "gauss":
        if q is None:
            raise ValueError("sequence 'gauss' requires the base parameter q")
        return gaussian(q)
    if q is not None:
        raise ValueError(f"sequence {name!r} does not take a base parameter q")
    if name not in _FACTORIES:
        known = ", ".join(SEQUENCE_NAMES)
        raise ValueError(f"unknown sequence {name!r} (known: {known})")
    return _FACTORIES[name]()


def sequence_from_spec(spec: str) -> FSequence:
    """Build a shipped sequence from one spec: a CLI name, then gauss's base q.

    Trailing decimal digits are the base, so ``"gauss2"`` is
    ``make_sequence("gauss", 2)`` and ``"fib"`` is ``make_sequence("fib")``;
    errors are those of ``make_sequence`` (``"fib2"`` takes no base).
    """
    name = spec.rstrip("0123456789")
    base = spec[len(name):]
    return make_sequence(name, int(base) if base else None)


def gcd_morphic_family() -> list[FSequence]:
    """The shipped sequences expected to pass the GCD-morphism gate."""
    return [sequence_from_spec(spec) for spec in GCD_MORPHIC_SPECS]
