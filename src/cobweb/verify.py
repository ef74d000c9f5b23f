"""Cross-checks of every closed form against the brute-force oracle.

Each suite walks an input range and compares a closed form with an
independently computed value.  Enumeration and every reference value
come from the oracle: the one grid suite builds one oracle diagram, with
top (max_n - 1, max_n), and reads each grid (k, n) from one bottom-up
sweep of it as the principal down-set of (k, n), a bitset, with its
rank census and chain report; the one layered suite asks the oracle for
the whole census of each (n, F), levels 0..n // 2, and takes its
Bell-like numbers under both policies from it; the one F-binomial
suite asks it for one stream of division-free Pascal rows per shipped
sequence and holds one row at a time; the GCD-morphism gate asks it for
each shipped sequence's values by recurrence; and every check of a
suite reads the result for its inputs.  Every identity is recorded one
way, by ``SuiteResult.check``: the closed form runs inside the check,
and a mismatch, or an exception it raises, is a failure of that identity
naming its inputs and both values.  No library function computes an
expected value: every call into ``gridposet`` or ``pnfposet`` sits in a
check's compute callable.  Only identities that can fail on their own
are checked: none compares a function with itself, a copy of itself, or
a value another check already pins.  Poset suites scale with ``max_n``
over the given sequences; the F-binomial suite and the GCD-morphism gate
always run over the whole shipped family at fixed bounds, a fixed cost
of every run: about 7 ms for the F-binomial suite and 6 ms for the gate
in process (2-vCPU VM, Python 3.11).

No suite skips a check, because none reaches an oracle guard: the grid
diagram is built with ``max_index=max_n``, the grid chain checks read
the sweep's DP over cover edges, which has no chain guard, and the
layered suite reads level sizes.  ``SuiteResult.skipped`` therefore stays 0; it is kept
because the JSON ``skipped`` key and the CSV column report it.

Every suite's wall time is kept in ``SuiteResult.seconds``.
"""

import time
from functools import cache
from typing import Callable, Optional

from . import _Record, gridposet, oracle, pnfposet
from .sequences import (
    GCD_MORPHIC_SPECS,
    FSequence,
    NonIntegralError,
    f_binomial_diagonal,
    f_binomial_rows,
    gcd_morphic_check,
    gcd_morphic_family,
    lucas,
    sequence_from_spec,
)

FBINOM_BOUND = 40
GCD_BOUND = 60
ORDER_LAW_BOUND = 8

DEFAULT_VERIFY_SEQS = ("fib", "naturals", "ones", "gauss2")


def sequence_from_token(token: str) -> FSequence:
    if token not in GCD_MORPHIC_SPECS:
        known = ", ".join(GCD_MORPHIC_SPECS)
        raise ValueError(f"unknown verify sequence {token!r} (known: {known})")
    return sequence_from_spec(token)


class _Raised(str):
    """``raised <Type>: <message>`` for a computation that raised; shown unquoted."""

    __slots__ = ()
    __repr__ = str.__str__


class CheckFailure(_Record):
    __slots__ = ("identity", "inputs", "expected", "actual")


class SuiteResult:
    __slots__ = ("name", "cases", "skipped", "failures", "seconds")

    def __init__(self, name: str) -> None:
        self.name = name
        self.cases = 0
        self.skipped = 0
        self.failures: list[CheckFailure] = []
        self.seconds = 0.0  # wall time of the whole suite, set by run_verify

    def check(
        self, identity: str, inputs: str, expected, compute: Callable[[], object]
    ) -> None:
        """Compare ``compute()``, the value under check, with the independent
        ``expected``; if ``compute`` raises, the identity fails with what it
        raised as the actual value."""
        self.cases += 1
        try:
            actual = compute()
        except Exception as exc:  # a broken closed form must surface as a failure
            actual = _Raised(f"raised {type(exc).__name__}: {exc}")
        if expected != actual:
            self.failures.append(
                CheckFailure(identity, inputs, repr(expected), repr(actual))
            )


def check_grid_chains(max_n: int) -> SuiteResult:
    """Every grid closed form vs one oracle diagram; Catalan diagonal.

    The one grid suite.  It builds ``oracle.build_grid_hasse`` once, at top
    (max_n - 1, max_n), and reads each grid (k, n) with k < n <= max_n as
    the principal down-set of (k, n) in it, a bitset over its vertex order,
    all from one sweep of its cover edges (``oracle.principal_ideals``).
    Every check of a (k, n) reads that bitset: size and Bell-like number
    against its popcount, the Whitney vector against its rank census, the
    ballot form and gradedness against the DP chain report, and for
    n <= ``ORDER_LAW_BOUND`` ``grid_leq`` on its vertices, listed only
    here, against the oracle's order: ``a <= b`` iff ``b``'s bitset has ``a``.
    Last, the Catalan numbers C_{n-1} are checked against the DP count of
    the near-diagonal (n - 1, n), n = 1..max_n.  The
    oracle orders by reachability over covers that raise the rank, a
    partial order, so this equality also gives ``grid_leq`` the three
    partial-order laws.  The name dates from a chains-only suite; it is
    kept so that a per-suite time under it covers all grid work.
    """
    suite = SuiteResult("grid poset vs oracle")
    whole = oracle.build_grid_hasse(max_n - 1, max_n, max_index=max_n)
    tops = [(k, n) for n in range(2, max_n + 1) for k in range(n)]
    ideals = oracle.principal_ideals(whole, [(0, 1), *tops])
    down, _, report = next(ideals)
    downs = {(0, 1): down}  # bitset {v <= top}, for tops with n <= ORDER_LAW_BOUND
    near_diagonal = [report.chain_count]  # DP count for top (n - 1, n), n = 1..max_n
    for (k, n), (down, census, report) in zip(tops, ideals):
        inputs = f"(k, n) = ({k}, {n})"
        if k == n - 1:
            near_diagonal.append(report.chain_count)
        suite.check(
            "grid size closed form = enumerated cardinality",
            inputs,
            down.bit_count(),
            lambda: gridposet.grid_size(k, n),
        )
        suite.check(
            "Bell-like number = size",
            inputs,
            down.bit_count(),
            lambda: gridposet.grid_bell(k, n),
        )
        suite.check(
            "oracle rank census = Whitney vector",
            inputs,
            census,
            lambda: gridposet.grid_whitney(k, n),
        )
        suite.check(
            "chain-count closed form = DP count over cover edges",
            inputs,
            report.chain_count,
            lambda: gridposet.grid_chain_count(k, n),
        )
        suite.check(
            "all maximal chains have k+n elements",
            inputs,
            (k + n, k + n, True),
            lambda: (report.min_length, report.max_length, report.graded),
        )
        if n <= ORDER_LAW_BOUND:
            downs[k, n] = down
            bits = {v: i for i, v in enumerate(whole.vertices) if down >> i & 1}
            suite.check(
                "grid_leq = oracle order",
                inputs,
                {a: [b for b in bits if downs[b] >> i & 1] for a, i in bits.items()},
                lambda: {a: [b for b in bits if gridposet.grid_leq(a, b)] for a in bits},
            )
    for n, count in enumerate(near_diagonal, 1):
        suite.check(
            "near-diagonal chain count = Catalan number",
            f"n = {n}",
            count,
            lambda: gridposet.catalan(n - 1),
        )
    return suite


def check_pnf_census(max_n: int, seqs: list[FSequence]) -> SuiteResult:
    """Every layered closed form vs one oracle census per (n, F).

    The one layered suite.  Each (n, F) asks ``oracle.layer_sizes`` once,
    for factorial ratios of raw sequence values, and every check reads that
    census, levels 0..n // 2: the F-binomial walk and the per-level
    Whitney numbers (the per-entry product) against it, the Bell-like
    number against its sum, and the policy step against the degenerate
    level k = n/2 of an even n, which ``exclude`` drops.  The per-n sums
    under both policies are what the Bell sequence by diagonal row sums
    (``pnf_bell_sequence``) must give; the naturals' Bell-like numbers
    must give the oracle's Fibonacci numbers, shifted by one.
    """
    suite = SuiteResult("layered poset vs oracle")
    for seq in seqs:
        bells = {"include": [], "exclude": []}
        for n in range(1, max_n + 1):
            inputs = f"(n, F) = ({n}, {seq.name})"
            sizes = oracle.layer_sizes(n, seq)
            degenerate = 0 if n % 2 else sizes[-1]  # level n/2, dropped by "exclude"
            bells["include"].append(sum(sizes))
            bells["exclude"].append(sum(sizes) - degenerate)
            suite.check(
                "oracle rank census = F-binomial level sizes",
                inputs,
                sizes,
                lambda: pnfposet.pnf_whitney_vector(n, seq),
            )
            suite.check(
                "per-level Whitney numbers = oracle census",
                inputs,
                sizes,
                lambda: [pnfposet.pnf_whitney(n, k, seq) for k in range(len(sizes))],
            )
            suite.check(
                "Bell-like number = total size",
                inputs,
                sum(sizes),
                lambda: pnfposet.pnf_bell(n, seq),
            )
            suite.check(
                "including the degenerate level adds 1 for even n, 0 for odd",
                inputs,
                degenerate,
                lambda: pnfposet.pnf_bell(n, seq, "include")
                - pnfposet.pnf_bell(n, seq, "exclude"),
            )
        for policy, totals in bells.items():
            suite.check(
                "Bell sequence by diagonal row sums = per-n Bell numbers",
                f"(N, F, policy) = ({max_n}, {seq.name}, {policy})",
                totals,
                lambda: pnfposet.pnf_bell_sequence(seq, max_n, policy),
            )
    shifted = oracle.recurrence_values("fib", range(2, max_n + 2))  # Fib(n + 1)
    nat = sequence_from_spec("naturals")
    for n, fib in enumerate(shifted, 1):
        suite.check(
            "Bell-like numbers of naturals = shifted Fibonacci",
            f"n = {n}",
            fib,
            lambda: pnfposet.pnf_bell(n, nat),
        )
    return suite


def _non_integral_text(compute: Callable[[], object]) -> object:
    """``compute()``, or the text before " for F = " of the NonIntegralError it raises."""
    try:
        return compute()
    except NonIntegralError as exc:
        return str(exc).partition(" for F = ")[0]


def check_fbinom_algebra() -> SuiteResult:
    """Row engine and central column walk vs streamed oracle rows per F; lucas fails.

    The one F-binomial suite.  It runs over the shipped GCD-morphic family,
    whatever sequences ``verify`` is given, at fixed bounds.  Each F asks
    ``oracle.pascal_rows`` once, for rows 0..``FBINOM_BOUND`` by the
    division-free Pascal-type recurrence, and the row engine is checked
    against each row as it is yielded; the central column walk
    (2m choose m)_F for m = 1..``FBINOM_BOUND // 2`` is checked against the
    middle entries of the even rows, collected on the way.  lucas, the
    negative control, must fail first at (4 choose 2) in the rows and the
    central column.  For each n <= ``FBINOM_BOUND``, its Whitney line of
    P(n, F) (the walk) and its per-level Whitney numbers (the per-entry
    product) must give the oracle's whole census, levels 0..n // 2, or fail
    at the same first non-integral level.
    """
    suite = SuiteResult("F-binomial algebra")
    count = FBINOM_BOUND // 2  # (2m choose m) lies in the rows for m <= count
    for spec in GCD_MORPHIC_SPECS:
        seq = sequence_from_spec(spec)
        # kept from the first call that returns; a call that raises caches
        # nothing, so each row's check fails
        rows = cache(lambda: list(f_binomial_rows(seq, FBINOM_BOUND)))
        central = []  # (2m choose m)_F, m = 1..count
        for n, row in enumerate(oracle.pascal_rows(spec, FBINOM_BOUND)):
            if n and n % 2 == 0:
                central.append(row[n // 2])
            suite.check(
                "row engine = F_n!/(F_k! F_{n-k}!) with zero remainder",
                f"(F, n) = ({seq.name}, {n})",
                row,
                lambda: rows()[n],
            )
        suite.check(
            "central column walk = F_{2m}!/(F_m! F_m!)",
            f"(F, count) = ({seq.name}, {count})",
            central,
            lambda: f_binomial_diagonal(seq, (2, 1), (2, 1), count),
        )
    suite.check(
        "lucas rows fail first at (4 choose 2)",
        f"(F, rows) = (lucas, 0..{FBINOM_BOUND})",
        "(4 choose 2)_F is not an integer",
        lambda: _non_integral_text(lambda: list(f_binomial_rows(lucas(), FBINOM_BOUND))),
    )
    suite.check(
        "lucas central column walk fails first at (4 choose 2)",
        f"(F, count) = (lucas, {count})",
        "(4 choose 2)_F is not an integer",
        lambda: _non_integral_text(lambda: f_binomial_diagonal(lucas(), (2, 1), (2, 1), count)),
    )
    for n in range(1, FBINOM_BOUND + 1):
        census = _non_integral_text(lambda: oracle.layer_sizes(n, lucas()))
        suite.check(
            "lucas Whitney line = oracle census, or its first non-integral level",
            f"(F, n) = (lucas, {n})",
            census,
            lambda: _non_integral_text(lambda: pnfposet.pnf_whitney_vector(n, lucas())),
        )
        suite.check(
            "lucas per-level Whitney numbers = oracle census, or its first non-integral level",
            f"(F, n) = (lucas, {n})",
            census,
            lambda: _non_integral_text(
                lambda: [pnfposet.pnf_whitney(n, k, lucas()) for k in range(n // 2 + 1)]
            ),
        )
    return suite


def check_gcd_morphism() -> SuiteResult:
    """The shipped GCD-morphic family passes at the fixed bound; lucas fails.

    Then every shipped sequence, lucas included, against its defining
    recurrence (``oracle.recurrence_values``), at n = 1..``GCD_BOUND`` and
    a few large n.  No other check sees a constant factor c in F, since
    (n choose k)_{cF} = (n choose k)_F and gcd(cF_n, cF_m) = c F_{gcd(n, m)}.
    """
    suite = SuiteResult("GCD-morphism gate")
    for seq in gcd_morphic_family():
        suite.check(
            "sequence is GCD-morphic up to the bound",
            f"(F, N) = ({seq.name}, {GCD_BOUND})",
            True,
            lambda: gcd_morphic_check(seq, GCD_BOUND).holds,
        )

    def lucas_witness() -> tuple[bool, Optional[int], Optional[int]]:
        report = gcd_morphic_check(lucas(), GCD_BOUND)
        witness = report.counterexample
        return report.holds, witness and witness.n, witness and witness.m

    suite.check(
        "lucas fails with first counterexample (2, 4)",
        f"(F, N) = (lucas, {GCD_BOUND})",
        (False, 2, 4),
        lucas_witness,
    )
    # fast doubling branches on the bits of n, so a few large n join the bound
    indices = [*range(1, GCD_BOUND + 1), 511, 512, 1023, 1024]
    for spec in (*GCD_MORPHIC_SPECS, "lucas"):
        seq = sequence_from_spec(spec)
        suite.check(
            "shipped values = defining recurrence",
            f"(F, n) = ({seq.name}, 1..{GCD_BOUND}, 511, 512, 1023, 1024)",
            oracle.recurrence_values(spec, indices),
            lambda: [seq.value_at(i) for i in indices],
        )
    return suite


def _timed(check: Callable[..., SuiteResult], *args, **kwargs) -> SuiteResult:
    start = time.perf_counter()
    suite = check(*args, **kwargs)
    suite.seconds = time.perf_counter() - start
    return suite


def run_verify(max_n: int, seq_tokens: Optional[list[str]] = None) -> list[SuiteResult]:
    """Run every suite; poset ranges scale with ``max_n``."""
    if max_n < 2:
        raise ValueError(f"verification scale must be >= 2, got {max_n}")
    tokens = list(seq_tokens) if seq_tokens else list(DEFAULT_VERIFY_SEQS)
    seqs = [sequence_from_token(token) for token in tokens]
    for i, token in enumerate(tokens):
        if token in tokens[:i]:
            raise ValueError(f"verify sequence {token!r} is given more than once")
    return [
        _timed(check_grid_chains, max_n),
        _timed(check_pnf_census, max_n, seqs),
        _timed(check_fbinom_algebra),
        _timed(check_gcd_morphism),
    ]
