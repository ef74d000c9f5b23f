"""Sequence arithmetic: exact values, factorials, binomials, GCD-morphism."""

import copy
import math
import pickle
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobweb import verify
from cobweb.oracle import factorial_ratios, layer_sizes
from cobweb.pnfposet import pnf_bell, pnf_max_rank, pnf_whitney_vector
from cobweb.sequences import (
    GCD_MORPHIC_SPECS,
    SEQUENCE_NAMES,
    AdmissibilityError,
    FSequence,
    GcdCounterexample,
    GcdMorphicReport,
    NonIntegralError,
    f_binomial,
    f_binomial_diagonal,
    f_binomial_rows,
    f_factorial,
    fibonacci,
    gaussian,
    gcd_morphic_check,
    gcd_morphic_family,
    lucas,
    make_sequence,
    naturals,
    ones,
    seq_eval,
    sequence_from_spec,
)

SHIPPED = {
    "fibonacci": fibonacci(),
    "naturals": naturals(),
    "ones": ones(),
    "gauss2": gaussian(2),
    "gauss3": gaussian(3),
}


def iterative_fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def triangle(last_row):
    return [(n, k) for n in range(last_row + 1) for k in range(n + 1)]


def pascal_triangle(rows):
    triangle = [[1]]
    for n in range(1, rows + 1):
        prev = triangle[-1]
        triangle.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return triangle


class TestSeqEval:
    def test_fibonacci_unrolled(self):
        assert seq_eval(SHIPPED["fibonacci"], 6) == 8
        assert [seq_eval(SHIPPED["fibonacci"], i) for i in range(8)] == [
            iterative_fib(i) for i in range(8)
        ]

    def test_naturals_identity(self):
        assert seq_eval(SHIPPED["naturals"], 7) == 7

    def test_gaussian_direct_evaluation(self):
        assert seq_eval(SHIPPED["gauss2"], 4) == (2**4 - 1) // (2 - 1)
        assert seq_eval(SHIPPED["gauss2"], 4) == 15

    def test_lucas_values(self):
        assert [seq_eval(lucas(), i) for i in range(6)] == [2, 1, 3, 4, 7, 11]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            seq_eval(SHIPPED["fibonacci"], -1)

    @pytest.mark.parametrize("name", SEQUENCE_NAMES)
    def test_value_at_refuses_a_negative_index_as_seq_eval_does(self, name):
        seq = make_sequence(name, 2 if name == "gauss" else None)
        for n in (-1, -2):
            with pytest.raises(ValueError, match=rf"^sequence index must be >= 0, got {n}$"):
                seq.value_at(n)

    def test_admissibility_violation_names_index(self):
        bad = FSequence("bad", lambda n: 0 if n == 3 else n)
        assert seq_eval(bad, 2) == 2
        with pytest.raises(AdmissibilityError, match="F_3"):
            seq_eval(bad, 3)

    def test_admissibility_starts_at_n_1(self):
        zero_first = FSequence("zero_first", lambda n: 0 if n <= 1 else n)
        assert seq_eval(zero_first, 0) == 0
        with pytest.raises(AdmissibilityError, match=r"^zero_first: F_1 = 0 violates"):
            seq_eval(zero_first, 1)

    def test_deterministic(self):
        seq = SHIPPED["fibonacci"]
        assert {seq_eval(seq, 30) for _ in range(5)} == {832040}

    @pytest.mark.parametrize(
        "seq, kind",
        [
            (FSequence("half", lambda n: 1.5 * n), "float"),
            (FSequence("flag", lambda n: True), "bool"),
        ],
    )
    @pytest.mark.parametrize(
        "compute",
        [
            lambda seq: f_binomial(seq, 6, 3),
            lambda seq: pnf_bell(6, seq),
            lambda seq: layer_sizes(6, seq),
        ],
        ids=["f_binomial", "pnf_bell", "layer_sizes"],
    )
    def test_non_int_value_rejected_naming_sequence_index_and_type(
        self, seq, kind, compute
    ):
        message = rf"^{seq.name}: F_\d+ = .* is a {kind}, not an int$"
        with pytest.raises(AdmissibilityError, match=message):
            compute(seq)


class TestFFactorial:
    def test_fibonacci_direct_product(self):
        assert f_factorial(SHIPPED["fibonacci"], 5) == 1 * 1 * 2 * 3 * 5

    def test_empty_product(self):
        for seq in SHIPPED.values():
            assert f_factorial(seq, 0) == 1

    def test_naturals_is_ordinary_factorial(self):
        assert f_factorial(SHIPPED["naturals"], 4) == 24

    def test_product_starts_at_f_1(self):
        shifted = FSequence("shifted", lambda n: n + 1)  # F_1 = 2
        assert [f_factorial(shifted, n) for n in range(4)] == [1, 2, 6, 24]

    def test_negative_index_is_rejected(self):
        with pytest.raises(ValueError, match=r"^factorial index must be >= 0, got -1$"):
            f_factorial(SHIPPED["fibonacci"], -1)

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_recurrence(self, name):
        seq = SHIPPED[name]
        for n in range(1, 41):
            assert f_factorial(seq, n) == f_factorial(seq, n - 1) * seq_eval(seq, n)


class TestFBinomial:
    def test_fibonomial_against_ratio_oracle(self):
        assert factorial_ratios(SHIPPED["fibonacci"], [(5, 2)]) == [15]
        assert f_binomial(SHIPPED["fibonacci"], 5, 2) == 15

    def test_naturals_against_pascal_oracle(self):
        assert pascal_triangle(7)[7][3] == 35
        assert f_binomial(SHIPPED["naturals"], 7, 3) == 35

    def test_edges_and_out_of_range(self):
        for seq in SHIPPED.values():
            assert f_binomial(seq, 9, 0) == 1
            assert f_binomial(seq, 9, 9) == 1
            assert f_binomial(seq, 4, 7) == 0
            assert f_binomial(seq, 4, -1) == 0

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_matches_ratio_oracle_everywhere(self, name):
        seq, pairs = SHIPPED[name], triangle(25)
        assert [f_binomial(seq, n, k) for n, k in pairs] == factorial_ratios(seq, pairs)

    @given(
        name=st.sampled_from(sorted(SHIPPED)),
        n=st.integers(min_value=0, max_value=60),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_property(self, name, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        seq = SHIPPED[name]
        assert f_binomial(seq, n, k) == f_binomial(seq, n, n - k)

    def test_naturals_row_sums_are_powers_of_two(self):
        seq = SHIPPED["naturals"]
        for n in range(31):
            assert sum(f_binomial(seq, n, k) for k in range(n + 1)) == 2**n

    def test_non_integral_ratio_raises_with_remainder(self):
        shifted = FSequence("shifted", lambda n: n + 1)
        with pytest.raises(NonIntegralError, match=r"shifted.*remainder"):
            f_binomial(shifted, 2, 1)  # F_2/F_1 = 3/2

    def test_lucas_first_non_integral_at_4_2(self):
        seq = lucas()
        for n in range(4):
            for k in range(n + 1):
                f_binomial(seq, n, k)  # integral below (4, 2)
        assert f_binomial(seq, 4, 1) == 7
        with pytest.raises(NonIntegralError):
            f_binomial(seq, 4, 2)  # 84/9

    def test_thread_safety_smoke(self):
        seq = SHIPPED["fibonacci"]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: f_binomial(seq, 30, 15), range(64)))
        assert len(set(results)) == 1


def counting(name, value_at):
    """A custom sequence that records every index it is asked for."""
    asked = []

    def value(n):
        asked.append(n)
        return value_at(n)

    return FSequence(name, value), asked


def no_zero_index(n):
    if n == 0:
        raise RuntimeError("F_0 must never be read")
    return n


LUCAS_4_2 = (
    "(4 choose 2)_F is not an integer for F = lucas: step 2 leaves remainder 1 "
    "after dividing by F_2 = 3"
)


class TestRowEngine:
    @given(name=st.sampled_from(sorted(SHIPPED)), last_row=st.integers(0, 45))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_per_entry_binomials(self, name, last_row):
        seq = SHIPPED[name]
        rows = list(f_binomial_rows(seq, last_row))
        assert rows == [
            [f_binomial(seq, n, k) for k in range(n + 1)] for n in range(last_row + 1)
        ]

    @pytest.mark.parametrize(
        "name, rule",
        [
            (
                "fibonacci",
                lambda row, n, k: iterative_fib(k - 1) * row[k]
                + iterative_fib(n - k + 1) * row[k - 1],
            ),
            ("gauss2", lambda row, n, k: row[k - 1] + 2**k * row[k]),
            ("gauss3", lambda row, n, k: row[k - 1] + 3**k * row[k]),
        ],
        ids=["fibonomial", "gauss2", "gauss3"],
    )
    def test_rows_satisfy_the_family_pascal_rule(self, name, rule):
        # F_{k-1}(n-1,k) + F_{n-k+1}(n-1,k-1) and [n-1,k-1] + q^k [n-1,k]
        rows = list(f_binomial_rows(SHIPPED[name], 40))
        for n in range(1, 41):
            above = rows[n - 1]
            assert rows[n] == [1] + [rule(above, n, k) for k in range(1, n)] + [1]

    @given(
        name=st.sampled_from(sorted(SHIPPED)),
        last_row=st.integers(0, 30),
        extra=st.integers(0, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_diagonal_keeps_row_prefixes(self, name, last_row, extra):
        seq, diagonal = SHIPPED[name], last_row + extra
        rows = list(f_binomial_rows(seq, last_row, diagonal=diagonal))
        for n, row in enumerate(rows):
            width = min(n, diagonal - n)
            assert row == [f_binomial(seq, n, k) for k in range(width + 1)]

    def test_entries_equal_the_factorial_ratio(self):
        seq = SHIPPED["gauss3"]
        pairs = [(2 * n, n) for n in range(1, 20)] + [(0, 0)]
        assert [f_binomial(seq, n, k) for n, k in pairs] == factorial_ratios(seq, pairs)
        assert f_binomial(seq, 7, -1) == f_binomial(seq, 3, 9) == 0
        with pytest.raises(ValueError):
            f_binomial(seq, -1, 0)

    def test_each_index_is_evaluated_once_per_call(self):
        seq, asked = counting("counted", iterative_fib)
        rows = list(f_binomial_rows(seq, 30))
        assert asked == [2, 1] + list(range(3, 31))
        asked.clear()
        assert f_binomial(seq, 20, 10) == rows[20][10]
        assert sorted(asked) == list(range(1, 21))

    def test_rows_0_and_1_evaluate_nothing(self):
        seq, asked = counting("counted", iterative_fib)
        assert list(f_binomial_rows(seq, 1)) == [[1], [1, 1]]
        assert asked == []

    def test_f0_is_never_read(self):
        seq = FSequence("nozero", no_zero_index)
        assert list(f_binomial_rows(seq, 12)) == pascal_triangle(12)
        assert [f_binomial(seq, n, k) for n, k in [(12, 6), (5, 0), (5, 5)]] == [924, 1, 1]

    def test_rows_stop_at_the_first_inadmissible_index(self):
        seq = FSequence("bad10", lambda n: 0 if n >= 10 else n)
        assert list(f_binomial_rows(seq, 9)) == pascal_triangle(9)
        with pytest.raises(AdmissibilityError, match="F_10 = 0"):
            list(f_binomial_rows(seq, 10))

    def test_lucas_rows_fail_first_at_4_2(self):
        rows = f_binomial_rows(lucas(), 40)
        assert [next(rows) for _ in range(4)][3] == [1, 4, 4, 1]
        with pytest.raises(NonIntegralError) as caught:
            next(rows)
        assert str(caught.value) == LUCAS_4_2
        with pytest.raises(NonIntegralError) as caught:
            f_binomial(lucas(), 4, 2)
        assert str(caught.value) == LUCAS_4_2

    def test_validation(self):
        with pytest.raises(ValueError, match="last row"):
            next(f_binomial_rows(SHIPPED["naturals"], -1))
        with pytest.raises(ValueError, match="diagonal"):
            next(f_binomial_rows(SHIPPED["naturals"], 5, diagonal=4))

    def test_thread_safety_smoke(self):
        seq = SHIPPED["fibonacci"]
        expected = list(f_binomial_rows(seq, 40))
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: list(f_binomial_rows(seq, 40)), range(32)))
        assert all(result == expected for result in results)


def whitney_pairs(n, policy):
    return [(n - k, k) for k in range(pnf_max_rank(n, policy) + 1)]


def central_pairs(count):
    return [(2 * m, m) for m in range(1, count + 1)]


def per_entry(seq, pairs):
    return [f_binomial(seq, n, k) for n, k in pairs]


def outcome(compute):
    """The value of ``compute()``, or the type and text of what it raised."""
    try:
        return compute()
    except Exception as exc:
        return type(exc), str(exc)


class TestDiagonalWalk:
    @given(
        spec=st.sampled_from(GCD_MORPHIC_SPECS),
        n=st.integers(1, 200),
        count=st.integers(0, 200),
        policy=st.sampled_from(("include", "exclude")),
    )
    @settings(max_examples=40, deadline=None)
    def test_walks_equal_per_entry_binomials(self, spec, n, count, policy):
        seq = sequence_from_spec(spec)
        pairs = whitney_pairs(n, policy)
        assert f_binomial_diagonal(seq, (n, 0), (-1, 1), len(pairs)) == per_entry(
            seq, pairs
        )
        assert f_binomial_diagonal(seq, (2, 1), (2, 1), count) == per_entry(
            seq, central_pairs(count)
        )

    def test_lucas_walks_match_the_per_entry_path(self):
        seq = lucas()
        for n in range(1, 201):
            for policy in ("include", "exclude"):
                pairs = whitney_pairs(n, policy)
                assert outcome(
                    lambda: f_binomial_diagonal(seq, (n, 0), (-1, 1), len(pairs))
                ) == outcome(lambda: per_entry(seq, pairs)), (n, policy)
        for count in range(1, 61):
            assert outcome(
                lambda: f_binomial_diagonal(seq, (2, 1), (2, 1), count)
            ) == outcome(lambda: per_entry(seq, central_pairs(count))), count
        with pytest.raises(NonIntegralError) as caught:
            f_binomial_diagonal(seq, (2, 1), (2, 1), 2)
        assert str(caught.value) == LUCAS_4_2

    def test_lines_read_neither_f0_nor_fn(self):
        for n in range(1, 40):
            def no_zero_or_n(i, n=n):
                if i in (0, n):
                    raise RuntimeError(f"F_{i} must never be read")
                return i

            seq = FSequence("guarded", no_zero_or_n)
            for policy in ("include", "exclude"):
                pairs = whitney_pairs(n, policy)
                assert f_binomial_diagonal(
                    seq, (n, 0), (-1, 1), len(pairs)
                ) == factorial_ratios(SHIPPED["naturals"], pairs)
        # the central column up to (2N choose N) reads F_1..F_{2N} only
        seq = FSequence("guarded", lambda i: i if 0 < i <= 40 else 1 // 0)
        assert f_binomial_diagonal(seq, (2, 1), (2, 1), 20)[-1] == math.comb(40, 20)

    def test_walks_evaluate_the_per_entry_indices_once(self):
        for n in (1, 2, 7, 12, 13):
            walked, walked_asked = counting("counted", iterative_fib)
            direct, direct_asked = counting("counted", iterative_fib)
            pairs = whitney_pairs(n, "include")
            assert f_binomial_diagonal(walked, (n, 0), (-1, 1), len(pairs)) == (
                per_entry(direct, pairs)
            )
            assert sorted(walked_asked) == sorted(set(direct_asked))
        seq, asked = counting("counted", iterative_fib)
        f_binomial_diagonal(seq, (2, 1), (2, 1), 10)
        assert sorted(asked) == list(range(1, 21))

    def test_inadmissible_value_raises_where_the_walk_reads_it(self):
        bad10 = FSequence("bad10", lambda n: 0 if n >= 10 else n)
        with pytest.raises(AdmissibilityError, match="F_10 = 0"):
            f_binomial_diagonal(bad10, (2, 1), (2, 1), 5)
        assert f_binomial_diagonal(bad10, (2, 1), (2, 1), 4) == [2, 6, 20, 70]
        # (6 choose 2)_F from (7 choose 1)_F reads F_5 before F_6; the
        # per-entry product of (6 choose 2)_F reads F_6 first
        bad56 = FSequence("bad56", lambda n: 0 if n in (5, 6) else n)
        with pytest.raises(AdmissibilityError, match="F_5 = 0"):
            f_binomial_diagonal(bad56, (8, 0), (-1, 1), 5)
        with pytest.raises(AdmissibilityError, match="F_6 = 0"):
            f_binomial(bad56, 6, 2)

    @given(
        spec=st.sampled_from((*GCD_MORPHIC_SPECS, "lucas")),
        start=st.tuples(st.integers(-4, 40), st.integers(-4, 40)),
        step=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        count=st.integers(0, 24),
    )
    @settings(max_examples=60, deadline=None)
    def test_general_lines_and_validation(self, spec, start, step, count):
        # any line, steps with negative components included: the walk gives
        # the per-entry products, or raises the first error they raise
        drawn = sequence_from_spec(spec)
        pairs = [(start[0] + i * step[0], start[1] + i * step[1]) for i in range(count)]
        assert outcome(lambda: f_binomial_diagonal(drawn, start, step, count)) == outcome(
            lambda: per_entry(drawn, pairs)
        )
        seq = SHIPPED["gauss2"]
        lines = [
            ((0, 0), (1, 0)), ((9, 0), (0, 1)), ((3, 5), (1, -1)), ((5, 2), (3, 2)),
            ((20, 15), (0, -1)),
        ]
        for start, step in lines:
            pairs = [(start[0] + i * step[0], start[1] + i * step[1]) for i in range(12)]
            assert f_binomial_diagonal(seq, start, step, 12) == per_entry(seq, pairs)
        assert f_binomial_diagonal(seq, (4, 2), (1, 1), 0) == []
        with pytest.raises(ValueError, match="diagonal length"):
            f_binomial_diagonal(seq, (4, 2), (1, 1), -1)
        with pytest.raises(ValueError, match="upper index"):
            f_binomial_diagonal(seq, (1, 0), (-1, 0), 3)


# the value of compute(), or the entry its NonIntegralError names
first_non_integral = verify._non_integral_text


class TestCustomSequences:
    @given(st.lists(st.sampled_from((1, 2, 3, 4, 6, 12)), min_size=1, max_size=14))
    @settings(max_examples=150, deadline=None)
    def test_every_engine_agrees_with_the_factorial_ratio(self, values):
        # F_1..F_N drawn from few small divisors, so that some triangles,
        # lines or intermediate products are integral and others are not
        seq = FSequence("custom", lambda i: values[i - 1])
        top = len(values)
        pairs = triangle(top)
        table = first_non_integral(lambda: factorial_ratios(seq, pairs))
        assert first_non_integral(lambda: per_entry(seq, pairs)) == table
        rows = first_non_integral(lambda: list(f_binomial_rows(seq, top)))
        integral = isinstance(rows, list)
        assert ([x for row in rows for x in row] if integral else rows) == table
        lines = [((n, 0), (-1, 1), pnf_max_rank(n) + 1) for n in range(1, top + 1)]
        lines.append(((2, 1), (2, 1), top // 2))
        for start, step, count in lines:
            line = [(start[0] + i * step[0], start[1] + i * step[1]) for i in range(count)]
            expected = first_non_integral(lambda: factorial_ratios(seq, line))
            walked = first_non_integral(lambda: f_binomial_diagonal(seq, start, step, count))
            assert walked == expected, (start, step, count)
            assert first_non_integral(lambda: per_entry(seq, line)) == expected
            if integral:  # the rows hold every entry of the line
                assert [rows[n][k] for n, k in line] == expected


def lucas_u(p, q):
    """The Lucas sequence U_n(P, Q): U_0 = 0, U_1 = 1, U_n = P U_{n-1} - Q U_{n-2}."""

    def value_at(n):
        a, b = 0, 1
        for _ in range(n):
            a, b = b, p * b - q * a
        return a

    return FSequence(f"U(P={p}, Q={q})", value_at)


# coprime P > 0 and Q < 0 give positive strong divisibility sequences
# (Lucas 1878; Kimberling 1979), so every F-binomial is an integer
LUCAS_PARAMETERS = [
    (p, q) for p in range(1, 7) for q in range(-6, 0) if math.gcd(p, q) == 1
]


class TestLucasSequences:
    def test_parameters(self):
        assert len(LUCAS_PARAMETERS) == 23
        assert [seq_eval(lucas_u(1, -1), n) for n in range(8)] == [
            iterative_fib(n) for n in range(8)
        ]
        assert [seq_eval(lucas_u(2, -1), n) for n in range(6)] == [0, 1, 2, 5, 12, 29]

    @given(st.sampled_from(LUCAS_PARAMETERS))
    @settings(max_examples=30, deadline=None)
    def test_every_engine_equals_the_oracle(self, parameters):
        seq = lucas_u(*parameters)
        assert gcd_morphic_check(seq, 24).holds
        pairs = triangle(24)
        table = factorial_ratios(seq, pairs)
        rows = [table[n * (n + 1) // 2 : (n + 1) * (n + 2) // 2] for n in range(25)]
        assert list(f_binomial_rows(seq, 24)) == rows
        assert per_entry(seq, pairs) == table
        assert f_binomial_diagonal(seq, (2, 1), (2, 1), 12) == [
            rows[2 * m][m] for m in range(1, 13)
        ]
        for n in range(1, 25):
            sizes = layer_sizes(n, seq)
            assert f_binomial_diagonal(seq, (n, 0), (-1, 1), len(sizes)) == sizes
            assert pnf_whitney_vector(n, seq) == sizes


class TestGcdMorphicCheck:
    def test_fibonacci_holds(self):
        report = gcd_morphic_check(SHIPPED["fibonacci"], 30)
        assert report.holds and report.counterexample is None

    def test_lucas_counterexample(self):
        report = gcd_morphic_check(lucas(), 10)
        assert not report.holds
        witness = report.counterexample
        assert (witness.n, witness.m) == (2, 4)
        assert witness.index_gcd == 2
        assert witness.value_gcd == math.gcd(3, 7) == 1
        assert witness.value_at_index_gcd == 3

    def test_witness_at_n_1(self):
        # gcd(F_1, F_2) = gcd(2, 3) = 1, but F_gcd(1, 2) = F_1 = 2
        report = gcd_morphic_check(FSequence("shifted", lambda n: n + 1), 5)
        assert report == GcdMorphicReport(5, False, GcdCounterexample(1, 2, 1, 1, 2))

    def test_witness_at_the_bound(self):
        # naturals with F_6 = 30: only gcd(F_5, F_6) = 5 != F_1 fails, so
        # the witness is (bound - 1, bound); F_7 is inadmissible and must
        # not be read at bound 6
        seq = FSequence("sixth", lambda n: {6: 30, 7: 0}.get(n, n))
        assert gcd_morphic_check(seq, 5) == GcdMorphicReport(5, True, None)
        report = gcd_morphic_check(seq, 6)
        assert report == GcdMorphicReport(6, False, GcdCounterexample(5, 6, 1, 5, 1))

    def test_constant_one_holds(self):
        assert gcd_morphic_check(SHIPPED["ones"], 10).holds

    def test_family_matches_claims(self):
        for seq in gcd_morphic_family():
            assert gcd_morphic_check(seq, 60).holds

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            gcd_morphic_check(SHIPPED["ones"], 0)
        assert gcd_morphic_check(SHIPPED["ones"], 1) == GcdMorphicReport(1, True, None)

    def test_f0_is_never_read(self):
        seq = FSequence("nozero", no_zero_index)
        assert f_binomial(seq, 5, 2) == 10
        assert gcd_morphic_check(seq, 6).holds


def _identity(n):
    return n


class Renamed(GcdMorphicReport):
    """A record subclass that adds no field; at module level, so it pickles."""

    __slots__ = ()


class Located(GcdCounterexample):
    """A record subclass that appends one field to its parent's."""

    __slots__ = ("label",)


class TestRecordClasses:
    """FSequence and the GCD reports behave as the frozen dataclasses they were."""

    WITNESS = GcdCounterexample(2, 4, 2, 1, 3)
    RECORDS = [
        FSequence("id", _identity),
        WITNESS,
        GcdMorphicReport(10, False, WITNESS),
        GcdMorphicReport(60, True),
    ]

    def test_equality_and_hash_follow_the_fields(self):
        assert FSequence("id", _identity) == FSequence("id", _identity)
        assert hash(FSequence("id", _identity)) == hash(FSequence("id", _identity))
        assert FSequence("id", _identity) != FSequence("other", _identity)
        assert FSequence("id", _identity) != FSequence("id", lambda n: n)
        assert gaussian(2) != gaussian(2)  # each call makes a new callable
        assert GcdCounterexample(2, 4, 2, 1, 3) == self.WITNESS
        assert GcdCounterexample(2, 4, 2, 1, 1) != self.WITNESS
        assert GcdMorphicReport(10, False, self.WITNESS) == GcdMorphicReport(
            10, False, GcdCounterexample(2, 4, 2, 1, 3)
        )
        assert GcdMorphicReport(10, True) != GcdMorphicReport(10, False)
        assert len({GcdMorphicReport(5, True), GcdMorphicReport(5, True, None)}) == 1

    def test_equality_is_class_exact(self):
        report = GcdMorphicReport(60, True)
        assert report != Renamed(60, True)
        assert report != (60, True, None)
        assert self.WITNESS != GcdMorphicReport(2, 4, 2)
        assert FSequence("id", _identity) != "id"

    def test_repr(self):
        assert repr(FSequence("id", _identity)) == "FSequence('id')"
        assert repr(fibonacci()) == "FSequence('fibonacci')"
        witness = "GcdCounterexample(n=2, m=4, index_gcd=2, value_gcd=1, value_at_index_gcd=3)"
        assert repr(self.WITNESS) == witness
        assert repr(gcd_morphic_check(lucas(), 10)) == (
            f"GcdMorphicReport(checked_bound=10, holds=False, counterexample={witness})"
        )
        assert repr(GcdMorphicReport(60, True)) == (
            "GcdMorphicReport(checked_bound=60, holds=True, counterexample=None)"
        )

    @pytest.mark.parametrize(
        "record, name", zip(RECORDS, ["value_at", "m", "counterexample", "holds"])
    )
    def test_fields_cannot_be_assigned_or_deleted(self, record, name):
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) is before

    def test_keyword_construction(self):
        assert FSequence(name="id", value_at=_identity) == FSequence("id", _identity)
        assert GcdCounterexample(
            n=2, m=4, index_gcd=2, value_gcd=1, value_at_index_gcd=3
        ) == self.WITNESS
        report = GcdMorphicReport(checked_bound=60, holds=True)
        assert report.counterexample is None
        assert report == GcdMorphicReport(60, True, None)
        with pytest.raises(TypeError):
            GcdMorphicReport(60)
        fields = r"\('name', 'value_at'\)"
        with pytest.raises(TypeError, match=f"FSequence takes each of {fields} once"):
            FSequence("id", _identity, "extra")
        with pytest.raises(TypeError, match=f"FSequence takes each of {fields} once"):
            FSequence("id", value=_identity)
        with pytest.raises(TypeError, match="GcdCounterexample takes each of"):
            GcdCounterexample(2, 4, 2, 1, 3, n=2)

    def test_a_subclass_without_slots_keeps_its_parents_fields(self):
        renamed = Renamed(60, True)
        assert repr(renamed) == "Renamed(checked_bound=60, holds=True, counterexample=None)"
        assert renamed == Renamed(checked_bound=60, holds=True)
        assert renamed != Renamed(61, True) and renamed != Renamed(60, False)
        assert hash(renamed) == hash(Renamed(60, True))
        for clone in (
            copy.copy(renamed),
            copy.deepcopy(renamed),
            pickle.loads(pickle.dumps(renamed)),
        ):
            assert clone == renamed and type(clone) is Renamed

    def test_a_subclass_appends_its_own_fields(self):
        located = Located(2, 4, 2, 1, 3, label="lucas")
        assert located.label == "lucas" and located.value_at_index_gcd == 3
        assert repr(located) == (
            "Located(n=2, m=4, index_gcd=2, value_gcd=1, value_at_index_gcd=3, label='lucas')"
        )
        assert located != Located(2, 4, 2, 1, 3, "lucas-2")
        assert pickle.loads(pickle.dumps(located)) == located
        with pytest.raises(TypeError, match="Located takes each of"):
            Located(2, 4, 2, 1, 3)

    @pytest.mark.parametrize("record", RECORDS, ids=repr)
    def test_copy(self, record):
        for duplicate in (copy.copy(record), copy.deepcopy(record)):
            assert duplicate == record and duplicate is not record
            assert type(duplicate) is type(record)


class TestMakeSequence:
    def test_cli_names(self):
        assert seq_eval(make_sequence("fib"), 6) == 8
        assert seq_eval(make_sequence("gauss", 2), 4) == 15

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown sequence"):
            make_sequence("tribonacci")

    def test_gauss_requires_q(self):
        with pytest.raises(ValueError, match="requires"):
            make_sequence("gauss")

    def test_q_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="does not take"):
            make_sequence("fib", 2)

    def test_gauss_base_validation(self):
        with pytest.raises(ValueError):
            gaussian(1)

    def test_names_survive_wrapped_module_functions(self, monkeypatch):
        # a profiler or tracer may rebind every public function of the module
        import inspect

        from cobweb import sequences

        for attr, obj in list(vars(sequences).items()):
            if inspect.isfunction(obj) and not attr.startswith("_"):
                monkeypatch.setattr(
                    sequences, attr, lambda *a, _fn=obj, **kw: _fn(*a, **kw)
                )
        for name in SEQUENCE_NAMES:
            q = 2 if name == "gauss" else None
            assert seq_eval(sequences.make_sequence(name, q), 3) >= 1
        assert sequences.sequence_from_spec("gauss3").name == "gauss(q=3)"


class TestSequenceSpec:
    # spec -> the same sequence in the flag spelling (--seq NAME [--q Q])
    FLAGS = {
        "fib": ("fib", None),
        "naturals": ("naturals", None),
        "ones": ("ones", None),
        **{f"gauss{q}": ("gauss", q) for q in range(2, 6)},
    }

    @staticmethod
    def fingerprint(seq):
        return seq.name, [seq_eval(seq, i) for i in range(1, 21)]

    def test_agrees_with_flag_spelling(self):
        assert set(GCD_MORPHIC_SPECS) <= set(self.FLAGS)
        for spec, (name, q) in self.FLAGS.items():
            assert self.fingerprint(sequence_from_spec(spec)) == self.fingerprint(
                make_sequence(name, q)
            )

    @pytest.mark.parametrize(
        "spec, name, q",
        [("gauss", "gauss", None), ("fib2", "fib", 2), ("tribonacci", "tribonacci", None)],
    )
    def test_raises_the_flag_spelling_errors(self, spec, name, q):
        with pytest.raises(ValueError) as flag_error:
            make_sequence(name, q)
        with pytest.raises(ValueError) as spec_error:
            sequence_from_spec(spec)
        assert str(spec_error.value) == str(flag_error.value)

    def test_gcd_morphic_family_is_the_parsed_verify_tokens(self):
        parsed = [verify.sequence_from_token(t) for t in GCD_MORPHIC_SPECS]
        assert list(map(self.fingerprint, gcd_morphic_family())) == list(
            map(self.fingerprint, parsed)
        )
