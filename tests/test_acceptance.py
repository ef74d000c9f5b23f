"""Acceptance gate: every criterion at its stated scale, exact equality.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured-output section of a failure report).
"""

import json
import math
from contextlib import contextmanager
from math import comb

import pytest

from chain_walk import recursive_chain_report
from cobweb.cli import main
from cobweb.gridposet import (
    catalan,
    grid_chain_count,
    grid_elements,
    grid_size,
    grid_whitney,
)
from cobweb.oracle import build_grid_hasse, layer_sizes
from cobweb.pnfposet import pnf_bell
from cobweb.sequences import (
    NonIntegralError,
    f_binomial,
    fibonacci,
    gaussian,
    gcd_morphic_check,
    lucas,
    naturals,
    ones,
    seq_eval,
)


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {text}")
        raise
    else:
        print(f"PASS criterion {number}: {text}")


def iterative_fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def ratio_binomial(seq, n, k):
    """Independent factorial-ratio oracle over raw sequence values."""
    values = [seq_eval(seq, i) for i in range(n + 1)]
    fact = lambda m: math.prod(values[1 : m + 1])
    numerator, denominator = fact(n), fact(k) * fact(n - k)
    assert numerator % denominator == 0
    return numerator // denominator


def test_criterion_1_size_identity():
    with criterion(1, "size closed form = exhaustive enumeration, k < n <= 30"):
        cases = 0
        for n in range(1, 31):
            for k in range(n):
                enumerated = {
                    (l, m)
                    for l in range(k + 1)
                    for m in range(n + 1)
                    if l < m
                }
                assert len(enumerated) == (n - k) * (k + 1) + k * (k + 1) // 2
                assert len(enumerated) == grid_size(k, n)
                assert enumerated == set(grid_elements(k, n))
                cases += 1
        assert cases == 465


def test_criterion_2_whitney_bell_identity():
    with criterion(2, "Whitney numbers sum to the poset size, k < n <= 30"):
        for n in range(1, 31):
            for k in range(n):
                assert sum(grid_whitney(k, n)) == grid_size(k, n)


def test_criterion_3_chain_count_oracle_equivalence():
    with criterion(3, "DFS chain count = ballot form, k < n <= 12; Catalan diagonal"):
        for n in range(2, 13):
            for k in range(n):
                report = recursive_chain_report(build_grid_hasse(k, n))
                ballot = (n - k) * comb(n + k - 1, k) // n
                assert report.chain_count == ballot == grid_chain_count(k, n)
        for n in range(1, 13):
            assert grid_chain_count(n - 1, n) == catalan(n - 1)

        # the tempting alternative closed form is wrong, two failure modes:
        assert (2 + 1 - 0) * comb(2, 2) % 2 != 0  # non-integral at (0, 2)
        wrong_1_2 = (2 + 1 - 1) * comb(3, 2) // 2  # = 3 at (1, 2) ...
        truth_1_2 = recursive_chain_report(build_grid_hasse(1, 2)).chain_count
        assert wrong_1_2 == 3 and truth_1_2 == 1  # ... vs one actual chain


def test_criterion_4_gradedness():
    with criterion(4, "all maximal chains have k+n elements; rank k+n-1; k < n <= 10"):
        for n in range(2, 11):
            for k in range(n):
                report = recursive_chain_report(build_grid_hasse(k, n))
                assert report.graded
                assert report.min_length == report.max_length == k + n
                assert len(grid_whitney(k, n)) - 1 == k + n - 1


def test_criterion_5_layered_whitney_identity():
    with criterion(5, "oracle level sizes of P(n, F) = F-binomial levels, n <= 12"):
        for seq in (naturals(), fibonacci(), ones(), gaussian(2)):
            for n in range(1, 13):
                census = layer_sizes(n, seq)
                assert census == [
                    f_binomial(seq, n - k, k) for k in range(n // 2 + 1)
                ]
                assert census == [
                    ratio_binomial(seq, n - k, k) for k in range(n // 2 + 1)
                ]


def test_criterion_6_fibonacci_shift():
    with criterion(6, "Bell-like numbers of naturals = Fib(n+1), n <= 30"):
        nat = naturals()
        bells = [pnf_bell(n, nat) for n in range(0, 31)]
        for n in range(1, 31):
            assert bells[n] == iterative_fib(n + 1)
        for n in range(1, 30):
            assert bells[n + 1] == bells[n] + bells[n - 1]


def test_criterion_7_gcd_morphic_gate():
    with criterion(7, "GCD-morphism holds at N=60 for the family; lucas fails at (2, 4)"):
        for seq in (fibonacci(), naturals(), ones(), gaussian(2), gaussian(3)):
            report = gcd_morphic_check(seq, 60)
            assert report.holds, seq.name
        negative = gcd_morphic_check(lucas(), 60)
        assert not negative.holds
        witness = negative.counterexample
        assert (witness.n, witness.m) == (2, 4)
        assert witness.value_gcd == 1 and witness.value_at_index_gcd == 3


def test_criterion_8_binomial_algebra():
    with criterion(8, "symmetry and edge rows to n <= 40; fibonomial row 5 vs oracle"):
        for seq in (fibonacci(), naturals(), ones(), gaussian(2), gaussian(3)):
            for n in range(41):
                assert f_binomial(seq, n, 0) == 1
                assert f_binomial(seq, n, n) == 1
                for k in range(n + 1):
                    assert f_binomial(seq, n, k) == f_binomial(seq, n, n - k)
        # golden row frozen only after recomputation with the ratio oracle
        fib = fibonacci()
        oracle_row = [ratio_binomial(fib, 5, k) for k in range(6)]
        assert oracle_row == [1, 5, 15, 15, 5, 1]
        assert [f_binomial(fib, 5, k) for k in range(6)] == oracle_row
        # lucas ships as the negative control and is excluded above: its
        # triangle is genuinely non-integral from (4, 2) on
        with pytest.raises(NonIntegralError):
            f_binomial(lucas(), 4, 2)


def test_criterion_9_cli_contract(tmp_path, capsys):
    with criterion(9, "verify exits 0 at N=10; JSON round trip; 30-term b-file"):
        assert main(["verify", "--max-n", "10"]) == 0
        capsys.readouterr()

        argv = ["pnf", "--seq", "naturals", "--n", "12", "--show", "whitney",
                "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        doc = json.loads(first)
        replay = ["pnf", "--seq", doc["params"]["seq"], "--n", doc["params"]["n"],
                  "--show", doc["params"]["show"], "--degenerate",
                  doc["params"]["degenerate"], "--format", "json"]
        assert main(replay) == 0
        assert capsys.readouterr().out == first

        path = tmp_path / "b_bell_naturals.txt"
        code = main(["export", "--what", "bell", "--seq", "naturals",
                     "--count", "30", "--bfile", str(path)])
        assert code == 0
        expected = "".join(f"{n} {iterative_fib(n + 1)}\n" for n in range(1, 31))
        assert path.read_text() == expected
