"""The verification suites themselves, including fault detection."""

import re
import tracemalloc
from collections import Counter
from itertools import islice
from math import comb
from pathlib import Path
from unittest import mock

import pytest

from cobweb import cli, gridposet, oracle, pnfposet, sequences, verify
from cobweb.gridposet import grid_leq
from cobweb.sequences import FSequence, NonIntegralError, gaussian, naturals


def broken_chain_count(k, n):
    """A tempting but wrong closed form; exact division, loud on remainder."""
    quotient, remainder = divmod((n + 1 - k) * comb(n + k, n), n)
    if remainder:
        raise ArithmeticError(f"non-integral chain count at ({k}, {n})")
    return quotient


def boom(*args, **kwargs):
    raise ArithmeticError("boom")


def off_by_one_whitney(k, n):
    """The Whitney closed form with (j + 1) // 2 for j // 2: wrong from (1, 2)."""
    return [
        max(0, min(k, (j + 1) // 2) - max(0, j + 1 - n) + 1) for j in range(k + n)
    ]


def off_by_one_size(k, n):
    """The size closed form with triangular term k(k-1)/2 for k(k+1)/2:
    wrong from (1, 2)."""
    return (n - k) * (k + 1) + (k - 1) * k // 2


def bell_without_top_rank(k, n):
    """The Bell-like number summing all Whitney numbers but the top one:
    wrong from (0, 2)."""
    return sum(gridposet.grid_whitney(k, n)[:-1])


GRID_ORDER = "grid_leq = oracle order"


def up_sets(k, n, leq):
    """repr of every vertex of grid (k, n)'s up-set under ``leq``, in vertex order."""
    vertices = gridposet.grid_elements(k, n)
    return repr({a: [b for b in vertices if leq(a, b)] for a in vertices})


class TestSuites:
    def test_all_green_at_desk_scale(self):
        suites = verify.run_verify(8)
        assert sum(suite.cases for suite in suites) > 0
        assert all(not suite.failures for suite in suites)

    def test_sequence_token_parsing(self):
        assert verify.sequence_from_token("gauss3").name == "gauss(q=3)"
        assert verify.sequence_from_token("fib").name == "fibonacci"
        with pytest.raises(ValueError, match="unknown verify sequence"):
            verify.sequence_from_token("lucas")

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            verify.run_verify(1)

    def test_repeated_sequence_token_is_rejected(self):
        with pytest.raises(ValueError, match="'naturals' is given more than once"):
            verify.run_verify(4, ["fib", "naturals", "gauss2", "naturals", "fib"])

    def test_default_scale_counts(self, monkeypatch):
        checked = Counter()
        check = verify.SuiteResult.check

        def counted(suite, identity, *rest):
            checked[identity] += 1
            check(suite, identity, *rest)

        monkeypatch.setattr(verify.SuiteResult, "check", counted)
        census = mock.Mock(wraps=oracle.layer_sizes)
        monkeypatch.setattr(oracle, "layer_sizes", census)
        ratios = mock.Mock(wraps=oracle.factorial_ratios)
        monkeypatch.setattr(oracle, "factorial_ratios", ratios)
        pascal = mock.Mock(wraps=oracle.pascal_rows)
        monkeypatch.setattr(oracle, "pascal_rows", pascal)
        suites = {s.name: s for s in verify.run_verify(12)}
        # one oracle census per (n, F): 12 n for each of the 4 sequences,
        # and one per n = 1..40 for lucas in the F-binomial suite
        asked = [(c.args[0], c.args[1].name) for c in census.call_args_list]
        assert len(asked) == len(set(asked)) == 48 + 40
        assert asked[48:] == [(n, "lucas") for n in range(1, 41)]
        # every factorial-ratio table is one census of at most 7 levels; the
        # F-binomial suite streams rows 0..40 once per shipped F, whatever
        # --seq says
        tables = [(c.args[0].name, len(c.args[1])) for c in ratios.call_args_list]
        assert len(tables) == 48 + 40
        assert max(size for _, size in tables[:48]) == 7
        assert tables[48:] == [("lucas", n // 2 + 1) for n in range(1, 41)]
        assert pascal.call_args_list == [
            mock.call(spec, 40) for spec in sequences.GCD_MORPHIC_SPECS
        ]
        assert {name: s.cases for name, s in suites.items()} == {
            "grid poset vs oracle": 432,
            "layered poset vs oracle": 212,
            "F-binomial algebra": 292,
            "GCD-morphism gate": 12,
        }
        total = sum(s.cases for s in suites.values())
        assert total == 948
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        documented = re.search(r"At `--max-n 12`[^.]*? (\d+) checks", readme)
        assert documented and int(documented[1]) == total
        assert checked == Counter({
            "grid size closed form = enumerated cardinality": 77,
            "Bell-like number = size": 77,
            "oracle rank census = Whitney vector": 77,
            "chain-count closed form = DP count over cover edges": 77,
            "all maximal chains have k+n elements": 77,
            GRID_ORDER: 35,
            "near-diagonal chain count = Catalan number": 12,
            "oracle rank census = F-binomial level sizes": 48,
            "per-level Whitney numbers = oracle census": 48,
            "Bell-like number = total size": 48,
            "including the degenerate level adds 1 for even n, 0 for odd": 48,
            "Bell sequence by diagonal row sums = per-n Bell numbers": 8,
            "Bell-like numbers of naturals = shifted Fibonacci": 12,
            "row engine = F_n!/(F_k! F_{n-k}!) with zero remainder": 205,
            "central column walk = F_{2m}!/(F_m! F_m!)": 5,
            "lucas rows fail first at (4 choose 2)": 1,
            "lucas central column walk fails first at (4 choose 2)": 1,
            "lucas Whitney line = oracle census, or its first non-integral level": 40,
            "lucas per-level Whitney numbers = oracle census, or its first non-integral level": 40,
            "sequence is GCD-morphic up to the bound": 5,
            "lucas fails with first counterexample (2, 4)": 1,
            "shipped values = defining recurrence": 6,
        })
        assert not any(s.failures for s in suites.values())
        assert not any(s.skipped for s in suites.values())
        assert all(s.seconds > 0 for s in suites.values())

    def test_grid_suite_builds_one_oracle_diagram(self, monkeypatch):
        build = mock.Mock(wraps=oracle.build_grid_hasse)
        monkeypatch.setattr(oracle, "build_grid_hasse", build)
        suite = verify.check_grid_chains(12)
        assert build.call_args_list == [mock.call(11, 12, max_index=12)]
        assert (suite.cases, suite.failures) == (432, [])
        smallest = verify.check_grid_chains(1)  # the Catalan check at n = 1 only
        assert (smallest.cases, smallest.skipped, smallest.failures) == (1, 0, [])

    def test_grid_suite_reads_the_cover_edges_once(self):
        read = oracle.HasseDiagram.cover_edges
        with mock.patch.object(
            oracle.HasseDiagram, "cover_edges", autospec=True, side_effect=read
        ) as reads:
            suite = verify.check_grid_chains(12)
        assert (suite.cases, suite.failures) == (432, [])
        assert reads.call_count == 1

    def test_grid_suite_at_24_and_32(self):
        for max_n, cases in ((24, 1554), (32, 2702), (48, 5958)):
            suite = verify.check_grid_chains(max_n)
            assert (suite.cases, suite.skipped, suite.failures) == (cases, 0, [])

    def test_layered_census_runs_in_bounded_memory(self):
        # P(12, gauss2) has 1,167,789 elements and P(12, gauss3) far more;
        # none is built, and no guard skips a census
        for seq in (gaussian(2), gaussian(3)):
            tracemalloc.start()
            try:
                suite = verify.check_pnf_census(12, [seq])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # 4 checks per n, the Bell sequence under 2 policies, 12 for naturals
            assert (suite.cases, suite.skipped, suite.failures) == (62, 0, [])
            assert peak < 8 * 2**20

    def test_f_binomial_suite_holds_one_reference_row_at_a_time(self):
        verify.check_fbinom_algebra()  # warm-up: first-call caches are no part of the peak
        tracemalloc.start()
        try:
            suite = verify.check_fbinom_algebra()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (suite.cases, suite.failures) == (292, [])
        # a whole 861-entry reference table per F peaks at about 163 KiB;
        # streamed rows, at about 65 KiB
        assert peak < 120 * 2**10


class TestFaultInjection:
    def test_broken_formula_is_detected_at_0_2(self, monkeypatch):
        monkeypatch.setattr("cobweb.gridposet.grid_chain_count", broken_chain_count)
        suites = verify.run_verify(6)
        failures = [f for suite in suites for f in suite.failures]
        assert failures, "the wrong closed form must not verify"
        assert "(0, 2)" in failures[0].inputs

    def test_broken_formula_failure_modes(self):
        # non-integral already at (0, 2) ...
        with pytest.raises(ArithmeticError):
            broken_chain_count(0, 2)
        # ... and over-counts at (1, 2): 3 instead of the single chain
        assert broken_chain_count(1, 2) == 3

    def test_wrong_whitney_closed_form_is_detected_at_1_2(self, monkeypatch):
        monkeypatch.setattr("cobweb.gridposet.grid_whitney", off_by_one_whitney)
        suite = verify.check_grid_chains(6)
        census = "oracle rank census = Whitney vector"
        # grid_bell sums the Whitney vector, so it fails alongside
        assert {f.identity for f in suite.failures} == {census, "Bell-like number = size"}
        first = next(f for f in suite.failures if f.identity == census)
        assert "(1, 2)" in first.inputs
        assert (first.expected, first.actual) == ("[1, 1, 1]", "[1, 2, 1]")

    @pytest.mark.parametrize(
        "target, wrong, identity, first_wrong, actual, failing",
        [
            (
                "grid_size",
                off_by_one_size,
                "grid size closed form = enumerated cardinality",
                (1, 2),
                "2",
                15,  # every (k, n) with k >= 1, 2 <= n <= 6
            ),
            (
                "grid_bell",
                bell_without_top_rank,
                "Bell-like number = size",
                (0, 2),
                "1",
                20,  # every (k, n), 2 <= n <= 6
            ),
        ],
        ids=["grid_size", "grid_bell"],
    )
    def test_wrong_size_or_bell_form_fails_first_where_wrong(
        self, monkeypatch, target, wrong, identity, first_wrong, actual, failing
    ):
        monkeypatch.setattr(gridposet, target, wrong)
        suite = verify.check_grid_chains(6)
        assert {f.identity for f in suite.failures} == {identity}
        assert len(suite.failures) == failing
        first = suite.failures[0]
        assert first.inputs == f"(k, n) = {first_wrong}"
        # the expected side is the oracle's vertex count
        assert first.expected == str(len(oracle.build_grid_hasse(*first_wrong).vertices))
        assert first.actual == actual

    def test_raising_chain_count_fails_every_check_it_feeds(self, monkeypatch):
        healthy = verify.check_grid_chains(4)

        def raising(k, n):
            raise ArithmeticError(f"no chain count at ({k}, {n})")

        monkeypatch.setattr("cobweb.gridposet.grid_chain_count", raising)
        suite = verify.check_grid_chains(4)
        assert suite.cases == healthy.cases
        # the near-diagonal check computes catalan, not the ballot form
        assert {f.identity for f in suite.failures} == {
            "chain-count closed form = DP count over cover edges",
        }
        assert len(suite.failures) == 9  # 0 <= k < n <= 4
        assert all(f.actual.startswith("raised ") for f in suite.failures)
        last = suite.failures[-1]
        assert (last.inputs, last.expected) == ("(k, n) = (3, 4)", "5")
        assert last.actual == "raised ArithmeticError: no chain count at (3, 4)"

    def test_dp_count_mismatch_prints_both_fail_lines(self, monkeypatch, capsys):
        ideals = oracle.principal_ideals

        def one_chain_short(diagram, tops):
            for vertices, census, report in ideals(diagram, tops):
                yield vertices, census, oracle.ChainReport(
                    report.chain_count + 1, report.min_length, report.max_length, report.graded
                )

        monkeypatch.setattr(oracle, "principal_ideals", one_chain_short)
        assert cli.main(["verify", "--max-n", "2"]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("FAIL ")] == [
            "FAIL chain-count closed form = DP count over cover edges at (k, n) = (0, 2): "
            "expected 2, got 1",
            "FAIL chain-count closed form = DP count over cover edges at (k, n) = (1, 2): "
            "expected 2, got 1",
            # the Catalan line reads the DP count of (0, 1) and (1, 2)
            "FAIL near-diagonal chain count = Catalan number at n = 1: expected 2, got 1",
            "FAIL near-diagonal chain count = Catalan number at n = 2: expected 2, got 1",
        ]

    def test_wrong_catalan_fails_against_the_dp_count(self, monkeypatch):
        def catalan_over_i_plus_2(i):
            return comb(2 * i, i) // (i + 2)

        monkeypatch.setattr(gridposet, "catalan", catalan_over_i_plus_2)
        suite = verify.check_grid_chains(6)
        assert [(f.identity, f.inputs) for f in suite.failures] == [
            ("near-diagonal chain count = Catalan number", f"n = {n}") for n in range(1, 7)
        ]
        for n, failure in enumerate(suite.failures, 1):
            top = (n - 1, n)
            _, _, dp = next(oracle.principal_ideals(oracle.build_grid_hasse(*top), [top]))
            assert failure.expected == str(dp.chain_count)
            assert failure.actual == str(catalan_over_i_plus_2(n - 1))

    def test_exclude_policy_one_level_short_fails_at_odd_n(self, monkeypatch):
        max_rank = pnfposet.pnf_max_rank

        def exclude_one_level_short(n, policy=pnfposet.DEFAULT_POLICY):
            return max(0, n // 2 - 1) if policy == "exclude" else max_rank(n, policy)

        monkeypatch.setattr(pnfposet, "pnf_max_rank", exclude_one_level_short)
        failures = [f for suite in verify.run_verify(12) for f in suite.failures]
        # the exclude total comes from the oracle's census, not from pnf_max_rank
        assert [(f.identity, f.inputs, f.expected) for f in failures] == [
            (
                "including the degenerate level adds 1 for even n, 0 for odd",
                f"(n, F) = ({n}, {name})",
                "0",
            )
            for name in ("fibonacci", "naturals", "ones", "gauss(q=2)")
            for n in (3, 5, 7, 9, 11)
        ]

    @pytest.mark.parametrize(
        "patch, failing",
        [
            (
                lambda mp: mp.setitem(
                    sequences._FACTORIES, "ones", lambda: FSequence("ones", lambda n: 2)
                ),
                "ones",
            ),
            (
                lambda mp: mp.setattr(
                    sequences,
                    "gaussian",
                    lambda q: FSequence(
                        f"gauss(q={q})", lambda n: (q**n - 1) // (q - 1) * (q - 1)
                    ),
                ),
                "gauss(q=3)",  # for q = 2 the factor q - 1 is 1
            ),
        ],
        ids=["ones-2", "gauss-times-q-1"],
    )
    def test_wrong_shipped_values_fail_their_recurrence(
        self, monkeypatch, capsys, patch, failing
    ):
        # a constant factor leaves every F-binomial and gcd relation intact
        patch(monkeypatch)
        assert cli.main(["verify", "--max-n", "12"]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL ")]
        assert len(fails) == 1
        assert fails[0].startswith(
            f"FAIL shipped values = defining recurrence at (F, n) = "
            f"({failing}, 1..60, 511, 512, 1023, 1024): expected [1, "
        )

    def test_failure_records_name_identity_and_values(self, monkeypatch):
        monkeypatch.setattr("cobweb.gridposet.grid_chain_count", broken_chain_count)
        suites = verify.run_verify(4)
        failure = next(f for suite in suites for f in suite.failures)
        assert failure.identity
        assert "(k, n)" in failure.inputs
        assert failure.expected and failure.actual

    def test_bell_sequence_dropping_its_last_row_is_detected(self, monkeypatch):
        rows = pnfposet.f_binomial_rows

        def without_last_row(seq, last_row, diagonal=None):
            return islice(rows(seq, last_row, diagonal), last_row)

        monkeypatch.setattr("cobweb.pnfposet.f_binomial_rows", without_last_row)
        suite = verify.check_pnf_census(6, [naturals()])
        identities = {f.identity for f in suite.failures}
        assert identities == {"Bell sequence by diagonal row sums = per-n Bell numbers"}
        first = suite.failures[0]
        assert first.inputs == "(N, F, policy) = (6, naturals, include)"
        assert (first.expected, first.actual) == (
            "[1, 2, 3, 5, 8, 13]",
            "[1, 2, 3, 5, 8, 12]",
        )
        assert len(suite.failures) == 2  # both policies

    def test_walk_with_an_off_by_one_ratio_index_is_detected(self, monkeypatch):
        ratio = sequences._ratio_factors

        def numerators_one_too_high(n, k, next_n, next_k):
            up, down = ratio(n, k, next_n, next_k)
            return tuple(i + 1 for i in up), down

        monkeypatch.setattr("cobweb.sequences._ratio_factors", numerators_one_too_high)
        suite = verify.check_pnf_census(6, [naturals()])
        assert suite.failures, "a walk with a wrong ratio must not verify"
        first = suite.failures[0]
        assert first.identity == "oracle rank census = F-binomial level sizes"
        assert first.inputs == "(n, F) = (5, naturals)"
        # (3 choose 2) from (4 choose 1): 4 * F_3 F_4 / (F_4 F_2) = 6, not 3
        assert (first.expected, first.actual) == ("[1, 4, 3]", "[1, 4, 6]")

    def test_off_by_one_ratio_fails_every_central_column_it_changes(self, monkeypatch):
        ratio = sequences._ratio_factors

        def numerators_one_too_high(n, k, next_n, next_k):
            up, down = ratio(n, k, next_n, next_k)
            return tuple(i + 1 for i in up), down

        monkeypatch.setattr("cobweb.sequences._ratio_factors", numerators_one_too_high)
        suite = verify.check_fbinom_algebra()
        failed = [
            f.inputs
            for f in suite.failures
            if f.identity == "central column walk = F_{2m}!/(F_m! F_m!)"
        ]
        # every F_i of ones is 1, so only its column survives the wrong ratio
        assert failed == [
            f"(F, count) = ({name}, 20)"
            for name in ("fibonacci", "naturals", "gauss(q=2)", "gauss(q=3)")
        ]

    def test_walk_that_hides_the_lucas_error_is_detected(self, monkeypatch):
        healthy = verify.check_fbinom_algebra()
        assert not healthy.failures
        # 41 rows and the central column of each of the 5 shipped sequences,
        # the 2 lucas controls, and lucas's walk and levels for n = 1..40
        assert healthy.cases == 5 * (41 + 1) + 2 + 2 * 40
        walk = sequences.f_binomial_diagonal

        def silent(seq, start, step, count):
            try:
                return walk(seq, start, step, count)
            except NonIntegralError:
                return []

        monkeypatch.setattr("cobweb.verify.f_binomial_diagonal", silent)
        monkeypatch.setattr("cobweb.pnfposet.f_binomial_diagonal", silent)
        suite = verify.check_fbinom_algebra()
        # lucas's census is not integral from n = 6 on
        assert [(f.identity, f.inputs, f.actual) for f in suite.failures] == [
            (
                "lucas central column walk fails first at (4 choose 2)",
                "(F, count) = (lucas, 20)",
                "[]",
            ),
        ] + [("lucas Whitney line = oracle census, or its first non-integral level", f"(F, n) = (lucas, {n})", "[]") for n in range(6, 41)]

    @pytest.mark.parametrize(
        "target, fed",
        [
            (
                "cobweb.pnfposet.pnf_whitney_vector",
                {
                    "oracle rank census = F-binomial level sizes",
                    "Bell-like number = total size",
                    "including the degenerate level adds 1 for even n, 0 for odd",
                    "Bell-like numbers of naturals = shifted Fibonacci",
                    "lucas Whitney line = oracle census, or its first non-integral level",
                },
            ),
            (
                "cobweb.pnfposet.pnf_whitney",
                {"per-level Whitney numbers = oracle census", "lucas per-level Whitney numbers = oracle census, or its first non-integral level"},
            ),
            (
                "cobweb.gridposet.grid_whitney",
                {"Bell-like number = size", "oracle rank census = Whitney vector"},
            ),
        ],
        ids=["pnf_whitney_vector", "pnf_whitney", "grid_whitney"],
    )
    def test_raising_closed_form_fails_every_identity_it_feeds(
        self, monkeypatch, capsys, target, fed
    ):
        monkeypatch.setattr(target, boom)
        failures = [f for suite in verify.run_verify(6) for f in suite.failures]
        assert {f.identity for f in failures} == fed
        assert {f.actual for f in failures} == {"raised ArithmeticError: boom"}
        assert cli.main(["verify", "--max-n", "6"]) == 1
        out = capsys.readouterr().out
        assert out.count("\nFAIL ") == len(failures)
        assert "got raised ArithmeticError: boom\n" in out

    def test_off_by_one_step_fails_verify_not_the_command_line(self, monkeypatch, capsys):
        step = sequences._checked_step

        def off_by_one_at_5_2(values, n, k, *rest):
            return step(values, n, k, *rest) + ((n, k) == (5, 2))

        monkeypatch.setattr("cobweb.sequences._checked_step", off_by_one_at_5_2)
        failures = [f for suite in verify.run_verify(6) for f in suite.failures]
        # the row engine steps k <= n // 2 and mirrors the rest, so the wrong
        # (5 choose 2) is also (5 choose 3) and row 5 is wrong, raising nothing
        engine = "row engine = F_n!/(F_k! F_{n-k}!) with zero remainder"
        wrong_rows = [
            ("fibonacci", [1, 5, 15, 15, 5, 1], [1, 5, 16, 16, 5, 1]),
            ("naturals", [1, 5, 10, 10, 5, 1], [1, 5, 11, 11, 5, 1]),
            ("ones", [1, 1, 1, 1, 1, 1], [1, 1, 2, 2, 1, 1]),
            ("gauss(q=2)", [1, 31, 155, 155, 31, 1], [1, 31, 156, 156, 31, 1]),
            ("gauss(q=3)", [1, 121, 1210, 1210, 121, 1], [1, 121, 1211, 1211, 121, 1]),
        ]
        # lucas's walk leaves a remainder at (5 choose 2), where the per-entry
        # product now returns 29
        lucas_line = "lucas Whitney line = oracle census, or its first non-integral level"
        lucas_levels = (
            "lucas per-level Whitney numbers = oracle census, or its first non-integral level"
        )
        not_integral = "'(5 choose 2)_F is not an integer'"
        walk_error = (
            "raised RuntimeError: walk step 2 gives (5 choose 2)_F = 1386/54 for F = lucas, "
            "but the per-entry product gives 29"
        )
        assert [(f.identity, f.inputs, f.expected, f.actual) for f in failures] == [
            (engine, f"(F, n) = ({name}, 5)", repr(right), repr(wrong))
            for name, right, wrong in wrong_rows
        ] + [
            (lucas_line, "(F, n) = (lucas, 7)", not_integral, walk_error),
            (lucas_levels, "(F, n) = (lucas, 7)", not_integral, "[1, 18, 29, 7]"),
        ]
        assert cli.main(["verify", "--max-n", "6"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("\nFAIL ") == len(failures)
        for name, right, wrong in wrong_rows:
            assert (
                f"FAIL {engine} at (F, n) = ({name}, 5): expected {right}, got {wrong}\n"
                in captured.out
            )
        assert (
            f"FAIL {lucas_line} at (F, n) = (lucas, 7): expected {not_integral}, got {walk_error}\n"
            in captured.out
        )
        assert captured.out.endswith(f"checks 540\nfailures {len(failures)}\n")
        assert captured.err == ""

    def test_raising_walk_renders_unquoted(self, monkeypatch):
        monkeypatch.setattr("cobweb.verify.f_binomial_diagonal", boom)
        suite = verify.check_fbinom_algebra()
        assert [(f.identity, f.inputs) for f in suite.failures] == [
            ("central column walk = F_{2m}!/(F_m! F_m!)", f"(F, count) = ({name}, 20)")
            for name in ("fibonacci", "naturals", "ones", "gauss(q=2)", "gauss(q=3)")
        ] + [
            (
                "lucas central column walk fails first at (4 choose 2)",
                "(F, count) = (lucas, 20)",
            ),
        ]
        assert {f.actual for f in suite.failures} == {"raised ArithmeticError: boom"}
        # the expected side is the oracle's table: (2m choose m) for m = 1..20
        assert suite.failures[1].expected == repr([comb(2 * m, m) for m in range(1, 21)])

    @pytest.mark.parametrize(
        "relation, passing",
        [
            (
                lambda a, b: a == b or (grid_leq(a, b) and sum(b) == sum(a) + 1),
                ["(k, n) = (0, 2)"],  # the only input without a 3-element chain
            ),
            (lambda a, b: True, []),
            (lambda a, b: a != b and grid_leq(a, b), []),
        ],
        ids=["covers-only", "all-pairs", "strict"],
    )
    def test_order_law_breach_is_detected(self, monkeypatch, relation, passing):
        healthy = verify.check_grid_chains(4)
        monkeypatch.setattr("cobweb.gridposet.grid_leq", relation)
        suite = verify.check_grid_chains(4)
        assert suite.cases == healthy.cases
        # the oracle never calls grid_leq, so only the order check can fail
        assert {f.identity for f in suite.failures} == {GRID_ORDER}
        assert len(suite.failures) == 9 - len(passing)  # 0 <= k < n, 2 <= n <= 4
        assert all(f.inputs not in passing for f in suite.failures)
        for failure in suite.failures:
            k, n = map(int, re.findall(r"\d+", failure.inputs))
            assert failure.expected == up_sets(k, n, grid_leq)
            assert failure.actual == up_sets(k, n, relation)

    @pytest.mark.parametrize(
        "relation, failing",
        [
            # lexicographic: wrong only where a grid has an incomparable pair
            (lambda a, b: a <= b, [(1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]),
            # reversed: wrong on every input
            (lambda a, b: grid_leq(b, a), [(k, n) for n in range(2, 5) for k in range(n)]),
        ],
        ids=["lexicographic", "reversed"],
    )
    def test_lawful_but_wrong_order_fails_verify(
        self, monkeypatch, capsys, relation, failing
    ):
        healthy = verify.check_grid_chains(4)
        monkeypatch.setattr("cobweb.gridposet.grid_leq", relation)
        suite = verify.check_grid_chains(4)
        assert suite.cases == healthy.cases
        assert {f.identity for f in suite.failures} == {GRID_ORDER}
        assert [f.inputs for f in suite.failures] == [f"(k, n) = {p}" for p in failing]
        assert cli.main(["verify", "--max-n", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("\nFAIL ") == len(failing)
        assert captured.err == ""

    def test_raising_order_relation_fails_verify_not_the_command_line(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr("cobweb.gridposet.grid_leq", boom)
        failures = [f for suite in verify.run_verify(4) for f in suite.failures]
        assert {f.identity for f in failures} == {GRID_ORDER}
        assert {f.actual for f in failures} == {"raised ArithmeticError: boom"}
        assert len(failures) == 9
        assert cli.main(["verify", "--max-n", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("\nFAIL ") == len(failures)
        assert "got raised ArithmeticError: boom\n" in captured.out
        assert captured.err == ""
