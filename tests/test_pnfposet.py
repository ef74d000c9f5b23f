"""Layered poset P(n, F): levels, Whitney census, Bell-like numbers."""

import tracemalloc

import pytest

from cobweb.oracle import layer_sizes
from cobweb.pnfposet import (
    pnf_bell,
    pnf_bell_sequence,
    pnf_max_rank,
    pnf_whitney,
    pnf_whitney_vector,
)
from cobweb.sequences import (
    AdmissibilityError,
    FSequence,
    NonIntegralError,
    f_binomial,
    fibonacci,
    gaussian,
    lucas,
    naturals,
    ones,
)

FIB = fibonacci()
NAT = naturals()
ONES = ones()


def brute_bell(seq, n, policy="include"):
    """The oracle's level sizes of P(n, F), summed."""
    top = n // 2 if policy == "include" else (n - 1) // 2
    return sum(layer_sizes(n, seq)[: top + 1])


class TestMaxRank:
    def test_odd_n_policy_agnostic(self):
        assert pnf_max_rank(5, "include") == 2
        assert pnf_max_rank(5, "exclude") == 2

    def test_even_n_boundary_level(self):
        assert pnf_max_rank(4, "include") == 2
        assert pnf_max_rank(4, "exclude") == 1

    def test_small_degrees(self):
        assert pnf_max_rank(1) == 0
        assert pnf_max_rank(2, "include") == 1
        assert pnf_max_rank(2, "exclude") == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            pnf_max_rank(0)
        with pytest.raises(ValueError):
            pnf_max_rank(4, "maybe")


class TestWhitney:
    def test_examples(self):
        assert pnf_whitney(4, 1, NAT) == 3
        assert pnf_whitney(6, 2, FIB) == 6
        assert pnf_whitney(5, 3, FIB) == 0  # empty layer, 5 - 2*3 < 0
        assert pnf_whitney(5, -1, FIB) == 0

    def test_levels_match_ratio_oracle(self):
        for seq in (FIB, NAT, ONES, gaussian(2)):
            for n in range(1, 21):
                assert pnf_whitney_vector(n, seq) == layer_sizes(n, seq)

    def test_degenerate_level_size_is_one(self):
        for seq in (FIB, NAT, gaussian(3)):
            for n in range(2, 21, 2):
                assert pnf_whitney(n, n // 2, seq, "include") == 1

    def test_excluded_boundary_is_zero(self):
        assert pnf_whitney(4, 2, NAT, "exclude") == 0
        assert pnf_whitney(4, 2, NAT, "include") == 1

    @pytest.mark.parametrize("k", [-1, 0, 9])
    def test_inputs_are_checked_at_every_rank(self, k):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            pnf_whitney(-5, k, FIB)
        with pytest.raises(ValueError, match="nonsense"):
            pnf_whitney(5, k, FIB, "nonsense")


class TestBell:
    def test_examples(self):
        assert pnf_bell(4, NAT, "include") == 5
        assert pnf_bell(4, NAT, "exclude") == 4
        assert pnf_bell(6, FIB, "include") == 13
        assert pnf_bell(5, ONES, "include") == 3

    def test_degree_zero_returns_one(self):
        assert pnf_bell(0, NAT) == 1
        assert pnf_bell(0, FIB, "exclude") == 1

    def test_negative_degree_is_rejected(self):
        with pytest.raises(ValueError, match=r"^poset degree must be >= 0, got -1$"):
            pnf_bell(-1, FIB)

    def test_equals_whitney_sum(self):
        for seq in (FIB, NAT, ONES, gaussian(2)):
            for n in range(1, 31):
                assert pnf_bell(n, seq) == sum(pnf_whitney_vector(n, seq))

    def test_matches_brute_force(self):
        for seq in (FIB, NAT, ONES, gaussian(2), gaussian(3)):
            for n in range(1, 26):
                for policy in ("include", "exclude"):
                    assert pnf_bell(n, seq, policy) == brute_bell(seq, n, policy)

    def test_policy_step(self):
        for seq in (FIB, NAT, ONES):
            for n in range(1, 31):
                step = pnf_bell(n, seq, "include") - pnf_bell(n, seq, "exclude")
                assert step == (1 if n % 2 == 0 else 0)

    def test_naturals_fibonacci_shift(self):
        fib = [1, 1]  # Fib(1), Fib(2)
        for n in range(1, 31):
            assert pnf_bell(n, NAT) == fib[-1]
            fib.append(fib[-1] + fib[-2])
        # and the Bell numbers themselves satisfy the two-step recurrence
        bells = [pnf_bell(n, NAT) for n in range(0, 31)]
        for n in range(2, 31):
            assert bells[n] == bells[n - 1] + bells[n - 2]

    def test_work_memory_holds_no_index_list(self):
        # the walk holds its n/2 + 1 entries and its value table, about 65 B
        # per n at n = 20000; a list of every (n, k) on the line takes 124
        n = 20000
        pnf_bell(10, ONES)  # warm-up: first-call caches are no part of the peak
        tracemalloc.start()
        try:
            bell = pnf_bell(n, ONES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bell == n // 2 + 1
        assert peak < 96 * n


class TestBellSequence:
    def test_naturals_sequence(self):
        assert pnf_bell_sequence(NAT, 6) == [1, 2, 3, 5, 8, 13]

    def test_ones_sequence(self):
        assert pnf_bell_sequence(ONES, 5) == [1, 2, 2, 3, 3]

    def test_fibonacci_sequence_recomputed_by_brute_force(self):
        # golden values frozen only after recomputation with the ratio oracle
        expected = [brute_bell(FIB, n) for n in range(1, 7)]
        assert expected == [1, 2, 2, 4, 6, 13]
        assert pnf_bell_sequence(FIB, 6) == expected

    def test_length_validation(self):
        with pytest.raises(ValueError):
            pnf_bell_sequence(NAT, 0)
        with pytest.raises(ValueError):
            pnf_bell_sequence(NAT, 5, "drop")

    @pytest.mark.parametrize("policy", ["include", "exclude"])
    def test_equals_bell_numbers_one_by_one(self, policy):
        for seq in (FIB, NAT, ONES, gaussian(2), gaussian(3)):
            for count in (1, 2, 3, 10, 25):
                assert pnf_bell_sequence(seq, count, policy) == [
                    pnf_bell(n, seq, policy) for n in range(1, count + 1)
                ]

    def test_naturals_to_60_are_shifted_fibonacci(self):
        fib = [0, 1]
        while len(fib) < 62:
            fib.append(fib[-1] + fib[-2])
        assert pnf_bell_sequence(NAT, 60) == fib[2:62]

    def test_lucas_prefix_before_first_non_integral_entry(self):
        # B_5 needs entries with m + k <= 5 only; (4 choose 2)_L first counts in B_6
        assert pnf_bell_sequence(lucas(), 5) == [1, 2, 4, 6, 12]
        with pytest.raises(NonIntegralError, match=r"^\(4 choose 2\)_F"):
            pnf_bell_sequence(lucas(), 6)

    def test_custom_sequences_evaluate_only_needed_indices(self):
        def no_zero_index(n):
            if n == 0:
                raise RuntimeError("F_0 must never be read")
            return n

        nozero = FSequence("nozero", no_zero_index)
        assert pnf_bell_sequence(nozero, 8) == pnf_bell_sequence(NAT, 8)
        assert pnf_whitney_vector(9, nozero) == [1, 8, 21, 20, 5]
        # B_1..B_10 never read F_10; the census of P(4, F) never reads F_2
        bad10 = FSequence("bad10", lambda n: 0 if n >= 10 else n)
        assert pnf_bell_sequence(bad10, 10) == pnf_bell_sequence(NAT, 10)
        with pytest.raises(AdmissibilityError, match="F_10 = 0"):
            pnf_bell_sequence(bad10, 11)
        bad2 = FSequence("bad2", lambda n: 0 if n == 2 else n)
        assert pnf_whitney_vector(4, bad2) == [1, 3, 1]
        with pytest.raises(AdmissibilityError, match="F_2 = 0"):
            pnf_whitney_vector(5, bad2)

    def test_census_skips_non_integral_intermediate_products(self):
        # F = 2, 1, 2, 1, ...: (4 choose 1)_F = 1/2, yet (4 choose 2)_F = 1
        alternating = FSequence("alternating", lambda n: 2 if n % 2 else 1)
        census = layer_sizes(6, alternating)
        assert pnf_whitney_vector(6, alternating) == census == [1, 1, 1, 1]
        assert [pnf_whitney(6, k, alternating) for k in range(4)] == census
        with pytest.raises(NonIntegralError, match=r"^\(4 choose 1\)_F .* step 1 "):
            f_binomial(alternating, 4, 1)
