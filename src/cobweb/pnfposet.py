"""The graded poset P(n, F): an ordinal sum of antichain levels.

For a sequence F, level k of P(n, F) is an antichain holding one element
per copy counted by the F-binomial (n-k choose k)_F; every element of
level k lies below every element of level k+1, and elements sharing a
level are incomparable.  Rank is the level index.

Levels exist for 0 <= k < n/2 always.  For even n the boundary level
k = n/2 is degenerate (it always has exactly one element, since
(n/2 choose n/2)_F = 1) and is controlled by a policy flag:

* ``"include"`` (default): keep the boundary level.  With F = naturals
  the Bell-like numbers then satisfy B_n = Fib(n+1).
* ``"exclude"``: drop it, so the top rank is ceil(n/2) - 1.

Whitney numbers of P(n, F) are the level sizes; the Bell-like number
B_n(F) is the total size, i.e. the diagonal F-binomial sum.  The census is
one walk down that diagonal (``f_binomial_diagonal``): W_0 = 1 and
W_1 = F_{n-1}/F_1, then

    W_{k+1} = W_k * F_{n-2k} F_{n-2k-1} / (F_{k+1} F_{n-k}),

about n/2 checked steps for the whole census, and F_n is never read.  It
fails at the first level that is not an integer, with the same error as
that level's ``pnf_whitney``.
"""

from .sequences import FSequence, f_binomial, f_binomial_diagonal, f_binomial_rows

POLICIES = ("include", "exclude")
DEFAULT_POLICY = "include"


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(f"degenerate-layer policy must be one of {POLICIES}, got {policy!r}")


def pnf_max_rank(n: int, policy: str = DEFAULT_POLICY) -> int:
    """Largest existing level index: floor(n/2) if including the boundary level."""
    if n < 1:
        raise ValueError(f"poset degree must be >= 1, got {n}")
    _check_policy(policy)
    return n // 2 if policy == "include" else (n - 1) // 2


def pnf_whitney(n: int, k: int, seq: FSequence, policy: str = DEFAULT_POLICY) -> int:
    """Number of elements at rank k: (n-k choose k)_F, or 0 beyond the top level."""
    top = pnf_max_rank(n, policy)  # first, so n and policy are checked for every k
    if not 0 <= k <= top:
        return 0
    return f_binomial(seq, n - k, k)


def pnf_whitney_vector(n: int, seq: FSequence, policy: str = DEFAULT_POLICY) -> list[int]:
    """The full rank census [W_0, ..., W_maxrank], one walk down the diagonal."""
    return f_binomial_diagonal(seq, (n, 0), (-1, 1), pnf_max_rank(n, policy) + 1)


def pnf_bell(n: int, seq: FSequence, policy: str = DEFAULT_POLICY) -> int:
    """Total size of P(n, F): the diagonal sum of F-binomials over its levels.

    n = 0 is the empty-poset convention and returns 1.
    """
    if n < 0:
        raise ValueError(f"poset degree must be >= 0, got {n}")
    _check_policy(policy)
    if n == 0:
        return 1
    return sum(pnf_whitney_vector(n, seq, policy))


def pnf_bell_sequence(
    seq: FSequence, count: int, policy: str = DEFAULT_POLICY
) -> list[int]:
    """[B_1(F), ..., B_count(F)].

    Sums the triangle along its diagonals: entry (m choose k)_F is level k
    of P(m + k, F).  Row m is kept only up to k = min(m, count - m), the
    entries some B_n with n <= count needs; the boundary entry k = m is
    dropped under the ``exclude`` policy.
    """
    if count < 1:
        raise ValueError(f"sequence length must be >= 1, got {count}")
    _check_policy(policy)
    bells = [0] * (count + 1)
    for m, row in enumerate(f_binomial_rows(seq, count, diagonal=count)):
        if policy == "exclude":
            row = row[:m]
        for k, entry in enumerate(row):
            bells[m + k] += entry
    return bells[1:]
