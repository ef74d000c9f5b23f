"""Exact layer combinatorics of cobweb posets.

Two graded poset families built over an admissible integer sequence F:
the interval poset of layer index pairs (componentwise order) and the
layered poset P(n, F) (an ordinal sum of antichains with F-binomial level
sizes).  Closed forms for sizes, Whitney/Bell-like numbers and maximal
chain counts are all validated against an embedded brute-force oracle.
All arithmetic is exact.
"""

from .gridposet import (
    catalan,
    grid_bell,
    grid_chain_count,
    grid_elements,
    grid_leq,
    grid_rank,
    grid_size,
    grid_whitney,
)
from .oracle import (
    ChainReport,
    HasseDiagram,
    ScaleLimitError,
    build_grid_hasse,
    build_pnf_hasse,
    count_maximal_chains,
    enumerate_maximal_chains,
    rank_level_counts,
)
from .pnfposet import (
    DEFAULT_POLICY,
    POLICIES,
    pnf_bell,
    pnf_bell_sequence,
    pnf_max_rank,
    pnf_whitney,
    pnf_whitney_vector,
)
from .sequences import (
    AdmissibilityError,
    FSequence,
    GcdCounterexample,
    GcdMorphicReport,
    NonIntegralError,
    f_binomial,
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
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "ChainReport",
    "DEFAULT_POLICY",
    "FSequence",
    "GcdCounterexample",
    "GcdMorphicReport",
    "HasseDiagram",
    "NonIntegralError",
    "POLICIES",
    "ScaleLimitError",
    "build_grid_hasse",
    "build_pnf_hasse",
    "catalan",
    "count_maximal_chains",
    "enumerate_maximal_chains",
    "f_binomial",
    "f_binomial_rows",
    "f_factorial",
    "fibonacci",
    "gaussian",
    "gcd_morphic_check",
    "gcd_morphic_family",
    "grid_bell",
    "grid_chain_count",
    "grid_elements",
    "grid_leq",
    "grid_rank",
    "grid_size",
    "grid_whitney",
    "lucas",
    "make_sequence",
    "naturals",
    "ones",
    "pnf_bell",
    "pnf_bell_sequence",
    "pnf_max_rank",
    "pnf_whitney",
    "pnf_whitney_vector",
    "rank_level_counts",
    "seq_eval",
]
