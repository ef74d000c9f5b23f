"""Exact layer combinatorics of cobweb posets.

Two graded poset families built over an admissible integer sequence F:
the interval poset of layer index pairs (componentwise order) and the
layered poset P(n, F) (an ordinal sum of antichains with F-binomial level
sizes).  Closed forms for sizes, Whitney/Bell-like numbers and maximal
chain counts are all validated against an embedded brute-force oracle.
All arithmetic is exact.

Importing the package runs only the closed-form modules.  The submodules
``oracle`` and ``verify`` are registered lazily (``importlib.util.LazyLoader``):
``cobweb.oracle`` and ``cobweb.verify`` are in ``sys.modules`` from the start,
and a module's body runs on the first access to one of its attributes.  The
oracle names in ``__all__`` resolve through the module ``__getattr__``, so
``cobweb.build_grid_hasse`` or ``from cobweb import *`` loads the oracle
then, and a command-line subcommand other than ``verify`` never does.
Python 3.11's ``LazyLoader`` takes no lock for that first load, so a
program that first uses the oracle from several threads at once should
touch ``cobweb.oracle`` once before starting them.
"""

import importlib.util
import sys

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


def _lazy_submodule(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # defers the body to the first attribute access
    return module


oracle = _lazy_submodule("oracle")
verify = _lazy_submodule("verify")


def __getattr__(name: str):
    # every name in __all__ that is not bound above is one of the oracle's
    if name in __all__:
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [  # in ASCII sort order
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
