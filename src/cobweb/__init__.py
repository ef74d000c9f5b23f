"""Exact layer combinatorics of cobweb posets.

Two graded poset families built over an admissible integer sequence F:
the interval poset of layer index pairs (componentwise order) and the
layered poset P(n, F) (an ordinal sum of antichains with F-binomial level
sizes).  Closed forms for sizes, Whitney/Bell-like numbers and maximal
chain counts are all validated against an embedded brute-force oracle.
All arithmetic is exact.

Importing the package runs none of its modules.  The five submodules
``sequences``, ``pnfposet``, ``gridposet``, ``oracle`` and ``verify`` are
registered lazily (``importlib.util.LazyLoader``): each is in ``sys.modules``
from the start, and its body runs on the first read of one of its
attributes.  Every name in ``__all__`` resolves through the module
``__getattr__``, so ``cobweb.fibonacci`` loads ``sequences`` then, and
``from cobweb import *`` loads every submodule at once.  A command-line
subcommand loads only the submodules it runs (see ``cobweb.cli``).
``LazyLoader`` takes no lock for that first load on Python 3.11 or 3.12.1
(3.13's does), so a program that first uses a submodule from several
threads at once should touch it (``cobweb.oracle``, say) once before
starting them.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy_submodule(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)  # defers the body to the first attribute access
    return module


sequences = _lazy_submodule("sequences")
pnfposet = _lazy_submodule("pnfposet")
gridposet = _lazy_submodule("gridposet")
oracle = _lazy_submodule("oracle")
verify = _lazy_submodule("verify")

_HOMES = {  # each exported name -> the submodule that defines it, in ASCII sort order
    "AdmissibilityError": sequences,
    "ChainReport": oracle,
    "DEFAULT_POLICY": pnfposet,
    "FSequence": sequences,
    "GcdCounterexample": sequences,
    "GcdMorphicReport": sequences,
    "HasseDiagram": oracle,
    "NonIntegralError": sequences,
    "POLICIES": pnfposet,
    "ScaleLimitError": oracle,
    "build_grid_hasse": oracle,
    "catalan": gridposet,
    "count_maximal_chains": oracle,
    "enumerate_maximal_chains": oracle,
    "f_binomial": sequences,
    "f_binomial_rows": sequences,
    "f_factorial": sequences,
    "fibonacci": sequences,
    "gaussian": sequences,
    "gcd_morphic_check": sequences,
    "gcd_morphic_family": sequences,
    "grid_bell": gridposet,
    "grid_chain_count": gridposet,
    "grid_elements": gridposet,
    "grid_leq": gridposet,
    "grid_rank": gridposet,
    "grid_size": gridposet,
    "grid_whitney": gridposet,
    "lucas": sequences,
    "make_sequence": sequences,
    "naturals": sequences,
    "ones": sequences,
    "pnf_bell": pnfposet,
    "pnf_bell_sequence": pnfposet,
    "pnf_max_rank": pnfposet,
    "pnf_whitney": pnfposet,
    "pnf_whitney_vector": pnfposet,
    "rank_level_counts": oracle,
    "seq_eval": sequences,
}
__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(_HOMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
