"""Seeded op lists for the four workloads, each op with its expected result.

An op is one ``cobweb`` command line.  Parameters are drawn from bands
around fixed centres, one draw per slot, so different seeds give different
inputs while the total work of a pass stays nearly the same.  Expected
results come from ``reference``, never from the library under test.

Workloads (the names other documents use):

* ``triangle``: dense F-binomial rows and Bell b-files.  Nearly all time is
  in ``sequences``/``pnfposet`` and in rendering megabytes of output.
* ``lookup``: one answer each at a large index, many short processes, so
  interpreter start-up is a large share.  Three ops have answers longer
  than 4300 digits and two are negative controls that must fail with a
  usage error.
* ``grid``: the interval poset at large (k, n), one op per ``--show``
  value.  ``gridposet`` dominates time and peak memory.
* ``verify``: the oracle cross-check suites.  ``oracle``/``verify``
  dominate time and memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import reference

FORMATS = ("table", "csv", "json")
BFILE = "{bfile}"  # replaced by the path the runner chooses for b-files
VERIFY_TOKENS = ("fib", "naturals", "ones", "gauss2", "gauss3")
INT_STR_LIMIT = 4300  # Python's default int-to-str digit limit


@dataclass
class Op:
    """One command line and what a correct run of it produces.

    ``kind`` is ``values`` (stdout rows), ``bfile`` (b-file text, empty
    stdout), ``verify`` (exit 0 and zero failures) or ``usage`` (exit 2 with
    ``expected`` in stderr).
    """

    argv: list[str]
    kind: str
    expected: object = None
    fmt: str = "table"
    max_digits: int = 0

    @property
    def big(self) -> bool:
        """The answer has an integer longer than the default int-to-str limit."""
        return self.max_digits > INT_STR_LIMIT


def _seq_args(name: str) -> list[str]:
    if name == "gauss2":
        return ["--seq", "gauss", "--q", "2"]
    return ["--seq", name]


def _digits(numbers) -> int:
    return max((len(str(x)) for x in numbers), default=0)


def _values(argv: list[str], rows: list[list[int]], fmt: str, labels=None) -> Op:
    text_rows = [[str(x) for x in row] for row in rows]
    if fmt == "table" and labels:
        text_rows = [[label, *row] for label, row in zip(labels, text_rows)]
    digits = _digits(x for row in rows for x in row)
    return Op(argv + ["--format", fmt], "values", text_rows, fmt, digits)


def _bfile(argv: list[str], numbers: list[int]) -> Op:
    text = "".join(f"{i} {v}\n" for i, v in enumerate(numbers, start=1))
    return Op(argv + ["--bfile", BFILE], "bfile", text, max_digits=_digits(numbers))


def _fbinom(name: str, last_row: int, fmt: str) -> Op:
    argv = ["fbinom", *_seq_args(name), "--rows", str(last_row)]
    return _values(argv, reference.triangle(name, last_row), fmt)


def _seq(name: str, count: int, fmt: str) -> Op:
    argv = ["seq", *_seq_args(name), "--count", str(count)]
    return _values(argv, [reference.values(name, count)[1:]], fmt)


def _pnf(name: str, n: int, show: str, fmt: str) -> Op:
    argv = ["pnf", *_seq_args(name), "--n", str(n), "--show", show]
    answer = reference.whitney(name, n) if show == "whitney" else [reference.bell(name, n)]
    return _values(argv, [answer], fmt)


def _export(what: str, name: str, count: int) -> Op:
    argv = ["export", "--what", what, *_seq_args(name), "--count", str(count)]
    if what == "bell":
        return _bfile(argv, reference.bell_sequence(name, count))
    return _bfile(argv, reference.central_column(name, count))


def triangle(rng: random.Random) -> list[Op]:
    # each sequence gets the same three row bounds, in a seeded order over the
    # formats: fbinom cost grows like rows^3, so a free draw per op would
    # move the pass time by more than the benchmark's bound
    ops = []
    for name, centre, step in (("fib", 72, 3), ("gauss2", 64, 3), ("naturals", 124, 6)):
        bounds = [centre - step, centre, centre + step]
        rng.shuffle(bounds)
        for fmt, last_row in zip(FORMATS, bounds):
            ops.append(_fbinom(name, last_row, fmt))
    ops.append(_export("bell", "naturals", rng.randint(150, 160)))
    ops.append(_export("bell", "fib", rng.randint(80, 86)))
    return ops


def lookup(rng: random.Random) -> list[Op]:
    def fmt() -> str:
        return rng.choice(FORMATS)

    return [
        _pnf("fib", rng.randint(200, 220), "bell", fmt()),
        _pnf("fib", rng.randint(200, 220), "whitney", fmt()),
        _pnf("naturals", rng.randint(900, 1000), "bell", fmt()),
        _pnf("naturals", rng.randint(500, 560), "whitney", fmt()),
        _pnf("gauss2", rng.randint(150, 170), "bell", fmt()),
        _pnf("gauss2", rng.randint(150, 170), "whitney", fmt()),
        _pnf("ones", rng.randint(300, 340), "bell", fmt()),
        _pnf("ones", rng.randint(300, 340), "whitney", fmt()),
        _export("fbinom-diagonal", "fib", rng.randint(100, 120)),
        _export("fbinom-diagonal", "naturals", rng.randint(300, 340)),
        _export("fbinom-diagonal", "gauss2", rng.randint(80, 100)),
        _seq("fib", rng.randint(800, 1000), fmt()),
        _seq("gauss2", rng.randint(800, 1000), fmt()),
        _seq("naturals", rng.randint(800, 1000), fmt()),
        # answers over 4300 digits, beyond Python's default int-to-str limit
        _pnf("fib", rng.randint(440, 450), "bell", fmt()),
        _export("fbinom-diagonal", "fib", rng.randint(150, 160)),
        _export("fbinom-diagonal", "gauss2", rng.randint(125, 135)),
        # negative controls: each must exit 2 naming the cause
        Op(["fbinom", "--seq", "lucas", "--rows", str(rng.randint(4, 40))],
           "usage", "(4 choose 2)"),
        _missing_q(rng),
    ]


def _missing_q(rng: random.Random) -> Op:
    tails = (
        ["seq", "--seq", "gauss", "--count", str(rng.randint(1, 50))],
        ["fbinom", "--seq", "gauss", "--rows", str(rng.randint(1, 50))],
        ["pnf", "--seq", "gauss", "--n", str(rng.randint(1, 50))],
    )
    return Op(list(rng.choice(tails)), "usage", "requires the base parameter q")


GRID_CENTRES = (240, 280, 320, 360, 400)
GRID_SHOWS = ("size", "whitney", "bell", "chains", "all")


def grid(rng: random.Random) -> list[Op]:
    shows = list(GRID_SHOWS)
    rng.shuffle(shows)
    ops = []
    for centre, show in zip(GRID_CENTRES, shows):
        k = centre + rng.randint(-3, 3)
        n = 2 * k + rng.randint(0, 12)
        census = reference.grid_whitney(k, n)
        quantities = {
            "size": [reference.grid_size(k, n)],
            "whitney": census,
            "bell": [sum(census)],
            "chains": [reference.grid_chains(k, n)],
        }
        argv = ["grid", "--k", str(k), "--n", str(n), "--show", show]
        if show == "all":
            ops.append(_values(argv, list(quantities.values()), rng.choice(FORMATS),
                               labels=list(quantities)))
        else:
            ops.append(_values(argv, [quantities[show]], rng.choice(FORMATS)))
    return ops


def verify(rng: random.Random) -> list[Op]:
    subset = rng.sample(VERIFY_TOKENS, rng.randint(2, 3))
    plans = (
        ["--max-n", "12"],
        ["--max-n", "9", "--seq", ",".join(VERIFY_TOKENS)],
        ["--max-n", "6", "--seq", ",".join(subset)],
    )
    return [
        Op(["verify", *plan, "--format", fmt], "verify", fmt=fmt)
        for plan, fmt in zip(plans, rng.sample(FORMATS, 3))
    ]


WORKLOADS = {"triangle": triangle, "lookup": lookup, "grid": grid, "verify": verify}


def build(name: str, seed: int) -> list[Op]:
    """The op list of one workload for one seed, in a seeded order."""
    rng = random.Random(f"{name}:{seed}")
    with reference.unlimited_int_digits():
        ops = WORKLOADS[name](rng)
    rng.shuffle(ops)
    return ops
