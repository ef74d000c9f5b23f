"""Command-line front end.

Subcommands: ``seq`` (sequence values), ``fbinom`` (generalized binomial
triangle), ``grid`` (interval-poset quantities), ``pnf`` (layered-poset
quantities), ``verify`` (oracle cross-check suites), ``export`` (OEIS
b-file writer).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
A handler rejects bad input by raising ``ValueError`` (or ``NonIntegralError``
when the requested quantity does not exist for the sequence); ``main`` alone
turns either into a usage error naming the cause, exit 2.
Integers cross the output boundary as decimal strings at every magnitude:
the subcommand runs with Python's int-to-str digit limit lifted, while
integers parsed from the command line keep the interpreter's default limit.

``_emit`` writes every document but verify's table one row at a time, and
converts each cell to decimal as its row is written: it reads the rows of
a nested document twice, first to raise any error before a byte is written
and to size the table's columns, then to write.  So ``fbinom`` holds one
row of the F-binomial triangle, never the whole triangle.  Only
``--format json`` loads ``json``.  Only ``verify`` loads the oracle, the
verify suites and ``verify_command`` (the ``--max-n`` limit and the report):
``cmd_verify`` imports ``verify_command`` when it runs, and the package
registers the other two lazily, so their bodies run on the first
attribute read.
"""

from __future__ import annotations

import argparse
import os
import sys

from .gridposet import grid_bell, grid_chain_count, grid_size, grid_whitney
from .pnfposet import POLICIES, pnf_bell, pnf_bell_sequence, pnf_whitney_vector
from .sequences import (
    GCD_MORPHIC_SPECS,
    SEQUENCE_NAMES,
    NonIntegralError,
    f_binomial_diagonal,
    f_binomial_rows,
    make_sequence,
    seq_eval,
)

FORMATS = ("table", "csv", "json")


def _emit(
    kind: str,
    params: dict[str, str],
    values,
    fmt: str,
    labels: list[str] | None = None,
    **keys,
) -> None:
    """Write a document one row at a time; json adds ``keys`` after ``values``.

    ``values`` is one row, or a function that returns a fresh iterator over
    the rows of a nested document.  A cell is an int, or a str where it is
    text (only in csv).  The rows are read twice: the first pass raises any
    error of the rows before a byte is written and finds each table
    column's width, the second converts each cell to decimal as its row is
    written, so one row's digits are held at a time.
    """
    nested = callable(values)
    rows = values if nested else lambda: [values]
    widths = []  # a nested table's column maxima, then widths: no cell is negative
    for row in rows():
        if fmt == "table" and nested:
            widths = [*map(max, widths, row), *widths[len(row) :], *row[len(widths) :]]
    widths = [len(str(x)) for x in widths]
    write = sys.stdout.write
    if fmt == "json":  # json.dumps(doc) + "\n", in pieces; keys follow values
        import json

        write(json.dumps({"object": kind, "params": params, "values": None})[:-5])
        for i, row in enumerate(rows()):  # decimal cells need no escaping
            write(', ["' if i else "[" * nested + '["')
            write('", "'.join(map(str, row)))
            write('"]')
        write("]" * nested + ", " * bool(keys) + json.dumps(keys)[1:] + "\n")
    elif fmt == "csv":  # unquoted: no cell is empty or has a comma, quote or newline
        for row in rows():
            write(",".join(map(str, row)) + "\n")
    else:  # labels left-, cells right-justified; one row needs no padding
        for i, row in enumerate(rows()):
            label = [labels[i].ljust(max(map(len, labels)))] if labels else []
            cells = map(str.rjust, map(str, row), widths) if nested else map(str, row)
            write(" ".join([*label, *cells]).rstrip() + "\n")


def _seq_params(args) -> dict[str, str]:
    params = {"seq": args.seq}
    if args.q is not None:
        params["q"] = str(args.q)
    return params


def cmd_seq(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    seq = make_sequence(args.seq, args.q)
    values = [seq_eval(seq, i) for i in range(1, args.count + 1)]
    _emit("seq", _seq_params(args) | {"count": str(args.count)}, values, args.format)
    return 0


def cmd_fbinom(args) -> int:
    if args.rows < 0:
        raise ValueError(f"--rows must be >= 0, got {args.rows}")
    seq = make_sequence(args.seq, args.q)
    params = _seq_params(args) | {"rows": str(args.rows)}
    _emit("fbinom", params, lambda: f_binomial_rows(seq, args.rows), args.format)
    return 0


# --show name -> the quantity's cells; "all" shows every one, labeled
GRID_QUANTITIES = {
    "size": lambda k, n: [grid_size(k, n)],
    "whitney": lambda k, n: grid_whitney(k, n),  # the name is looked up per call
    "bell": lambda k, n: [grid_bell(k, n)],
    "chains": lambda k, n: [grid_chain_count(k, n)],
}


# Largest k + n for every --show value but size.  whitney, bell and all
# build the rank census, a list of k + n numbers (bell sums it): at the
# limit --show whitney takes 0.3-0.45 s and 48-49 MB of peak RSS in every
# format (the census, and each cell's decimal string while the row is
# written), and cost grows linearly beyond it (2.8-3.8 s and 355-364 MB at
# 3*10^6, a MemoryError at 3*10^8).  chains computes and prints
# comb(n + k - 1, k), superlinear in k + n: 0.5-0.9 s at k + n = 300000,
# 7.5 s at 10^6.  size is O(1).
GRID_CENSUS_LIMIT = 300_000


def cmd_grid(args) -> int:
    grid_size(args.k, args.n)  # bounds check: bad (k, n) is a usage error
    if args.show != "size" and args.k + args.n > GRID_CENSUS_LIMIT:
        raise ValueError(
            f"--show {args.show} takes k + n = {args.k + args.n}, over the limit "
            f"of {GRID_CENSUS_LIMIT}; only --show size has no limit"
        )
    params = {"k": str(args.k), "n": str(args.n), "show": args.show}
    if args.show == "all":
        labels = list(GRID_QUANTITIES)
        values = [GRID_QUANTITIES[name](args.k, args.n) for name in labels]
        _emit("grid", params, lambda: values, args.format, labels)
    else:
        _emit("grid", params, GRID_QUANTITIES[args.show](args.k, args.n), args.format)
    return 0


def cmd_pnf(args) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    seq = make_sequence(args.seq, args.q)
    params = _seq_params(args) | {
        "n": str(args.n),
        "show": args.show,
        "degenerate": args.degenerate,
    }
    if args.show == "whitney":
        values = pnf_whitney_vector(args.n, seq, args.degenerate)
    else:
        values = [pnf_bell(args.n, seq, args.degenerate)]
    _emit("pnf", params, values, args.format)
    return 0


def cmd_verify(args) -> int:
    from .verify_command import run  # only verify compiles the report code

    return run(args)


def cmd_export(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    seq = make_sequence(args.seq, args.q)
    if args.what == "bell":
        values = pnf_bell_sequence(seq, args.count)
    else:  # fbinom-diagonal: central column of the triangle
        values = f_binomial_diagonal(seq, (2, 1), (2, 1), args.count)
    try:
        with open(args.bfile, "w", encoding="ascii", newline="\n") as handle:
            handle.writelines(f"{i} {v}\n" for i, v in enumerate(values, start=1))
    except OSError as exc:
        sys.stderr.write(f"cannot write b-file {args.bfile!r}: {exc}\n")
        return 3
    return 0


def _add_seq_options(sub) -> None:
    sub.add_argument("--seq", required=True, choices=SEQUENCE_NAMES)
    sub.add_argument("--q", type=int, default=None, help="base for --seq gauss")


def _add_format_option(sub) -> None:
    sub.add_argument("--format", choices=FORMATS, default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Exact layer combinatorics of cobweb posets.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")

    sub = subparsers.add_parser("seq", help="print F_1..F_N for a shipped sequence")
    _add_seq_options(sub)
    sub.add_argument("--count", type=int, required=True)
    _add_format_option(sub)
    sub.set_defaults(handler=cmd_seq)

    sub = subparsers.add_parser("fbinom", help="print F-binomial triangle rows 0..R")
    _add_seq_options(sub)
    sub.add_argument("--rows", type=int, required=True)
    _add_format_option(sub)
    sub.set_defaults(handler=cmd_fbinom)

    sub = subparsers.add_parser("grid", help="interval-poset quantities for (k, n)")
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument(
        "--show",
        choices=(*GRID_QUANTITIES, "all"),
        default="all",
    )
    _add_format_option(sub)
    sub.set_defaults(handler=cmd_grid)

    sub = subparsers.add_parser("pnf", help="layered-poset quantities for (n, F)")
    _add_seq_options(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--show", choices=("whitney", "bell"), default="bell")
    sub.add_argument("--degenerate", choices=POLICIES, default="include")
    _add_format_option(sub)
    sub.set_defaults(handler=cmd_pnf)

    sub = subparsers.add_parser(
        "verify", help="run every closed-form-vs-oracle suite up to a scale"
    )
    sub.add_argument("--max-n", type=int, required=True, dest="max_n")
    sub.add_argument(
        "--seq",
        default=None,
        help=f"comma-separated subset of {','.join(GCD_MORPHIC_SPECS)}",
    )
    _add_format_option(sub)
    sub.set_defaults(handler=cmd_verify)

    sub = subparsers.add_parser("export", help="write a sequence as an OEIS b-file")
    sub.add_argument("--what", choices=("bell", "fbinom-diagonal"), required=True)
    _add_seq_options(sub)
    sub.add_argument("--count", type=int, required=True)
    sub.add_argument("--bfile", required=True, help="output path")
    sub.set_defaults(handler=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if sys.stdout is None:  # fd 1 was closed at start: as a closed pipe, exit 3
        return 3
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # answers are printed whole, however long
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (ValueError, NonIntegralError) as exc:
        parser.error(str(exc))
    except BrokenPipeError:  # the reader left: exit 3, no traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
