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
``--format json`` loads ``json``.  A document takes its object and format
from the parsed command, and its json ``params`` from the parsed options,
so re-running them reproduces the bytes; only ``verify`` passes its own
``params``, which name the sequences it ran.

Each command runs only its own layer modules, which the package registers
lazily: ``grid`` runs ``gridposet``; ``seq`` and ``fbinom`` ``sequences``;
``pnf`` and ``export`` ``sequences`` and ``pnfposet``; ``verify`` all five,
and ``cmd_verify`` imports ``verify_command`` (the ``--max-n`` limit and the
report) when it runs.  ``main`` takes the command from argv (the first
argument that does not start with ``-``) and runs its layers' bodies
first: compiling a layer after ``argparse`` left a larger heap behind, so
``fbinom --seq naturals --rows 124`` peaked at 14.61 MB of RSS against
14.34 MB with its layer compiled first (medians of 9, no bytecode cache).
A well-formed argv never imports ``argparse``: ``_read`` takes the
command's options from ``SUBCOMMANDS``, accepts only the argv shape on
which argparse's namespace is fully determined, and returns that
namespace.  Any other argv, help and every usage error go to
``_parser``, the parser built from the same ``SUBCOMMANDS``, which stays
the one source of help, usage lines and error text; a handler's
``ValueError`` or ``NonIntegralError`` builds it to report the error.  Where the command's
argument is not the first (``-5 grid``), ``_read`` declines it, and
argparse rejects the argv at the command, before any option counts.
``main`` reads each handler, and each handler its layer functions,
through their module bindings when called, so a rebinding (a test's, or
the benchmark's tracing wrappers) takes effect.
"""

import os
import sys
from itertools import zip_longest
from types import SimpleNamespace

from . import gridposet, oracle, pnfposet, sequences, verify

FORMATS = ("table", "csv", "json")


def _emit(args, values, labels=None, params=None, **keys):
    """Write ``args.command``'s document in ``args.format``, one row at a time.

    ``values`` is one row, or a function that returns a fresh iterator over
    the rows of a nested document.  A cell is an int, or a str where it is
    text (only in csv).  json adds ``keys`` after ``values``; its ``params``
    default to the parsed options, in declared order, without ``command``,
    ``format`` and the unset ones.  The rows are read twice: the first pass
    raises any error of the rows before a byte is written and finds each
    table column's width, the second converts each cell to decimal as its
    row is written, so one row's digits are held at a time.
    """
    fmt = args.format
    nested = callable(values)
    rows = values if nested else lambda: [values]
    widths = []  # a nested table's column maxima, then widths: no cell is negative
    for row in rows():
        if fmt == "table" and nested:
            widths = [*map(max, zip_longest(widths, row, fillvalue=0))]
    widths = [len(str(x)) for x in widths]
    write = sys.stdout.write
    if fmt == "json":  # json.dumps(doc) + "\n", in pieces; keys follow values
        import json

        if params is None:  # both parsers put options in declared order, whatever argv's
            params = {
                dest: str(v)
                for dest, v in vars(args).items()
                if dest not in ("command", "format") and v is not None
            }
        write(json.dumps({"object": args.command, "params": params, "values": None})[:-5])
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


def cmd_seq(args):
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    seq = sequences.make_sequence(args.seq, args.q)
    values = [sequences.seq_eval(seq, i) for i in range(1, args.count + 1)]
    _emit(args, values)
    return 0


def cmd_fbinom(args):
    if args.rows < 0:
        raise ValueError(f"--rows must be >= 0, got {args.rows}")
    seq = sequences.make_sequence(args.seq, args.q)
    _emit(args, lambda: sequences.f_binomial_rows(seq, args.rows))
    return 0


# --show name -> the quantity's cells; "all" shows every one, labeled
GRID_QUANTITIES = {
    "size": lambda k, n: [gridposet.grid_size(k, n)],
    "whitney": lambda k, n: gridposet.grid_whitney(k, n),
    "bell": lambda k, n: [gridposet.grid_bell(k, n)],
    "chains": lambda k, n: [gridposet.grid_chain_count(k, n)],
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


def cmd_grid(args):
    k, n = args.k, args.n
    gridposet.grid_size(k, n)  # bounds check: bad (k, n) is a usage error
    if args.show != "size" and k + n > GRID_CENSUS_LIMIT:
        raise ValueError(
            f"--show {args.show} takes k + n = {k + n}, over the limit "
            f"of {GRID_CENSUS_LIMIT}; only --show size has no limit"
        )
    if args.show == "all":
        labels = list(GRID_QUANTITIES)
        values = [GRID_QUANTITIES[name](k, n) for name in labels]
        _emit(args, lambda: values, labels)
    else:
        _emit(args, GRID_QUANTITIES[args.show](k, n))
    return 0


def cmd_pnf(args):
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    seq = sequences.make_sequence(args.seq, args.q)
    if args.show == "whitney":
        values = pnfposet.pnf_whitney_vector(args.n, seq, args.degenerate)
    else:
        values = [pnfposet.pnf_bell(args.n, seq, args.degenerate)]
    _emit(args, values)
    return 0


def cmd_verify(args):
    from .verify_command import run  # only verify compiles the report code

    return run(args)


def cmd_export(args):
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    seq = sequences.make_sequence(args.seq, args.q)
    if args.what == "bell":
        values = pnfposet.pnf_bell_sequence(seq, args.count)
    else:  # fbinom-diagonal: central column of the triangle
        values = sequences.f_binomial_diagonal(seq, (2, 1), (2, 1), args.count)
    try:
        with open(args.bfile, "w", encoding="ascii", newline="\n") as handle:
            handle.writelines(f"{i} {v}\n" for i, v in enumerate(values, 1))
    except OSError as exc:
        sys.stderr.write(f"cannot write b-file {args.bfile!r}: {exc}\n")
        return 3
    return 0


REQUIRED_INT = {"type": int, "required": True}
FORMAT_OPTION = ("--format", {"choices": FORMATS, "default": "table"})


def _seq_options():
    return [
        ("--seq", {"required": True, "choices": sequences.SEQUENCE_NAMES}),
        ("--q", {"type": int, "help": "base for --seq gauss"}),
    ]


# command -> (help, the layer modules it runs, its options); main builds
# the options of the command given only, after its layers have run
SUBCOMMANDS = {
    "seq": (
        "print F_1..F_N for a shipped sequence",
        (sequences,),
        lambda: [*_seq_options(), ("--count", REQUIRED_INT), FORMAT_OPTION],
    ),
    "fbinom": (
        "print F-binomial triangle rows 0..R",
        (sequences,),
        lambda: [*_seq_options(), ("--rows", REQUIRED_INT), FORMAT_OPTION],
    ),
    "grid": (
        "interval-poset quantities for (k, n)",
        (gridposet,),
        lambda: [
            ("--k", REQUIRED_INT),
            ("--n", REQUIRED_INT),
            ("--show", {"choices": (*GRID_QUANTITIES, "all"), "default": "all"}),
            FORMAT_OPTION,
        ],
    ),
    "pnf": (
        "layered-poset quantities for (n, F)",
        (sequences, pnfposet),
        lambda: [
            *_seq_options(),
            ("--n", REQUIRED_INT),
            ("--show", {"choices": ("whitney", "bell"), "default": "bell"}),
            ("--degenerate", {"choices": pnfposet.POLICIES, "default": "include"}),
            FORMAT_OPTION,
        ],
    ),
    "verify": (
        "run every closed-form-vs-oracle suite up to a scale",
        (sequences, pnfposet, gridposet, oracle, verify),
        lambda: [
            ("--max-n", REQUIRED_INT),
            ("--seq", {
                "help": f"comma-separated subset of {','.join(sequences.GCD_MORPHIC_SPECS)}",
            }),
            FORMAT_OPTION,
        ],
    ),
    "export": (
        "write a sequence as an OEIS b-file",
        (sequences, pnfposet),
        lambda: [
            ("--what", {"choices": ("bell", "fbinom-diagonal"), "required": True}),
            *_seq_options(),
            ("--count", REQUIRED_INT),
            ("--bfile", {"required": True, "help": "output path"}),
        ],
    ),
}


def _read(command, argv):
    """The namespace argparse parses from ``argv``, read from ``SUBCOMMANDS``, or None.

    Reads one shape only: ``command``, then distinct declared flags, each
    exact and followed by a value that does not start with ``-``; each
    value converts by its ``type`` and is one of its ``choices``, and every
    required flag is given.  On that shape argparse's namespace is fully
    determined: ``command``, then each option's dest in declared order,
    holding the value given or its default.  Any other argv, including
    every one that asks for help or has an error, is argparse's.
    """
    given = dict(zip(argv[1::2], argv[2::2]))
    # the command first, then distinct flags, each followed by a value
    if command not in SUBCOMMANDS or argv[0] != command or argv[1::2] != [*given]:
        return None
    args = SimpleNamespace(command=command)
    try:
        for flag, keywords in SUBCOMMANDS[command][2]():
            value = keywords.get("default")
            if flag in given:
                text = given.pop(flag)
                value = keywords.get("type", str)(text)
                if text[:1] == "-" or value not in keywords.get("choices", [value]):
                    raise ValueError
            elif keywords.get("required"):
                raise ValueError
            setattr(args, flag[2:].replace("-", "_"), value)
    except ValueError:  # declined: argparse words the error
        return None
    return None if given else args


def _parser(command):
    """The argparse parser, with ``command``'s options: help, usage and errors."""
    import argparse  # after the layers: see the module docstring

    parser = argparse.ArgumentParser(
        prog="cobweb",
        description="Exact layer combinatorics of cobweb posets.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (about, _, options) in SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=about)
        if name == command:
            for flag, keywords in options():
                sub.add_argument(flag, **keywords)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    for module in SUBCOMMANDS[command][1] if command in SUBCOMMANDS else ():
        module.__name__  # the first attribute read runs a lazily registered body
    args = _read(command, argv) or _parser(command).parse_args(argv)
    if sys.stdout is None:  # fd 1 was closed at start: as a closed pipe, exit 3
        return 3
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # answers are printed whole, however long
    try:
        code = globals()[f"cmd_{args.command}"](args)  # read now: a patched handler runs
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader left: exit 3, no traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3
    except ValueError as exc:  # its own clause: a grid usage error never loads sequences
        error = exc
    except sequences.NonIntegralError as exc:
        error = exc
    finally:
        sys.set_int_max_str_digits(digit_limit)
    _parser(command).error(str(error))  # every other path has returned


if __name__ == "__main__":
    sys.exit(main())
