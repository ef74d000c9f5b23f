"""The ``verify`` subcommand: the ``--max-n`` limit, the suite run and the report.

``cli.cmd_verify`` imports this module when it runs, so only ``verify``
compiles the report code; the other subcommands start without it.
``--max-n`` runs from 2 to ``VERIFY_MAX_N_LIMIT``, set from a 0.6 s budget
for the whole process (README, "Scale guards").  The table report is one
line per suite, then a ``FAIL`` line per failure and the totals; csv and
json go through ``cli._emit``.
"""

import sys

from . import verify
from .cli import _emit

VERIFY_MAX_N_LIMIT = 48


def run(args) -> int:
    """Check ``--max-n``, run the suites and write their report."""
    if args.max_n < 2:
        raise ValueError(f"--max-n must be >= 2, got {args.max_n}")
    if args.max_n > VERIFY_MAX_N_LIMIT:
        raise ValueError(f"--max-n {args.max_n} exceeds the limit of {VERIFY_MAX_N_LIMIT}")
    tokens = args.seq.split(",") if args.seq is not None else None
    suites = verify.run_verify(args.max_n, tokens)
    cases = sum(suite.cases for suite in suites)
    failures = [failure for suite in suites for failure in suite.failures]
    if args.format == "table":
        for suite in suites:
            line = f"{suite.name}: {suite.cases} checks, {len(suite.failures)} failed"
            if suite.skipped:
                line += f", {suite.skipped} skipped (scale guard)"
            sys.stdout.write(f"{line} in {suite.seconds:.2f} s\n")
        for failure in failures:
            sys.stdout.write(
                f"FAIL {failure.identity} at {failure.inputs}: "
                f"expected {failure.expected}, got {failure.actual}\n"
            )
        sys.stdout.write(f"checks {cases}\nfailures {len(failures)}\n")
        return 1 if failures else 0
    totals = [cases, len(failures)]
    # json keys hold text; skipped stays the last field, where consumers read it
    rows = [
        [s.name, str(s.cases), str(len(s.failures)), f"{s.seconds:.3f}", str(s.skipped)]
        for s in suites
    ]
    if args.format == "json":  # params name the sequences run: seqs is not an option
        fields = ("name", "cases", "failed", "seconds", "skipped")
        seqs = ",".join(tokens if tokens else verify.DEFAULT_VERIFY_SEQS)
        params = {"max_n": str(args.max_n), "seqs": seqs}
        _emit(args, totals, params=params, suites=[dict(zip(fields, row)) for row in rows])
    else:  # csv: the totals row, then name,cases,failed,seconds,skipped per suite
        _emit(args, lambda: [totals, *rows])
    return 1 if failures else 0
