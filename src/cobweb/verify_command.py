"""The ``verify`` subcommand: scale guard, suite run and report.

``cli.cmd_verify`` imports this module when it runs, so only ``verify``
compiles the report code; the other subcommands start without it.  The
environment variable ``COBWEB_SCALE_LIMIT`` overrides the oracle's
top-index scale guard.  The table report is one line per suite, then a
``FAIL`` line per failure and the totals; csv and json go through
``cli._emit``.
"""

from __future__ import annotations

import os
import sys

from . import oracle, verify
from .cli import _emit


def _scale_limit() -> int:
    raw = os.environ.get("COBWEB_SCALE_LIMIT")
    if raw is None:
        return oracle.DEFAULT_MAX_INDEX
    try:
        return int(raw)
    except ValueError:
        message = f"COBWEB_SCALE_LIMIT must be an integer, got {raw!r}"
        raise ValueError(message) from None


def run(args) -> int:
    """Check the scale guard, run the suites and write their report."""
    if args.max_n < 2:
        raise ValueError(f"--max-n must be >= 2, got {args.max_n}")
    limit = _scale_limit()
    if args.max_n > limit:
        raise ValueError(
            f"--max-n {args.max_n} exceeds the scale guard {limit}; "
            f"set COBWEB_SCALE_LIMIT to go further"
        )
    tokens = args.seq.split(",") if args.seq is not None else None
    suites = verify.run_verify(args.max_n, tokens)
    cases = sum(suite.cases for suite in suites)
    failures = [failure for suite in suites for failure in suite.failures]
    params = {
        "max_n": str(args.max_n),
        "seqs": ",".join(tokens if tokens else verify.DEFAULT_VERIFY_SEQS),
    }
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
    if args.format == "json":
        fields = ("name", "cases", "failed", "seconds", "skipped")
        keys = {"suites": [dict(zip(fields, row)) for row in rows]}
        _emit("verify", params, totals, args.format, **keys)
    else:  # csv: the totals row, then name,cases,failed,seconds,skipped per suite
        _emit("verify", params, lambda: [totals, *rows], args.format)
    return 1 if failures else 0
