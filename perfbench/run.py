"""End-to-end benchmark of the cobweb command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload triangle --seed 1 --seconds 20 --trace 0

With ``--trace 0`` one client runs the workload's ops as fresh
``python -m cobweb`` processes, one at a time (a closed loop), and reports
the end-to-end metrics.  Each op is timed from spawn to exit, when its
stdout and b-file are fully written; its peak RSS comes from ``wait4`` on
that one child (see ``launch.py``).  Times are scaled to a reference machine
speed by a calibration process that runs next to the ops (see ``measure``).
A first pass checks every output against ``reference`` and warms the
bytecode cache; timed passes then repeat until ``--seconds`` have passed and
must reproduce the checked bytes.

With ``--trace 1`` the same ops run in this process through
``cobweb.cli.main`` with tracing wrappers around every layer (see
``tracing.py``) and the per-layer metrics are reported.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An op fails on a wrong exit
code, a traceback, a timeout or a wrong output; ``correct`` turns false
only when an op delivers a wrong answer (a wrong output, a verification
failure, or a negative control that succeeds).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

OP_TIMEOUT_S = 60.0
PROBE_ARGV = ["seq", "--seq", "ones", "--count", "1"]
# A fixed Python process that does not touch cobweb, and the time it takes
# on the reference machine speed that reported times are scaled to.
CALIBRATION = [sys.executable, "-I", "-c", "x = 0\nfor i in range(200000):\n    x += i * i"]
CALIBRATION_REFERENCE_S = 0.1


@dataclass
class Outcome:
    seconds: float
    rss_kb: int
    rc: int
    stdout: bytes
    stderr: bytes
    bfile: bytes | None
    timed_out: bool

    @property
    def key(self) -> tuple:
        """Everything an op's verdict depends on."""
        return self.rc, self.stdout, self.stderr, self.bfile


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs ``python -m cobweb <argv>`` children through ``launch.py``."""

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def _spawn(self, argv: list[str], stdout: Path, stderr: Path) -> list:
        request = [argv, str(stdout), str(stderr), OP_TIMEOUT_S]
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def calibrate(self) -> float:
        """Seconds the calibration process takes right now."""
        seconds, _, rc, _ = self._spawn(CALIBRATION, Path(os.devnull), Path(os.devnull))
        if rc != 0:
            raise RuntimeError(f"calibration process exited with {rc}")
        return seconds

    def run(self, argv: list[str]) -> Outcome:
        out_path, err_path, bfile = WORK / "stdout", WORK / "stderr", WORK / "bfile"
        bfile.unlink(missing_ok=True)
        argv = [str(bfile) if a == workloads.BFILE else a for a in argv]
        seconds, rss_kb, rc, timed_out = self._spawn(
            [sys.executable, "-m", "cobweb", *argv], out_path, err_path
        )
        return Outcome(
            seconds,
            rss_kb,
            rc,
            out_path.read_bytes(),
            err_path.read_bytes(),
            bfile.read_bytes() if bfile.exists() else None,
            timed_out,
        )


def parse_rows(text: str, fmt: str) -> list[list[str]]:
    """Cells of a rendered ``values`` document, row by row."""
    if fmt == "json":
        values = json.loads(text)["values"]
        return values if values and isinstance(values[0], list) else [values]
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))
    return [line.split() for line in text.splitlines()]


def verify_failures(text: str, fmt: str) -> int | None:
    """The failure count a ``verify`` op printed, or None if unreadable."""
    if fmt == "table":
        found = re.search(r"^failures (\d+)$", text, re.MULTILINE)
        return int(found.group(1)) if found else None
    rows = parse_rows(text, fmt)
    return int(rows[0][1]) if rows and len(rows[0]) == 2 else None


def judge(op: workloads.Op, outcome: Outcome) -> str:
    """``ok``, ``failed`` (crash, timeout, wrong exit) or ``wrong`` (wrong answer)."""
    if outcome.timed_out or b"Traceback" in outcome.stderr:
        return "failed"
    if op.kind == "usage":
        if outcome.rc == 0:
            return "wrong"
        ok = outcome.rc == 2 and op.expected.encode() in outcome.stderr
        return "ok" if ok else "failed"
    text = outcome.stdout.decode("utf-8", "replace")
    if op.kind == "verify":
        failures = verify_failures(text, op.fmt) if outcome.rc in (0, 1) else None
        if failures is None:
            return "failed"
        return "ok" if outcome.rc == 0 and failures == 0 else "wrong"
    if outcome.rc != 0:
        return "failed"
    if op.kind == "bfile":
        good = outcome.stdout == b"" and outcome.bfile == op.expected.encode()
        return "ok" if good else "wrong"
    try:
        good = parse_rows(text, op.fmt) == op.expected
    except (ValueError, KeyError, IndexError, TypeError):
        good = False
    return "ok" if good else "wrong"


def skipped_checks(op: workloads.Op, outcome: Outcome) -> int:
    """Checks a table-format ``verify`` run reports as skipped by a scale guard."""
    if op.kind != "verify" or op.fmt != "table":
        return 0
    return sum(int(m) for m in re.findall(r"(\d+) skipped", outcome.stdout.decode()))


def end_to_end(name: str, seed: int, seconds: float) -> tuple:
    with Launcher() as launcher:
        ops = workloads.build(name, seed)
        return measure(name, seed, seconds, ops, launcher)


def measure(name: str, seed: int, seconds: float, ops: list, launcher: Launcher) -> tuple:
    """(correct, attempted, failed, metrics) of repeated passes over ``ops``."""
    # check pass: judge every op against the reference, warm the bytecode cache
    launcher.run(PROBE_ARGV)
    verdicts, checked, skipped = [], [], 0
    for op in ops:
        outcome = launcher.run(op.argv)
        verdicts.append(judge(op, outcome))
        checked.append(outcome.key)
        skipped += skipped_checks(op, outcome)

    # On a shared virtual machine the CPU speed changes by a third or more,
    # within seconds and from one minute to the next, and such a change slows
    # every process by a similar factor.  So before every second op the
    # calibration process runs, followed by a set-up probe, and each time
    # until the next calibration is divided by that calibration's time and
    # multiplied by CALIBRATION_REFERENCE_S.  An op's time is the median of
    # its scaled times over the passes, and a pass is the sum of those medians.
    scaled_of: list[list[float]] = [[] for _ in ops]
    raw_of: list[list[float]] = [[] for _ in ops]
    rss_of: list[list[float]] = [[] for _ in ops]
    probes: list[float] = []
    calibrations: list[float] = []
    passes = attempted = failed = 0
    wrong = "wrong" in verdicts
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for i, op in enumerate(ops):
            if i % 2 == 0:
                calibration = launcher.calibrate()
                calibrations.append(calibration)
                scale = CALIBRATION_REFERENCE_S / calibration
                probe = launcher.run(PROBE_ARGV)
                probes.append(probe.seconds * scale)
                wrong |= probe.rc != 0 or probe.stdout.split() != [b"1"]
            outcome = launcher.run(op.argv)
            scaled_of[i].append(outcome.seconds * scale)
            raw_of[i].append(outcome.seconds)
            rss_of[i].append(outcome.rss_kb / 1024)
            verdict = verdicts[i]
            if outcome.key != checked[i] or outcome.timed_out:
                verdict = judge(op, outcome)
            attempted += 1
            failed += verdict != "ok"
            wrong |= verdict == "wrong"
        passes += 1

    big = sum(op.big for op in ops)
    print(
        f"{name} seed {seed}: {passes} passes of {len(ops)} ops, "
        f"{failed} of {attempted} failed, {big} ops with answers over "
        f"{workloads.INT_STR_LIMIT} digits, {skipped} verify checks reported skipped in table output, "
        f"{len(probes)} set-up probes; unscaled pass {sum(map(statistics.median, raw_of)):.4f} s, "
        f"median calibration {statistics.median(calibrations):.4f} s"
    )
    metrics = {
        "wall_s": (sum(map(statistics.median, scaled_of)), "s"),
        "peak_rss_mb": (max(map(statistics.median, rss_of)), "MB"),
        "setup_s": (statistics.median(probes), "s"),
        "ok_share": ((attempted - failed) / attempted, "share"),
    }
    return not wrong, attempted, failed, metrics


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cobweb" / "__main__.py").is_file():
        sys.stderr.write(f"no cobweb source under {SRC}; run from a checkout\n")
        return 2
    if args.trace:
        report = tracing.per_layer(args.workload, args.seed, args.seconds, SRC, WORK)
    else:
        report = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result(*report)))
    return 0 if report[0] else 1


if __name__ == "__main__":
    sys.exit(main())
