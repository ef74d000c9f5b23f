"""Run every workload once, print every metric, and save the run's record.

Usage, from the root of a git checkout:

    python3 perfbench/record.py [--seed 1] [--seconds N] [--workload NAME ...]

Each workload runs twice through ``run.py``: with tracing off for the
end-to-end metrics and with tracing on for the per-layer metrics.  Every
metric is printed by name with its value and unit, headed by the git commit
measured.  The whole run is saved as ``perfbench/records/BENCH_<commit>.json``;
these files are the benchmark's trajectory, one per measured commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git(*args: str) -> str:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return ""
    return done.stdout.strip()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown cpu"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{workload} (trace {trace}) printed nothing:\n{done.stderr}")
    report = json.loads(lines[-1])
    report["summary"] = lines[0] if len(lines) > 1 else ""
    return report


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()

    commit = git("rev-parse", "HEAD") or "unknown"
    src_changed = bool(git("status", "--porcelain", "--", "src"))
    print(f"commit {commit}{' (src has uncommitted changes)' if src_changed else ''}")
    expected = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    record = {
        "commit": commit,
        "src_changed": src_changed,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": f"{cpu_model()}, {os.cpu_count()} cpus, {platform.machine()}",
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    for workload in args.workload or names:
        record["workloads"][workload] = {}
        for trace in (0, 1):
            report = run(workload, args.seed, args.seconds, trace)
            record["workloads"][workload]["per_layer" if trace else "end_to_end"] = report
            print(f"\n{report['summary']}")
            print(f"  correct {report['correct']}, attempted {report['attempted']}, "
                  f"failed {report['failed']}")
            for key, metric in report["metrics"].items():
                print(f"  {workload}.{key:50} {metric['value']:>16.6g} {metric['unit']}")
            if list(report["metrics"]) != expected[trace]:
                print(f"  metric names differ from BENCHMARK.json: {list(report['metrics'])}")
                ok = False
            ok &= report["correct"]
    out = HERE / "records" / f"BENCH_{commit[:12]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nrecord written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
