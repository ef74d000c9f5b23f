"""Which layer modules each subcommand runs, one fresh interpreter per command.

The package registers its submodules lazily: one whose body has not run is
still an ``importlib.util._LazyModule``, and becomes a plain module when its
body runs.  ``argparse`` is imported only for help and usage errors: no
command that succeeds loads it.  Needs no test runner and runs the package
in ``src`` next to it:

    python tests/layer_check.py

prints the exit code and the layers of each command, and whether it
imported ``argparse``, and exits 1 if any differ from ``EXPECTED``.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
LAYERS = ("sequences", "pnfposet", "gridposet", "oracle", "verify", "verify_command")
EXPECTED = {  # argv -> (its exit code, the layers it runs, whether it imports argparse)
    "grid --k 2 --n 5": (0, ["gridposet"], False),
    "grid --k 5 --n 3": (2, ["gridposet"], True),  # a usage error
    "seq --seq fib --count 5": (0, ["sequences"], False),
    "fbinom --seq gauss --q 2 --rows 3": (0, ["sequences"], False),
    "pnf --seq naturals --n 6 --show whitney": (0, ["sequences", "pnfposet"], False),
    "export --what bell --seq fib --count 5 --bfile {bfile}": (
        0, ["sequences", "pnfposet"], False
    ),
    "verify --max-n 4": (0, list(LAYERS), False),
}
CHILD = f"""
import json, sys, types
from cobweb.cli import main

try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # argparse's usage error
    code = exc.code
ran = [name for name in {LAYERS!r} if type(sys.modules.get("cobweb." + name)) is types.ModuleType]
print(json.dumps([code, ran, "argparse" in sys.modules]))
"""


def layers_run(argv: str) -> tuple[int, list[str], bool]:
    """(exit code, the layers run, whether argparse was imported) of one
    command in a fresh interpreter."""
    with tempfile.TemporaryDirectory() as scratch:
        args = argv.format(bfile=os.path.join(scratch, "b")).split()
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, *args],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=60,
        )
    if proc.returncode:
        raise RuntimeError(f"{argv}: exit {proc.returncode}\n{proc.stderr}")
    code, ran, argparse_loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, ran, argparse_loaded


def main() -> int:
    wrong = 0
    for argv, expected in EXPECTED.items():
        code, ran, argparse_loaded = layers_run(argv)
        wrong += (code, ran, argparse_loaded) != expected
        argparse_note = "imported argparse" if argparse_loaded else "no argparse"
        print(f"{argv}: exit {code}, ran {', '.join(ran)}; {argparse_note}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
