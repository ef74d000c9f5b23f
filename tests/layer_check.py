"""Which layer modules each subcommand runs, one fresh interpreter per command.

The package registers its submodules lazily: one whose body has not run is
still an ``importlib.util._LazyModule``, and becomes a plain module when its
body runs.  Needs no test runner and runs the package in ``src`` next to it:

    python tests/layer_check.py

prints the layers each command ran and exits 1 if any differ from
``EXPECTED``.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
LAYERS = ("sequences", "pnfposet", "gridposet", "oracle", "verify", "verify_command")
EXPECTED = {  # argv -> the layers that argv runs
    "grid --k 2 --n 5": ["gridposet"],
    "seq --seq fib --count 5": ["sequences"],
    "fbinom --seq gauss --q 2 --rows 3": ["sequences"],
    "pnf --seq naturals --n 6 --show whitney": ["sequences", "pnfposet"],
    "export --what bell --seq fib --count 5 --bfile {bfile}": ["sequences", "pnfposet"],
    "verify --max-n 4": list(LAYERS),
}
CHILD = f"""
import json, sys, types
from cobweb.cli import main

code = main(sys.argv[1:])
ran = [name for name in {LAYERS!r} if type(sys.modules.get("cobweb." + name)) is types.ModuleType]
print(json.dumps([code, ran]))
"""


def layers_run(argv: str) -> tuple[int, list[str]]:
    """(exit code, the layers run) of one command in a fresh interpreter."""
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
    code, ran = json.loads(proc.stdout.splitlines()[-1])
    return code, ran


def main() -> int:
    wrong = 0
    for argv, expected in EXPECTED.items():
        code, ran = layers_run(argv)
        wrong += (code, ran) != (0, expected)
        print(f"{argv}: exit {code}, ran {', '.join(ran)}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
