"""Byte parity of the command line: every command of a fixed corpus prints
the bytes recorded in ``cli_corpus.json``.

Each argv maps to the SHA-256 of its exit code, stdout, stderr and the
b-file it writes, if any.  Only ``verify``'s suite seconds are masked.
Commands run in process through ``cli.main``, except the few keyed
``python -m cobweb ...`` or ``python -O -m cobweb ...``, which run as child
processes.  A change that alters output must rewrite the file and name each
changed command and the reason:

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from itertools import product
from pathlib import Path

import cobweb
from cobweb.cli import main

RECORD = Path(__file__).with_name("cli_corpus.json")
SRC = str(Path(cobweb.__file__).resolve().parent.parent)  # for child processes
SEQS = (
    ("--seq", "fib"),
    ("--seq", "naturals"),
    ("--seq", "ones"),
    ("--seq", "lucas"),
    ("--seq", "gauss", "--q", "2"),
    ("--seq", "gauss", "--q", "3"),
)
FORMATS = ("table", "csv", "json")
CHILD_PREFIXES = (("python", "-m", "cobweb"), ("python", "-O", "-m", "cobweb"))


def corpus():
    """Every argv of the corpus; ``{bfile}`` stands for a fresh b-file path."""
    argvs = []
    for seq, fmt in product(SEQS, FORMATS):
        argvs += [["seq", *seq, "--count", c, "--format", fmt] for c in ("1", "12")]
        argvs += [["fbinom", *seq, "--rows", r, "--format", fmt] for r in ("0", "1", "12")]
        argvs.append(["pnf", *seq, "--n", "9", "--show", "whitney", "--format", fmt])
    for seq, n, show, policy in product(
        SEQS, ("1", "2", "6", "24", "25", "49"), ("whitney", "bell"), ("include", "exclude")
    ):
        argvs.append(["pnf", *seq, "--n", n, "--show", show, "--degenerate", policy])
    for n, policy in product(range(1, 50), ("include", "exclude")):
        argvs.append(["pnf", "--seq", "lucas", "--n", str(n), "--show", "whitney",
                      "--degenerate", policy])
    for (k, n), show, fmt in product(
        (("0", "1"), ("2", "5"), ("4", "4"), ("10", "12")),
        ("size", "whitney", "bell", "chains", "all"),
        FORMATS,
    ):
        argvs.append(["grid", "--k", k, "--n", n, "--show", show, "--format", fmt])
    argvs.append(["grid", "--k", "2000", "--n", "4000", "--show", "size"])
    for fmt in FORMATS:
        argvs.append(["verify", "--max-n", "6", "--format", fmt])
    argvs.append(["verify", "--max-n", "2", "--seq", "gauss3,ones"])
    argvs.append(["verify", "--max-n", "40"])
    for what, seq, count in product(("bell", "fbinom-diagonal"), SEQS, ("1", "2", "10")):
        argvs.append(["export", "--what", what, *seq, "--count", count, "--bfile", "{bfile}"])
    argvs += [  # answers over 4300 digits
        ["pnf", "--seq", "fib", "--n", "450", "--show", "bell"],
        ["export", "--what", "fbinom-diagonal", "--seq", "fib", "--count", "150",
         "--bfile", "{bfile}"],
    ]
    argvs += [  # usage and I/O errors
        [],
        ["seq", "--seq", "fib", "--count", "0"],
        ["seq", "--seq", "gauss", "--count", "3"],
        ["seq", "--seq", "gauss", "--q", "1", "--count", "3"],
        ["seq", "--seq", "fib", "--q", "2", "--count", "3"],
        ["seq", "--seq", "tribonacci", "--count", "3"],
        ["fbinom", "--seq", "fib", "--rows", "-1"],
        ["pnf", "--seq", "fib", "--n", "0"],
        ["grid", "--k", "5", "--n", "3"],
        ["grid", "--k", "200000", "--n", "200000", "--show", "whitney"],
        ["verify", "--max-n", "1"],
        ["verify", "--max-n", "49"],
        ["verify", "--max-n", "4", "--seq", "lucas"],
        ["verify", "--max-n", "4", "--seq", "fib,fib"],
        ["export", "--what", "bell", "--seq", "fib", "--count", "0", "--bfile", "{bfile}"],
        ["export", "--what", "bell", "--seq", "fib", "--count", "3",
         "--bfile", "/nonexistent-cobweb-dir/b"],
    ]
    argvs += [
        [*prefix, "fbinom", "--seq", "lucas", "--rows", "5"] for prefix in CHILD_PREFIXES
    ]
    argvs += [[*prefix, "seq", "--seq", "fib", "--count", "5"] for prefix in CHILD_PREFIXES]
    return list({" ".join(argv): argv for argv in argvs}.values())  # each argv once


def run(argv, bfile):
    """(exit code, stdout, stderr) of one corpus command."""
    argv = [bfile if arg == "{bfile}" else arg for arg in argv]
    if argv[:1] == ["python"]:
        proc = subprocess.run(
            [sys.executable, *argv[1:]],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        return proc.returncode, proc.stdout, proc.stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digests():
    """{" ".join(argv): SHA-256 of what the command printed and wrote}."""
    result = {}
    with tempfile.TemporaryDirectory() as scratch:
        bfile = os.path.join(scratch, "b.txt")
        for argv in corpus():
            code, out, err = run(argv, bfile)
            if "verify" in argv:  # suite seconds are the only varying bytes
                out = re.sub(r"\d+\.\d+", "<s>", out)
            written = None
            if os.path.exists(bfile):
                written = Path(bfile).read_text(encoding="ascii")
                os.remove(bfile)
            blob = json.dumps([code, out, err, written]).encode()
            result[" ".join(argv)] = hashlib.sha256(blob).hexdigest()
    return result


def test_every_command_prints_the_recorded_bytes():
    recorded = json.loads(RECORD.read_text())
    actual = digests()
    changed = sorted(key for key in recorded.keys() & actual.keys()
                     if recorded[key] != actual[key])
    assert (changed, sorted(actual.keys() - recorded.keys()),
            sorted(recorded.keys() - actual.keys())) == ([], [], [])


if __name__ == "__main__":
    RECORD.write_text(json.dumps(digests(), indent=1) + "\n")
