"""Checks that must survive ``python -O``, which strips ``assert`` statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cobweb

LIBRARY = sorted(Path(cobweb.__file__).parent.glob("*.py"))

SRC = str(Path(cobweb.__file__).resolve().parent.parent)  # for child processes


def test_library_code_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in LIBRARY
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert LIBRARY
    assert found == [], f"assert statements vanish under python -O: {found}"


def test_non_integral_triangle_fails_under_optimization():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cobweb", "fbinom", "--seq", "lucas", "--rows", "5"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 2
    assert "not an integer" in proc.stderr
    assert proc.stdout == ""
