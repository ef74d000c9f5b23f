"""The package's arithmetic is exact, by rule rather than by habit.

No module divides with ``/`` or ``/=``, writes a float literal, or calls
``float`` or ``round``; the one float is ``SuiteResult.seconds``, a wall
time that no answer is computed from.  Every ``divmod`` has its remainder
tested by the statement right after it.  Every ``//``, ``%``, ``//=`` and
``%=`` is listed below, keyed by module, enclosing function and source
text, with the reason it is right: it floors on purpose, or it is exact
and why.
"""

import ast
from pathlib import Path
from typing import NamedTuple

import cobweb

LIBRARY = sorted(Path(cobweb.__file__).parent.glob("*.py"))

BANNED = ("/", "/=", "float literal", "float", "round")
FLOORS = ("//", "%", "//=", "%=")

# (module, function, source text) -> why that floor division or modulo is right
FLOOR_REASONS = {
    ("gridposet", "grid_size", "k * (k + 1) // 2"):
        "exact: k (k + 1) is a product of two consecutive integers, so it is even",
    ("gridposet", "grid_whitney", "j // 2"):
        "floors on purpose: an element (l, m) of rank j = l + m - 1 has l < m, so l <= j // 2",
    ("oracle", "layer_sizes", "n // 2"):
        "floors on purpose: P(n, F) has levels k = 0..floor(n / 2)",
    ("pnfposet", "pnf_max_rank", "n // 2"):
        "floors on purpose: the top level is floor(n / 2) when the degenerate level is included",
    ("pnfposet", "pnf_max_rank", "(n - 1) // 2"):
        "floors on purpose: the top level is floor((n - 1) / 2) when it is excluded",
    ("sequences", "f_binomial_rows", "n // 2"):
        "floors on purpose: entries k <= floor(n / 2) fix row n by symmetry",
    ("sequences", "gaussian", "(q ** _index(n) - 1) // (q - 1)"):
        "exact: q^n - 1 = (q - 1)(1 + q + ... + q^(n-1)) for every index n >= 0, "
        "and _index refuses n < 0",
    ("verify", "check_pnf_census", "n % 2"):
        "parity on purpose: an even n has the degenerate level n / 2",
    ("verify", "check_fbinom_algebra", "FBINOM_BOUND // 2"):
        "floors on purpose: (2m choose m) lies in rows 0..FBINOM_BOUND for m up to its half",
    ("verify", "check_fbinom_algebra", "n % 2"):
        "parity on purpose: only an even row has a central entry",
    ("verify", "check_fbinom_algebra", "n // 2"):
        "exact as the middle index of an even row; floors on purpose as the top level "
        "floor(n / 2) of P(n, lucas)",
}

# the one float of the package: a suite's wall time starts at 0.0
FLOAT_SITES = {("verify", "SuiteResult.__init__", "0.0")}


class Site(NamedTuple):
    kind: str
    scope: str  # the enclosing classes and functions, dotted; "" at module level
    text: str
    line: int


def arithmetic_sites(source: str) -> list[Site]:
    """Every division, modulo, float literal, ``float``, ``round`` or ``divmod``
    in ``source``, in walk order."""
    operators = {ast.Div: "/", ast.FloorDiv: "//", ast.Mod: "%"}
    sites = []

    def visit(node: ast.AST, scope: str) -> None:
        kind = None
        if isinstance(node, ast.BinOp):
            kind = operators.get(type(node.op))
        elif isinstance(node, ast.AugAssign) and type(node.op) in operators:
            kind = operators[type(node.op)] + "="
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            kind = "float literal"
        elif isinstance(node, ast.Name) and node.id in ("float", "round", "divmod"):
            kind = node.id
        if kind:
            sites.append(Site(kind, scope, ast.get_source_segment(source, node), node.lineno))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sites


def unchecked_divmods(source: str) -> list[int]:
    """Lines of each ``divmod`` whose remainder is not tested at once: a checked
    one is the whole value of ``quotient, remainder = divmod(...)``, and the
    next statement is an ``if`` whose test reads ``remainder``."""
    tree = ast.parse(source)
    checked = set()
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            statements = getattr(node, field, None)
            if not isinstance(statements, list):
                continue
            for statement, following in zip(statements, statements[1:]):
                match statement:
                    case ast.Assign(
                        targets=[ast.Tuple(elts=[ast.Name(), ast.Name(id=remainder)])],
                        value=ast.Call(func=ast.Name(id="divmod") as name),
                    ) if isinstance(following, ast.If) and remainder in {
                        read.id for read in ast.walk(following.test) if isinstance(read, ast.Name)
                    }:
                        checked.add(name)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "divmod" and node not in checked
    )


def library_sites() -> list[tuple[str, Site]]:
    assert LIBRARY
    return [(path.stem, site) for path in LIBRARY for site in arithmetic_sites(path.read_text())]


def test_no_true_division_or_float_in_the_package():
    found = [
        f"{module}.py:{site.line} {site.scope}: {site.text} ({site.kind})"
        for module, site in library_sites()
        if site.kind in BANNED and (module, site.scope, site.text) not in FLOAT_SITES
    ]
    assert found == [], f"inexact arithmetic: {found}"
    floats = {(module, site.scope, site.text) for module, site in library_sites()
              if site.kind == "float literal"}
    assert floats == FLOAT_SITES


def test_every_divmod_remainder_is_tested():
    divmods = [site for _, site in library_sites() if site.kind == "divmod"]
    assert divmods  # the scan does see the package's divmod calls
    found = {
        path.name: lines for path in LIBRARY if (lines := unchecked_divmods(path.read_text()))
    }
    assert found == {}, f"divmod remainders left untested: {found}"


def test_every_floor_division_and_modulo_is_listed_with_its_reason():
    found = {
        (module, site.scope, site.text) for module, site in library_sites() if site.kind in FLOORS
    }
    assert found - FLOOR_REASONS.keys() == set(), "unlisted // or %: give each a reason"
    assert FLOOR_REASONS.keys() - found == set(), "listed sites that are gone"


def test_exactness_guard_sees_every_form():
    source = (
        "class Timer:\n"
        "    def rate(self, a, b):\n"
        "        x = a / b\n"
        "        a /= b\n"
        "        y = 1.5 + 2j\n"
        "        z = float(a) + round(b)\n"
        "        u = a // b\n"
        "        a //= b\n"
        "        v = a % b\n"
        "        a %= b\n"
        "        return sorted(map(float, [x, y, z, u, v]))\n"
        "def split(a, b):\n"
        "    q, r = divmod(a, b)\n"
        "    if r:\n"
        "        raise ValueError(r)\n"
        "    q, r = divmod(a, b)\n"
        "    if q:\n"
        "        return r\n"
        "    q = divmod(a, b)[0]\n"
        "    q, r = divmod(a, b)\n"
        "    return list(map(divmod, [q], [r]))\n"
    )
    assert [(site.line, site.kind, site.scope) for site in arithmetic_sites(source)] == [
        (3, "/", "Timer.rate"),
        (4, "/=", "Timer.rate"),
        (5, "float literal", "Timer.rate"),
        (5, "float literal", "Timer.rate"),
        (6, "float", "Timer.rate"),
        (6, "round", "Timer.rate"),
        (7, "//", "Timer.rate"),
        (8, "//=", "Timer.rate"),
        (9, "%", "Timer.rate"),
        (10, "%=", "Timer.rate"),
        (11, "float", "Timer.rate"),
        (13, "divmod", "split"),
        (16, "divmod", "split"),
        (19, "divmod", "split"),
        (20, "divmod", "split"),
        (21, "divmod", "split"),
    ]
    # the remainder of line 16 is not what is tested, line 19 keeps no
    # remainder, line 20 is the last check, line 21 passes divmod on
    assert unchecked_divmods(source) == [16, 19, 20, 21]
