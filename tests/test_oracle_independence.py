"""The oracle must not reuse any closed form that ``verify`` checks against it,
and ``verify`` must leave enumeration to the oracle, take every reference
value from it, and check closed forms, not one oracle method against another.
No module of the package reads the environment, so no hidden knob sets what
a command computes."""

import ast
from pathlib import Path

import cobweb.oracle
import cobweb.verify

ENVIRONMENT_READS = ("environ", "environb", "getenv")
CHECKED_CLOSED_FORMS = ("grid_size", "grid_whitney", "grid_bell", "grid_chain_count", "catalan")
CHECKED_PREFIXES = ("pnf_whitney", "pnf_bell", "f_binomial")

# every name oracle.py may import from the package, by module
ALLOWED_IMPORTS = {
    "": {"_Record"},  # from the package itself
    "gridposet": {"grid_elements", "grid_rank"},
    "sequences": {"FSequence", "NonIntegralError", "seq_eval"},
}


def module_tree(module) -> ast.AST:
    path = Path(module.__file__)
    return ast.parse(path.read_text(), filename=str(path))


def referenced_names(tree: ast.AST) -> set[str]:
    """Every imported, read or attribute-accessed name in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
            names.update(alias.asname for alias in node.names if alias.asname)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def package_imports(tree: ast.AST) -> dict[str, set[str]]:
    """Package module -> the names a module imports from it."""
    imports: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "cobweb":
                    imports.setdefault(alias.name, set())
        elif isinstance(node, ast.ImportFrom) and (
            node.level or node.module.partition(".")[0] == "cobweb"
        ):
            module = (node.module or "").rpartition(".")[2]
            imports.setdefault(module, set()).update(alias.name for alias in node.names)
    return imports


def environment_reads(tree: ast.AST) -> list[str]:
    """``line N: name`` for each read of the environment through ``os``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in ENVIRONMENT_READS]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def reached_functions(tree: ast.AST, function: str) -> list[ast.FunctionDef]:
    """``function`` and every module-level function it reads, transitively."""
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = {}, [function]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached[name] = defined[name]
            todo += referenced_names(defined[name]) & defined.keys()
    return list(reached.values())


def divisions(tree: ast.AST) -> list[str]:
    """``line N: op`` for each ``/``, ``//``, ``%`` or ``divmod`` in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, (ast.Div, ast.FloorDiv, ast.Mod)
        ):
            found.append(f"line {node.lineno}: {type(node.op).__name__}")
        elif isinstance(node, ast.Name) and node.id == "divmod":
            found.append(f"line {node.lineno}: divmod")
    return found


def is_checked_closed_form(name: str) -> bool:
    return name in CHECKED_CLOSED_FORMS or name.startswith(CHECKED_PREFIXES)


def is_library_call(call: ast.Call) -> bool:
    """A call to a ``pnfposet.*`` or ``gridposet.*`` attribute or to a checked closed form."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id in ("pnfposet", "gridposet"):
            return True
        return is_checked_closed_form(func.attr)
    return isinstance(func, ast.Name) and is_checked_closed_form(func.id)


def library_calls_outside_compute_callables(tree: ast.AST) -> list[str]:
    """``line N: callee`` for each library call in no lambda and no nested function.

    A check's compute callable is a lambda or a function defined inside a
    suite; everything else in a suite computes a reference value.
    """
    found = []

    def walk(node: ast.AST, functions: int, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and not inside and is_library_call(child):
                found.append(f"line {child.lineno}: {ast.unparse(child.func)}")
            if isinstance(child, ast.Lambda):
                walk(child, functions, True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, functions + 1, inside or functions >= 1)
            else:
                walk(child, functions, inside)

    walk(tree, 0, False)
    return found


def test_oracle_uses_no_checked_closed_form():
    names = referenced_names(module_tree(cobweb.oracle))
    assert "grid_elements" in names  # the walk does see the oracle's own imports
    found = sorted(name for name in names if is_checked_closed_form(name))
    assert found == [], f"oracle.py reuses closed forms it must check: {found}"


def test_guard_recognises_every_listed_form():
    checked = (
        "pnf_whitney_vector", "pnf_bell_sequence", "f_binomial", "f_binomial_diagonal",
        "catalan",
    )
    for name in checked:
        assert is_checked_closed_form(name)
    for name in (
        "grid_leq", "grid_rank", "grid_elements", "pnf_max_rank", "seq_eval", "factorial_ratios"
    ):
        assert not is_checked_closed_form(name)


def test_oracle_reads_sequence_values_only_through_seq_eval():
    # the allowed imports keep out every factory; this keeps out their lambdas,
    # so recurrence_values cannot read the shipped values it is a reference for
    assert "value_at" not in referenced_names(module_tree(cobweb.oracle))


def test_pascal_rows_reads_no_sequence_value_and_no_engine():
    functions = reached_functions(module_tree(cobweb.oracle), "pascal_rows")
    names = set().union(*map(referenced_names, functions))
    # the walk does follow pascal_rows into the oracle functions it calls
    assert {"recurrence_values", "_recurrence"} <= names
    found = sorted(
        name for name in names
        if name in ("seq_eval", "value_at", "_checked_step", "_ValueTable")
        or name.startswith("f_binomial")
    )
    assert found == [], f"pascal_rows reads what it is a reference for: {found}"
    assert divisions(ast.Module(functions, [])) == []


def test_reached_functions_follow_module_functions_only():
    tree = ast.parse(
        "def top(x):\n"
        "    return helper(x) + seq.value_at(1) + top(x)\n"
        "def helper(x):\n"
        "    return seq_eval(x, 2) // 3\n"
        "def unused():\n"
        "    return f_binomial(1, 2) / 2 + divmod(3, 2)[0]\n"
    )
    functions = reached_functions(tree, "top")
    assert [function.name for function in functions] == ["top", "helper"]
    assert set().union(*map(referenced_names, functions)) == {
        "top", "helper", "x", "seq", "value_at", "seq_eval"
    }
    assert divisions(tree) == ["line 4: FloorDiv", "line 6: Div", "line 6: divmod"]
    assert divisions(ast.Module(functions, [])) == ["line 4: FloorDiv"]


def test_oracle_imports_only_allowed_package_names():
    imports = package_imports(module_tree(cobweb.oracle))
    assert "pnfposet" not in imports
    assert imports == ALLOWED_IMPORTS


def test_package_imports_sees_every_import_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import cobweb.pnfposet\n"
        "from cobweb import verify\n"
        "from .sequences import seq_eval\n"
        "from cobweb.gridposet import grid_rank as rank\n"
    )
    assert package_imports(tree) == {
        "cobweb.pnfposet": set(),
        "cobweb": {"verify"},
        "sequences": {"seq_eval"},
        "gridposet": {"grid_rank"},
    }


def test_no_package_module_reads_the_environment():
    package = Path(cobweb.oracle.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "verify_command.py" in modules  # the glob does see the package
    found = {
        path.name: reads
        for path in modules
        if (reads := environment_reads(ast.parse(path.read_text(), filename=str(path))))
    }
    assert found == {}, f"package modules read the environment: {found}"


def test_environment_guard_sees_every_read():
    tree = ast.parse(
        "import os\n"
        "from os import getenv as env\n"
        "limit = os.environ.get('LIMIT')\n"
        "raw = os.environb[b'RAW']\n"
        "seed = os.getenv('SEED')\n"
        "path = os.path.join(os.sep, 'x')\n"
    )
    assert environment_reads(tree) == [
        "line 2: getenv",
        "line 3: environ",
        "line 4: environb",
        "line 5: getenv",
    ]


def test_verify_enumerates_no_grid():
    names = referenced_names(module_tree(cobweb.verify))
    assert "build_grid_hasse" in names  # the walk does see verify's oracle calls
    assert "grid_elements" not in names, "verify.py enumerates grids itself"
    # the oracle counts chains one way, by its sweep, which the tests pin against
    # a recursive walk; verify reads the sweep and walks no cover edge itself
    assert not names & {"successors", "cover_edges"}, "verify.py walks the diagram itself"


def test_verify_takes_every_f_binomial_reference_from_the_oracle():
    names = referenced_names(module_tree(cobweb.verify))
    assert "pascal_rows" in names  # the walk does see verify's oracle calls
    # the per-entry product is only ever under test, never a reference
    found = sorted(names & {"seq_eval", "f_factorial", "f_binomial"})
    assert found == [], f"verify.py computes F-binomial references itself: {found}"


def test_verify_calls_the_library_only_inside_compute_callables():
    found = library_calls_outside_compute_callables(module_tree(cobweb.verify))
    assert "oracle" in referenced_names(module_tree(cobweb.verify))
    assert found == [], f"verify.py takes reference values from the library: {found}"


def test_compute_callable_guard_sees_every_call_outside_a_callable():
    tree = ast.parse(
        "def suite(seq):\n"
        "    top = pnfposet.pnf_max_rank(3)\n"
        "    expected = catalan(2)\n"
        "    check(expected, lambda: gridposet.grid_size(1, 2))\n"
        "    def compute():\n"
        "        return f_binomial(seq, 4, 2) + gridposet.catalan(3)\n"
        "    check(sizes.f_binomial_rows(seq, 4), compute)\n"
        "    return oracle.layer_sizes(3, seq), pnfposet.POLICIES, seq_eval(seq, 1)\n"
    )
    assert library_calls_outside_compute_callables(tree) == [
        "line 2: pnfposet.pnf_max_rank",
        "line 3: catalan",
        "line 7: sizes.f_binomial_rows",
    ]
