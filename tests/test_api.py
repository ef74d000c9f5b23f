"""The package namespace: ``__all__`` is exactly what a star import binds,
each subcommand runs only its own layer modules (a subcommand other than
``verify`` starts without the oracle or the verify command's module), no
command loads ``dataclasses``, and README's library example holds."""

import ast
import copy
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cobweb
import layer_check

ORACLE_NAMES = {
    "ChainReport",
    "HasseDiagram",
    "ScaleLimitError",
    "build_grid_hasse",
}


def test_all_has_no_duplicates():
    assert len(cobweb.__all__) == len(set(cobweb.__all__)) == 36
    assert cobweb.__all__ == sorted(cobweb.__all__)
    assert ORACLE_NAMES <= set(cobweb.__all__)


def test_every_exported_name_resolves():
    missing = [name for name in cobweb.__all__ if not hasattr(cobweb, name)]
    assert not missing


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from cobweb import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cobweb.__all__)
    assert namespace["build_grid_hasse"] is cobweb.oracle.build_grid_hasse


def test_dir_lists_every_exported_name():
    assert set(cobweb.__all__) <= set(dir(cobweb))


def test_unknown_attribute_error_names_it():
    with pytest.raises(AttributeError, match="'cobweb' has no attribute 'no_such_name'"):
        cobweb.no_such_name


@pytest.mark.parametrize(
    "name", ["count_maximal_chains", "enumerate_maximal_chains", "rank_level_counts"]
)
def test_the_removed_chain_counters_are_not_exported(name):
    namespace = {}
    exec("from cobweb import *", namespace)
    with pytest.raises(AttributeError, match=f"'cobweb' has no attribute '{name}'$"):
        getattr(cobweb, name)
    assert name not in namespace and name not in dir(cobweb)


def test_readme_library_example_evaluates_to_its_comments():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S)[1]
    lines = block.splitlines()
    namespace, checked = {}, 0
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        _, commented, value = lines[node.end_lineno - 1].partition("  # ")
        if isinstance(node, ast.Expr) and commented:
            assert eval(source, namespace) == ast.literal_eval(value.strip()), source
            checked += 1
        else:
            exec(source, namespace)
    assert checked == sum(bool(re.search(r"\S  +# ", line)) for line in lines) > 0


def test_readme_states_the_number_of_exported_names():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert re.findall(r"The (\d+) names exported from `cobweb`", readme) == [
        str(len(cobweb.__all__))
    ]


# Runs in a fresh interpreter: every subcommand but verify through
# cli.main, then the lazily loaded oracle names and verify on first use.
STARTUP_SCRIPT = """
import json, sys
from cobweb.cli import main

bfile = sys.argv[1]
VERIFY_MODULES = ("cobweb.oracle", "cobweb.verify", "cobweb.verify_command")
for argv in [
    ["seq", "--seq", "fib", "--count", "5"],
    ["fbinom", "--seq", "gauss", "--q", "2", "--rows", "4", "--format", "csv"],
    ["grid", "--k", "2", "--n", "5", "--format", "json"],
    ["pnf", "--seq", "naturals", "--n", "6", "--show", "whitney"],
    ["export", "--what", "bell", "--seq", "fib", "--count", "5", "--bfile", bfile],
    ["export", "--what", "fbinom-diagonal", "--seq", "ones", "--count", "3", "--bfile", bfile],
]:
    if main(argv) != 0:
        raise SystemExit(f"{argv} failed")
report = {
    "loaded": [name for name in ("csv", "dataclasses", "inspect") if name in sys.modules],
    "registered": [name for name in VERIFY_MODULES if name in sys.modules],
}
import cobweb
report["first_use"] = [
    cobweb.build_grid_hasse(1, 3).__class__.__name__,
    cobweb.oracle.ChainReport.__name__,
]
report["verify"] = main(["verify", "--max-n", "4"])
report["loaded_by_verify"] = [
    name
    for name in ("csv", "dataclasses", "inspect", *VERIFY_MODULES)
    if name in sys.modules
]
print(json.dumps(report))
"""


def test_non_verify_subcommands_do_not_load_the_oracle(tmp_path):
    src = Path(cobweb.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, str(tmp_path / "bfile")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *outputs, last = proc.stdout.splitlines()
    assert outputs[0] == "1 1 2 3 5"
    assert "failures 0" in outputs
    report = json.loads(last)
    assert report == {
        "loaded": [],
        "registered": ["cobweb.oracle", "cobweb.verify"],
        "first_use": ["HasseDiagram", "ChainReport"],
        "verify": 0,
        "loaded_by_verify": ["cobweb.oracle", "cobweb.verify", "cobweb.verify_command"],
    }


@pytest.mark.parametrize("argv", layer_check.EXPECTED)
def test_each_subcommand_runs_only_its_layers(argv):
    assert layer_check.layers_run(argv) == layer_check.EXPECTED[argv]


def test_the_central_column_export_runs_only_sequences():
    argv = "export --what fbinom-diagonal --seq fib --count 5 --bfile {bfile}"
    assert layer_check.layers_run(argv) == (0, ["sequences"], False)


@pytest.mark.parametrize(
    "value, text",
    [
        (
            cobweb.ChainReport(2, 5, 5, True),
            "ChainReport(chain_count=2, min_length=5, max_length=5, graded=True)",
        ),
        (
            cobweb.verify.CheckFailure("law", "(k, n) = (1, 2)", "1", "2"),
            "CheckFailure(identity='law', inputs='(k, n) = (1, 2)', expected='1', actual='2')",
        ),
    ],
    ids=["ChainReport", "CheckFailure"],
)
def test_value_types_behave_as_frozen_dataclasses(value, text):
    fields = [getattr(value, name) for name in type(value).__slots__]
    twin = type(value)(*fields)
    assert twin == value and twin is not value and hash(twin) == hash(value)
    assert type(value)(*fields[:-1], "other") != value
    assert value != tuple(fields)
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, type(value).__slots__[0], fields[0])
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and type(clone) is type(value)


def test_records_build_from_keywords():
    assert cobweb.ChainReport(
        graded=True, max_length=5, min_length=5, chain_count=2
    ) == cobweb.ChainReport(2, 5, 5, True)
    assert cobweb.verify.CheckFailure(
        "law", "(k, n) = (1, 2)", actual="2", expected="1"
    ) == cobweb.verify.CheckFailure("law", "(k, n) = (1, 2)", "1", "2")
    diagram = cobweb.build_grid_hasse(1, 2)
    fields = {name: getattr(diagram, name) for name in cobweb.HasseDiagram.__slots__}
    twin = cobweb.HasseDiagram(**fields)
    assert {name: getattr(twin, name) for name in fields} == fields
    assert list(twin.cover_edges()) == list(diagram.cover_edges())


@pytest.mark.parametrize(
    "record, values",
    [
        (cobweb.ChainReport, (2, 5, 5, True)),
        (cobweb.verify.CheckFailure, ("law", "(k, n) = (1, 2)", "1", "2")),
        (cobweb.HasseDiagram, ([(0, 0)], len, list, ((0, 0),))),
    ],
    ids=["ChainReport", "CheckFailure", "HasseDiagram"],
)
def test_records_take_each_field_once(record, values):
    names = record.__slots__
    message = rf"{record.__name__} takes each of \({', '.join(map(repr, names))}\) once"
    for args, kwargs in [
        (values[:-1], {}),  # the last field missing
        (values, {"extra": 0}),  # an unknown keyword
        (values, {names[0]: values[0]}),  # a field by position and by keyword
        (values + (0,), {}),  # one value too many
    ]:
        with pytest.raises(TypeError, match=message):
            record(*args, **kwargs)


def test_hasse_diagrams_are_equal_only_to_themselves():
    diagram, twin = cobweb.build_grid_hasse(1, 2), cobweb.build_grid_hasse(1, 2)
    assert diagram == diagram and diagram != twin
    assert len({diagram, twin, diagram}) == 2
    with pytest.raises(AttributeError):
        diagram.successors = twin.successors
