"""The package surface: the lazy namespace, and what a command process loads."""

import ast
import importlib
import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import definetti

SRC = Path(__file__).resolve().parents[1] / "src"

# modules a `definetti figure` or `compute su2-delta` process never needs
NOT_AT_START = (
    "dataclasses",
    "numpy",
    "definetti.heisenberg",
    "definetti.symmetric",
    "definetti.weights",
    "definetti.radicals",
    "definetti.oracle",
    "definetti.verify",
)
# the modules that a `verify` command adds, numpy aside
VERIFY = ("definetti.heisenberg", "definetti.oracle", "definetti.symmetric", "definetti.verify", "definetti.weights")


def test_namespace_resolves_every_public_name():
    for name in definetti.__all__:
        obj = getattr(definetti, name)
        assert obj.__module__.startswith("definetti."), name
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
    assert set(definetti.__all__) <= set(dir(definetti))
    assert {"su2_cg", "heisenberg", "__version__"} <= set(dir(definetti))
    assert definetti.heisenberg is sys.modules["definetti.heisenberg"]
    namespace = {}
    exec("from definetti import *", namespace)
    assert set(definetti.__all__) <= set(namespace)
    for name in definetti.__all__:
        assert namespace[name] is getattr(definetti, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        definetti.no_such_name  # noqa: B018


def test_namespace_follows_a_patched_submodule(monkeypatch):
    # names are looked up on every access, never cached in the package
    from definetti import su2_cg

    def patched(*args):
        return None

    monkeypatch.setattr(su2_cg, "delta_su2", patched)
    assert definetti.delta_su2 is patched
    monkeypatch.undo()
    assert definetti.delta_su2 is su2_cg.delta_su2 is not patched
    assert "delta_su2" not in vars(definetti)


_PROBE = """
import sys
import definetti.cli
at_import = sorted(sys.modules)
import io, json
from contextlib import redirect_stdout
argv = sys.argv[1:]
with redirect_stdout(io.StringIO()):
    codes = [definetti.cli.main(argv)] if argv else []
print(json.dumps({"at_import": at_import, "after": sorted(sys.modules), "codes": codes}))
"""


def _child(code: str, *argv: str, check: bool = True) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter that imports the package from SRC."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=check)


def _modules(*argv):
    return json.loads(_child(_PROBE, *argv).stdout)


@cache
def _numpy_alone() -> frozenset[str]:
    """The modules a process holds after importing numpy and nothing else."""
    return frozenset(json.loads(_child("import json, sys, numpy; print(json.dumps(sorted(sys.modules)))").stdout))


def test_cli_import_loads_only_the_coupling_path():
    probe = _modules()
    loaded = set(probe["at_import"])
    assert not loaded & set(NOT_AT_START), loaded & set(NOT_AT_START)
    assert {m for m in loaded if m.startswith("definetti")} == {
        "definetti",
        "definetti.cli",
        "definetti.exact",
        "definetti.report",
        "definetti.su2_cg",
    }


def test_import_interns_no_twoj():
    # TwoJ's intern table fills on first use, so importing costs nothing
    probe = "import definetti.cli, definetti.verify, definetti.su2_cg as m; print(len(m._interned))"
    assert _child(probe).stdout == "0\n"


@pytest.mark.parametrize("modules", ["definetti, definetti.verify", "definetti.oracle"])
def test_importing_the_checks_loads_no_numpy(modules):
    # numpy is imported inside the float oracles and checks that use it
    assert _child(f"import sys, {modules}; print('numpy' in sys.modules)").stdout == "False\n"


@pytest.mark.parametrize(
    "argv, added",
    [
        (["figure", "1", "--r-max", "2"], set()),
        (["compute", "su2-delta", "j1=1/2", "j2=1/2", "j=1", "m2=1/2", "r=0"], set()),
        (["figure", "3", "--r-max", "2", "--delta-max", "1"], {"definetti.heisenberg"}),
        # the exact suites need no numpy; the float ones load it, so the
        # lazy imports hide no dependency
        (["verify", "weights"], set(VERIFY)),
        (["verify", "cg"], set(VERIFY)),
        (["verify", "symmetric"], set(VERIFY)),
        (["verify", "all"], {*VERIFY, "numpy"}),
        (["verify", "heisenberg"], {*VERIFY, "numpy"}),
        (["verify", "mc"], {*VERIFY, "numpy"}),
    ],
)
def test_a_command_adds_only_what_it_computes_with(argv, added):
    probe = _modules(*argv)
    assert probe["codes"] == [0]
    new = set(probe["after"]) - set(probe["at_import"])
    assert {m for m in new if m.startswith("definetti") or m in NOT_AT_START} == added
    assert not set(probe["after"]) & (set(NOT_AT_START) - added)
    # the theorem check integrates by a fixed rule and draws its state with
    # the standard library, so no command loads numpy's random generators
    # beyond what importing numpy itself loads
    assert "numpy.random" not in set(probe["after"]) - _numpy_alone()


_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # import numpy raises ModuleNotFoundError
from definetti.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "suite, failed, last",
    [
        ("weights", 0, "6/6 checks passed"),
        ("cg", 0, "6/6 checks passed"),
        ("symmetric", 0, "9/9 checks passed"),
        ("heisenberg", 3, "4/7 checks passed"),
        ("mc", 3, "0/3 checks passed"),
    ],
    ids=("weights", "cg", "symmetric", "heisenberg", "mc"),
)
def test_without_numpy_only_the_float_checks_fail(suite, failed, last):
    # the heisenberg suite's three float checks are its truncated-Fock ones,
    # and every mc check integrates over the sphere in floats; each fails on
    # its own line, and no traceback reaches stderr
    out = _child(_WITHOUT_NUMPY, "verify", suite, check=False)
    lines = out.stdout.splitlines()
    assert (out.returncode, lines[-1], out.stderr) == (1 if failed else 0, last, "")
    fails = [line for line in lines if line.startswith("[FAIL]")]
    assert len(fails) == failed and all("ModuleNotFoundError" in line for line in fails), out.stdout


@pytest.mark.parametrize("module", ["weights", "su2_cg", "symmetric", "heisenberg"])
def test_lazy_namespace_lists_each_module_all(module):
    # the lazy namespace cannot import a module to read its __all__, so it
    # keeps its own listing; the two must name the same public names
    mod = importlib.import_module(f"definetti.{module}")
    assert set(definetti._SOURCES[module]) == set(mod.__all__)
    assert len(definetti._SOURCES[module]) == len(mod.__all__)


@pytest.mark.parametrize(
    "path",
    sorted((SRC / "definetti").glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")),
    ids=lambda p: p.stem,
)
def test_every_module_level_import_is_used(path):
    # a name a module imports at its top level and never reads again is a
    # leftover of deleted code
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# code that only the benchmark's tracer still reads; a later change deletes
# it, which stays a pure deletion while no other module reads these names
BENCHMARK_ONLY = {"RadicalSum", "radicals", "split_square", "TRIAL_DIVISOR_BOUND", "_fact"}


def _benchmark_only_reads(source: str) -> set[str]:
    """The BENCHMARK_ONLY names that source reads and does not define at
    its top level: as names, attributes, imported names or modules."""
    tree = ast.parse(source)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.ImportFrom) and node.module:
            read.add(node.module.rpartition(".")[2])
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return (read - defined) & BENCHMARK_ONLY


def test_benchmark_only_code_is_read_by_no_other_module():
    assert _benchmark_only_reads("from .exact import split_square") == {"split_square"}
    assert _benchmark_only_reads("from . import radicals") == {"radicals"}
    assert _benchmark_only_reads("from .radicals import X\nsu2_cg._fact(3)") == {"radicals", "_fact"}
    assert _benchmark_only_reads("_fact = 1\nprint(_fact, 'split_square')") == set()
    readers = {
        path.name: names
        for path in sorted((SRC / "definetti").glob("*.py"))
        if path.name != "radicals.py" and (names := _benchmark_only_reads(path.read_text()))
    }
    assert not readers, readers


def _imports_dataclasses(source: str) -> bool:
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "dataclasses" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "dataclasses":
            return True
    return False


def test_no_module_imports_dataclasses():
    # the value types share report._Frozen; a dataclass would be a second
    # kind of value type, and builds its class at every import
    assert _imports_dataclasses("from dataclasses import dataclass")
    assert _imports_dataclasses("def f():\n    import dataclasses")
    assert not _imports_dataclasses("from .report import _Frozen\nx = 'dataclasses'")
    readers = [
        path.name for path in sorted((SRC / "definetti").glob("*.py")) if _imports_dataclasses(path.read_text())
    ]
    assert not readers, readers


def _second_value_type_names(source: str) -> set[str]:
    """The names of a second value-type mechanism that source reads:
    collections.namedtuple, or per-type slot setters."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found & {"namedtuple", "_slot_setters"}


def test_no_module_builds_a_namedtuple_or_slot_setters():
    # every value type fills its slots through report._Frozen; BoundPair is
    # a typing.NamedTuple, which callers unpack
    assert _second_value_type_names("from collections import namedtuple") == {"namedtuple"}
    assert _second_value_type_names("import collections\nP = collections.namedtuple('P', 'x')") == {"namedtuple"}
    assert _second_value_type_names("def _slot_setters(cls): pass") == {"_slot_setters"}
    assert not _second_value_type_names("from typing import NamedTuple\nx = 'namedtuple'")
    readers = {
        path.name: names
        for path in sorted((SRC / "definetti").glob("*.py"))
        if (names := _second_value_type_names(path.read_text()))
    }
    assert not readers, readers
