"""The public surface of lipfree is exactly what its own modules and the
acceptance tests use: every public module-level function or class must be
referenced by name outside its own body (imports do not count). The package
binds its modules lazily and resolves its exported names from their home
modules on each access, so a command runs only the modules it uses."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lipfree

TESTS = Path(__file__).resolve().parent
SOURCES = sorted((TESTS.parent / "src" / "lipfree").glob("*.py"))


def test_every_public_definition_is_used():
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    users = trees + [ast.parse((TESTS / "test_acceptance.py").read_text())]
    refs = {}  # name -> ids of the Name/Attribute nodes that use it
    for n in (n for tree in users for n in ast.walk(tree)):
        if isinstance(n, (ast.Name, ast.Attribute)):
            refs.setdefault(n.id if isinstance(n, ast.Name) else n.attr, set()).add(id(n))
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in zip(SOURCES, trees)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not refs.get(node.name, set()) - {id(n) for n in ast.walk(node)}
    ]
    assert not unused, f"public names used by no module or acceptance test: {unused}"


def test_all_matches_package_imports():
    import lipfree

    init = ast.parse((TESTS.parent / "src" / "lipfree" / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert [name for name in lipfree.__all__ if not hasattr(lipfree, name)] == []
    assert sorted(imported - set(lipfree.__all__)) == []


def test_exported_names_resolve_through_the_home_table(monkeypatch):
    for name, module in lipfree._HOME.items():
        home = importlib.import_module(f"lipfree.{module}")
        assert getattr(lipfree, name) is getattr(home, name), name
    assert set(lipfree.__all__) <= set(dir(lipfree))
    with pytest.raises(AttributeError, match="no_such_name"):
        lipfree.no_such_name
    monkeypatch.setattr(lipfree.free, "free_norm", patched := object())
    assert lipfree.free_norm is patched


def test_cli_names_resolve_through_their_home_modules(monkeypatch):
    """lipfree.cli.<name>, for each name its handlers call in another module,
    is that module's object, looked up on each access."""
    import lipfree.cli as cli

    tree = ast.parse(Path(cli.__file__).read_text())
    called = {
        (n.value.id, n.attr)
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id in cli._HOME.values()
    }
    assert called == {(module, name) for name, module in cli._HOME.items()}
    for name, module in cli._HOME.items():
        assert getattr(cli, name) is getattr(getattr(lipfree, module), name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name
    monkeypatch.setattr(lipfree.free, "free_norm", patched := object())
    assert cli.free_norm is patched


MODULES = [path.stem for path in SOURCES if not path.stem.startswith("__")]

# a module the package binds lazily keeps a subclass of ModuleType until its
# body runs on first use
STARTUP = """
import json, sys, types
def ran():
    return sorted(n for n, m in sys.modules.items() if n.startswith("lipfree") and type(m) is types.ModuleType)
import lipfree
stages = {"bound": sorted(k for k, v in vars(lipfree).items() if sys.modules.get("lipfree." + k) is v)}
stages["package"] = ran()
import lipfree.cli
stages["cli"] = ran()
lipfree.cli.main(["freenorm", *sys.argv[1:]])
stages["freenorm"] = ran()
lipfree.cli.main(["certify", "two-anchor", "--N", "5", "--out", sys.argv[-1]])
stages["certify"] = ran()
print(json.dumps(stages))
"""


def test_start_up_runs_only_the_modules_a_command_uses(tmp_path):
    """The package binds every module and runs none, import lipfree.cli runs
    two, freenorm runs what a norm needs but no certificate module, and a
    certify runs all ten, as the benchmark's warm-up op relies on."""
    space, element = tmp_path / "space.json", tmp_path / "mu.json"
    space.write_text(json.dumps({"labels": ["a", "b", "c"], "base": 0,
                                 "d": [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]}))
    element.write_text(json.dumps({"weights": {"b": "1", "c": "-1/2"}}))
    argv = [str(element), "--space", str(space), "--out", str(tmp_path / "out.json")]
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", STARTUP, *argv], env=env,
                          capture_output=True, text=True, check=True)
    stages = json.loads(proc.stdout)
    assert stages["bound"] == MODULES
    assert stages["package"] == ["lipfree"]
    assert stages["cli"] == ["lipfree", "lipfree.cli", "lipfree.scalars"]
    norm = ("cli", "free", "functions", "lp", "metric", "reports", "scalars")
    assert stages["freenorm"] == ["lipfree"] + [f"lipfree.{m}" for m in norm]
    assert stages["certify"] == ["lipfree"] + [f"lipfree.{m}" for m in MODULES]
