"""The public surface of lipfree is exactly what its own modules and the
acceptance tests use: every public module-level function or class must be
referenced by name outside its own body (imports do not count)."""

import ast
from pathlib import Path

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
