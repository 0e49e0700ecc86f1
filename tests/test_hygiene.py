"""Static checks over the package source: certificates are typed raises that
survive `python -O`, every module-level import is used, every module-level
name is read by the package or its tests, or exported, and only `cli.main`
prints."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qec"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [n.lineno for n in ast.walk(_tree(path)) if isinstance(n, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_module_level_imports_are_read(path):
    tree = _tree(path)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    assert sorted(imported - read) == []


def _defined_names(tree):
    """Module-level functions, classes and assigned names, dunders skipped."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("__")}


def _read_names(tree):
    """Names a module reads: loaded names, attribute names, and names it
    imports from another module."""
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(alias.name for alias in n.names)
    return read


def test_module_level_names_are_read_or_exported():
    import qec

    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    read = set(qec.__all__)
    for path in MODULES + tests:
        if path.name != "__init__.py":
            read |= _read_names(_tree(path))
    unread = sorted(
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _defined_names(_tree(path)) - read
    )
    assert unread == []


def _print_calls(node):
    return {
        n.lineno
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "print"
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_main_prints(path):
    # subcommands and suites return their outcome; cli.main alone prints it
    tree = _tree(path)
    allowed = set()
    if path.name == "cli.py":
        (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
        allowed = _print_calls(main)
        assert allowed, "cli.main prints the answer and the error line"
    stray = sorted(_print_calls(tree) - allowed)
    assert stray == [], f"{path.name}: print outside cli.main at lines {stray}"
