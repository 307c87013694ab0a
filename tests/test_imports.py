"""Every name a cs_smooth module imports is used in that module, and every
private module-level definition is referenced somewhere in the package
besides its own definition.

The package's ``__init__.py`` only re-exports, each name on first use, and an
import line marked ``# noqa: F401`` is kept on purpose, so neither is checked
for use.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cs_smooth"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module, lines: list[str]):
    """(bound name, line) of every import outside ``__future__`` and noqa lines."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            yield (alias.asname or alias.name).split(".")[0], node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imports = imported_names(tree, source.splitlines())
    assert [f"{name} (line {line})" for name, line in imports if name not in used] == []


def private_definitions(tree: ast.Module):
    """(name, node) of every module-level private function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def references(tree: ast.AST):
    """Every name read, attribute taken or name imported in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_definition_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    everywhere = Counter(name for tree in trees.values() for name in references(tree))
    dead = [
        f"{module}: {name}"
        for module, tree in sorted(trees.items())
        for name, node in private_definitions(tree)
        if everywhere[name] == Counter(references(node))[name]
    ]
    assert dead == []


def test_package_imports_a_module_on_first_use_of_its_names():
    code = (
        "import sys\n"
        "import cs_smooth\n"
        "assert [m for m in sys.modules if m.startswith('cs_smooth.')] == []\n"
        "from cs_smooth import *\n"
        "assert 'cs_smooth.fidelity' in sys.modules and fidelity_table.__module__ == 'cs_smooth.fidelity'\n"
        "assert set(cs_smooth.__all__) <= set(dir(cs_smooth))\n"
        "assert all(globals()[name] is getattr(cs_smooth, name) for name in cs_smooth.__all__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
