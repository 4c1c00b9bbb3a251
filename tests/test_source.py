"""Checks on the package's source text, in place of a linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "fairdpfed").glob("*.py"))

# (module, name) imports kept although the module never uses them
UNUSED_ALLOWED = {("federation", "dual_clip")}


def unused_imports(source: str) -> list:
    """The names the module's import statements bind that none of its code
    reads (a `from __future__` import binds nothing)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    source = "import math\nimport os\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    assert unused_imports(source) == ["math", "dumps"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    unused = {(path.stem, name) for name in unused_imports(path.read_text())}
    assert unused <= UNUSED_ALLOWED


def test_allowed_unused_imports_are_still_read_by_name():
    """Each allowance holds only while perfbench's tests read the binding."""
    perfbench_tests = (ROOT / "perfbench" / "test_perfbench.py").read_text()
    for module, name in UNUSED_ALLOWED:
        assert f"{module}.{name}" in perfbench_tests
