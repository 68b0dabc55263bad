"""Guards on the package source that need only its runtime dependencies:
what src/ imports, how long its lines are, and what the package exports.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import sixvertex

ROOT = Path(__file__).resolve().parents[1]


def test_src_imports_only_the_standard_library_and_its_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in project["dependencies"]}
    assert declared == {"numpy"}
    allowed = set(sys.stdlib_module_names) | declared | {"sixvertex"}
    for path in sorted((ROOT / "src" / "sixvertex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"


def test_src_lines_are_at_most_100_characters():
    for path in sorted((ROOT / "src" / "sixvertex").glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            assert len(line) <= 100, f"{path.name}:{number} has {len(line)} characters"


def test_every_exported_name_resolves_and_is_listed_once():
    names = sixvertex.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [n for n in names if not hasattr(sixvertex, n)] == []
    exec("from sixvertex import *", {})  # an unresolved name is an AttributeError here
