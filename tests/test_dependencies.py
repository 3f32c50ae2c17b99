"""numpy is ledgergraph's only runtime dependency: every other import in
the package is the standard library or the package itself."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_numpy_is_the_only_third_party_import():
    modules = sorted((ROOT / "src" / "ledgergraph").glob("*.py"))
    assert modules
    third_party = {
        path.name: sorted(_top_level_imports(path) - sys.stdlib_module_names - {"numpy"})
        for path in modules
    }
    assert {name: found for name, found in third_party.items() if found} == {}


def test_pyproject_lists_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.split(r"[<>=!~;\[ ]", dep)[0] for dep in dependencies] == ["numpy"]
