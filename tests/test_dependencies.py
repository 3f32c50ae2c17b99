"""numpy is ledgergraph's only runtime dependency: every other import in
the package is the standard library or the package itself. And the
package calls no BLAS routine through it."""

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


_BLAS_NAMES = {"dot", "vdot", "inner", "outer", "matmul", "tensordot", "einsum", "linalg"}


def test_no_blas_call():
    # `ledgergraph` starts with OPENBLAS_NUM_THREADS=1 because it calls no
    # BLAS or LAPACK routine; a call like these would run single-threaded
    found = []
    for path in sorted((ROOT / "src" / "ledgergraph").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno}: import {alias.name}"
                          for alias in node.names if alias.name in _BLAS_NAMES]
    assert found == []
