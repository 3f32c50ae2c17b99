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


def _component_literal(node: ast.AST) -> bool:
    """A `"..._main"` string, or a tuple, list or set holding one."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value.endswith("_main")
    return isinstance(node, (ast.Tuple, ast.List, ast.Set)) and any(
        _component_literal(elt) for elt in node.elts)


def test_one_stage_timer_and_one_component_mapping():
    # phase times come from `ledgergraph._stage` alone, and only `SamplePlan`
    # reads its `component` name against the "weak_main"/"strong_main" spelling
    found = []
    for path in sorted((ROOT / "src" / "ledgergraph").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = {"__init__.py": "_stage", "metrics.py": "SamplePlan"}.get(path.name)
        tree.body = [node for node in tree.body
                     if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "perf_counter" \
                    or isinstance(node, ast.Name) and node.id == "perf_counter" \
                    or isinstance(node, ast.alias) and node.name == "perf_counter":
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: perf_counter")
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(isinstance(side, ast.Attribute) and side.attr == "component"
                       for side in sides) and any(map(_component_literal, sides)):
                    found.append(f"{path.name}:{node.lineno}: .component against a _main name")
    assert found == []


def test_one_distinct_keys_spelling():
    # `graph._distinct` is the one spelling of "sorted distinct keys"; only
    # the twin draw's first sightings, in draw order, need `np.unique`
    found = []
    for path in sorted((ROOT / "src" / "ledgergraph").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [f"{path.name}:{getattr(top, 'name', node.lineno)}"
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute) and node.func.attr == "unique"]
    assert found == ["nullmodel.py:erdos_renyi"]


def _subscript_attr(node: ast.AST) -> str:
    """`y` of an `x[….y]` subscript, else ""."""
    inner = node.slice if isinstance(node, ast.Subscript) else None
    return inner.attr if isinstance(inner, ast.Attribute) else ""


def test_metrics_takes_the_projection_and_the_cut_from_the_graph():
    # `DirectedGraph.undirected_edges` lists the undirected projection and
    # `graph._masked_arcs` cuts a subgraph's arcs: metrics spells neither
    tree = ast.parse((ROOT / "src" / "ledgergraph" / "metrics.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.alias) and node.name == "_distinct" \
                or isinstance(node, ast.Name) and node.id == "_distinct" \
                or isinstance(node, ast.Attribute) and node.attr == "_distinct":
            found.append(f"metrics.py:{getattr(node, 'lineno', '?')}: _distinct")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd) and sorted(
                map(_subscript_attr, (node.left, node.right))) == ["fwd_indices", "tails"]:
            found.append(f"metrics.py:{node.lineno}: arc mask")
    assert found == []


def test_only_hub_load_cuts_a_component():
    # ASPL and a strong main component's clustering read the label mask on
    # the graph itself; `DirectedGraph.component` is called by hub load alone
    found = []
    for path in sorted((ROOT / "src" / "ledgergraph").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [f"{path.name}:{getattr(top, 'name', node.lineno)}"
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute) and node.func.attr == "component"]
    assert found == ["metrics.py:load_centrality"]


_HTTP_LIBRARIES = ("http.client", "urllib.request", "requests")


def _imported_names(node: ast.AST) -> list[str]:
    """Every dotted name an import statement may load."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_fetch_starts_without_an_http_library():
    # requests go over `fetch._Connection` on `socket`; `ssl` is loaded only
    # inside a function, for an https:// explorer
    found = []
    for path in sorted((ROOT / "src" / "ledgergraph").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_functions = {id(node) for function in ast.walk(tree)
                        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(function)}
        for node in ast.walk(tree):
            for name in _imported_names(node):
                if any(name == lib or name.startswith(lib + ".") for lib in _HTTP_LIBRARIES):
                    found.append(f"{path.name}:{node.lineno}: import {name}")
                elif name == "ssl" and id(node) not in in_functions:
                    found.append(f"{path.name}:{node.lineno}: ssl at module level")
    assert found == []
