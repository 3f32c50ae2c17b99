"""The package keeps to the grammar of the oldest Python that
pyproject.toml admits."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)


def test_pyproject_admits_the_oldest_version_checked():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requires = tomllib.load(fh)["project"]["requires-python"]
    assert requires == ">=%d.%d" % OLDEST


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "ledgergraph").glob("*.py")),
                         ids=lambda path: path.name)
def test_module_parses_with_the_oldest_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
