"""`tools/code_lines.py`, the counter behind every code-line figure quoted
for `src/`."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    return (x
            + 1)


class C:
    """Class docstring."""

    text = """a string, not a docstring,
    over two lines"""
'''


def test_counts_each_line_of_code_and_no_docstring_or_comment():
    # import, def, the two lines of the return, class, the two lines of text
    assert code_lines.code_lines(SOURCE) == 7
