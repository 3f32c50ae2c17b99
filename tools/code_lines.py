"""Count the code lines of Python modules.

A code line holds at least one token that is neither a comment nor part
of a docstring (the string that opens a module, class or function body).
Blank lines do not count; a statement or string spread over several lines
counts each of them.

    python tools/code_lines.py [PATH ...]

Each path is a module or a directory searched for modules; the default is
`src/` beside this script. Prints each module's count, then the total.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in `source`."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path(__file__).resolve().parent.parent / "src"]
    modules = sorted(module for path in paths
                     for module in ([path] if path.is_file() else path.rglob("*.py")))
    total = 0
    for module in modules:
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
