"""Pajek reader/writer.

The on-disk format that keeps big transaction graphs small: addresses are
replaced by 1-based integer indices, so arc lines are a few bytes instead
of two 40-character hex strings. Only the subset we emit is supported:

    *Vertices N
    1 "label"          (optional, exactly one line per vertex, in order)
    ...
    *Arcs
    s d                (one line per arc, 1-based)
    *Edges             (accepted on read; each line adds both directions)
    a b

Files are UTF-8 with LF line endings. Arc lines are written sorted by (tail,
head), so output is byte-stable for a given graph; `write_arc_keys` renders
each line straight from its int key tail << 32 | head and needs only the
standard library. The reader parses an arc block laid out that way
with numpy, once one regular expression has found no line out of that
layout; the lines before it, and any other document, go through a line
parser, which also names the first bad line of a malformed document.
"""

from __future__ import annotations

import io
import re
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:
    import numpy as np
    from .graph import DirectedGraph


class PajekParseError(ValueError):
    """Malformed Pajek input; `line` is 1-based."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message}, line {line}")
        self.line = line


def write_pajek(graph: DirectedGraph, stream: IO[str], include_labels: bool = False) -> None:
    """Serialize `graph` to `stream`.

    With `include_labels` the address table is written as vertex lines;
    every node must then carry a label. Labels are off by default: that is
    where the format's space saving comes from.
    """
    if include_labels and not graph.has_labels():
        raise ValueError("cannot write labels: graph has unlabeled nodes")
    keys = (graph.tails + 1) << 32 | (graph.fwd_indices + 1)
    write_arc_keys(stream, graph.node_count, keys.tolist(),
                   map(graph.address_of, range(graph.node_count)) if include_labels else None)


def write_arc_keys(stream: IO[str], node_count: int, keys: Iterable[int],
                   labels: Optional[Iterable[str]] = None) -> None:
    """Write `node_count` nodes, with `labels` as vertex lines if given, and
    one arc line per key tail << 32 | head (1-based vertex numbers), in the
    order of `keys`, which should be sorted. Each line is rendered from its
    key as it is written, so the writer holds no copy of the arcs."""
    stream.write(f"*Vertices {node_count}\n")
    for node, label in enumerate(labels or (), start=1):
        if '"' in label or "\n" in label or "\r" in label:
            raise ValueError(f"label {label!r} contains characters Pajek cannot quote")
        stream.write(f'{node} "{label}"\n')
    stream.write("*Arcs\n")
    stream.writelines(f"{key >> 32} {key & 0xFFFFFFFF}\n" for key in keys)


def dumps(graph: DirectedGraph, include_labels: bool = False) -> str:
    buf = io.StringIO()
    write_pajek(graph, buf, include_labels=include_labels)
    return buf.getvalue()


def _parse_int(token: str, what: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise PajekParseError(f"expected integer {what}, got {token!r}", lineno) from None


def _parse_label_line(line: str, lineno: int) -> tuple[int, str]:
    parts = line.split(None, 1)
    if len(parts) != 2:
        raise PajekParseError("vertex line must be '<index> \"<label>\"'", lineno)
    index = _parse_int(parts[0], "vertex index", lineno)
    raw = parts[1].strip()
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        label = raw[1:-1]
    else:
        label = raw  # tolerate unquoted labels from other tools
    if not label:
        raise PajekParseError("empty vertex label", lineno)
    return index, label


def read_pajek(stream: IO[str]) -> DirectedGraph:
    """Parse a Pajek document into a DirectedGraph.

    `*Edges` sections are treated as symmetric arcs. Raises
    PajekParseError (with the offending line number) on malformed input.
    """
    from .graph import DirectedGraph
    text = stream.read()
    head, marker, block = text.partition("\n*Arcs\n")
    n, ends, labels = _read_lines(io.StringIO(head + marker))  # all of it if no marker
    if marker:
        ends = None if len(ends) else _arc_ends(block, n)
        if ends is None:  # arcs before the block, or a block numpy cannot take
            n, ends, labels = _read_lines(io.StringIO(text))
    del text, block  # the document is not needed while the graph is built
    ends -= 1  # 0-based, in place
    return DirectedGraph(n, ends[0::2], ends[1::2], labels)


def _arc_ends(block: str, n: int) -> Optional[np.ndarray]:
    """The 1-based endpoints of an arc block laid out exactly as
    `write_pajek` lays one out, all in 1..n; None for any other block."""
    import numpy as np
    if block and (block[-1] != "\n" or _NOT_ARC_LINE.search(block, 0, len(block) - 1)):
        return None  # np.fromstring would misread another layout, or stop short
    ends = np.fromstring(block, dtype=np.int64, sep=" ")
    return ends if ends.max(initial=0) <= n else None  # a huge endpoint saturates


# the start of any line that is not `<src> <dst>` in `write_arc_keys`' layout
_NOT_ARC_LINE = re.compile(r"^(?![1-9][0-9]* [1-9][0-9]*$)", re.MULTILINE)


def _read_lines(stream: IO[str]) -> tuple[int, np.ndarray, Optional[list[str]]]:
    """Node count, 1-based arc endpoints and labels of any document of the
    subset, parsed line by line; raises PajekParseError at the first bad
    line."""
    import numpy as np
    lines: Iterator[tuple[int, str]] = (
        (i, line.rstrip("\n").rstrip("\r")) for i, line in enumerate(stream, start=1)
    )

    lineno, header = next(lines, (0, None))
    if header is None:
        raise PajekParseError("empty stream, expected '*Vertices N' header", 1)
    parts = header.split()
    if len(parts) != 2 or parts[0].lower() != "*vertices":
        raise PajekParseError(f"expected '*Vertices N' header, got {header!r}", lineno)
    n = _parse_int(parts[1], "vertex count", lineno)
    if n < 0:
        raise PajekParseError(f"vertex count must be >= 0, got {n}", lineno)

    labels: dict[int, str] = {}
    ordered: Optional[list[str]] = None
    ends: list[int] = []
    section = "vertices"

    def apply_labels() -> Optional[list[str]]:
        if not labels:
            return None
        if len(labels) != n:  # each index is in 1..n and labeled once, so all are
            raise PajekParseError(
                f"labels must cover vertices 1..{n} exactly once, got {len(labels)} labels",
                lineno,
            )
        seen: set[str] = set()
        for index in range(1, n + 1):
            if labels[index] in seen:
                raise PajekParseError(f"duplicate label {labels[index]!r}", lineno)
            seen.add(labels[index])
        return [labels[index] for index in range(1, n + 1)]

    for lineno, line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("*"):
            keyword = stripped.split()[0].lower()
            if keyword not in ("*arcs", "*edges"):
                raise PajekParseError(f"unsupported section {stripped!r}", lineno)
            if section == "vertices":
                ordered = apply_labels()
            section = keyword[1:]
            continue
        if section == "vertices":
            index, label = _parse_label_line(stripped, lineno)
            if not (1 <= index <= n):
                raise PajekParseError(f"index out of range ({index} of {n})", lineno)
            if index in labels:
                raise PajekParseError(f"vertex {index} labeled twice", lineno)
            labels[index] = label
        else:
            parts = stripped.split()
            if len(parts) != 2:
                raise PajekParseError(f"arc line must be '<src> <dst>', got {stripped!r}", lineno)
            a = _parse_int(parts[0], "arc endpoint", lineno)
            b = _parse_int(parts[1], "arc endpoint", lineno)
            if not (1 <= a <= n and 1 <= b <= n):
                raise PajekParseError("index out of range", lineno)
            ends += (a, b, b, a) if section == "edges" and a != b else (a, b)

    if section == "vertices":
        ordered = apply_labels()
        if n > 0 or labels:
            # a well-formed document always carries an *Arcs or *Edges marker
            raise PajekParseError("missing '*Arcs' or '*Edges' section", lineno)
    return n, np.array(ends, dtype=np.int64), ordered


def loads(text: str) -> DirectedGraph:
    return read_pajek(io.StringIO(text))
