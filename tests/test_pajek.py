import io
import os
import random
import tracemalloc

import numpy as np
import pytest

from ledgergraph import pajek
from ledgergraph.graph import DirectedGraph
from ledgergraph.pajek import PajekParseError, dumps, loads, read_pajek, write_pajek

from synth import graph_from, random_digraph


def test_golden_labeled_two_nodes():
    g = graph_from([(0, 1)], labels=["a", "b"])
    assert dumps(g, include_labels=True) == '*Vertices 2\n1 "a"\n2 "b"\n*Arcs\n1 2\n'


def test_golden_empty_graph():
    assert dumps(DirectedGraph()) == "*Vertices 0\n*Arcs\n"


def test_golden_three_cycle_no_labels():
    g = graph_from([(0, 1), (1, 2), (2, 0)])
    assert dumps(g) == "*Vertices 3\n*Arcs\n1 2\n2 3\n3 1\n"


def test_arc_lines_are_sorted():
    g = graph_from([(3, 0), (0, 3), (1, 2), (0, 1)])
    assert dumps(g) == "*Vertices 4\n*Arcs\n1 2\n1 4\n2 3\n4 1\n"


def test_roundtrip_labeled():
    g = graph_from([(0, 1)], labels=["a", "b"])
    back = loads(dumps(g, include_labels=True))
    assert back.node_count == 2
    assert sorted(back.arcs()) == [(0, 1)]
    assert back.address_of(0) == "a" and back.address_of(1) == "b"


def test_out_of_range_index_mentions_line():
    with pytest.raises(PajekParseError) as exc:
        loads("*Vertices 2\n*Arcs\n1 3\n")
    assert "index out of range" in str(exc.value)
    assert "line 3" in str(exc.value)
    assert exc.value.line == 3


def test_edges_section_is_symmetric():
    g = loads("*Vertices 2\n*Edges\n1 2\n")
    assert sorted(g.arcs()) == [(0, 1), (1, 0)]


def test_bad_header():
    with pytest.raises(PajekParseError):
        loads("Vertices 2\n*Arcs\n")
    with pytest.raises(PajekParseError):
        loads("*Vertices two\n*Arcs\n")


def test_non_integer_arc_token():
    with pytest.raises(PajekParseError) as exc:
        loads("*Vertices 2\n*Arcs\n1 x\n")
    assert exc.value.line == 3


def test_incomplete_labels_rejected():
    with pytest.raises(PajekParseError):
        loads('*Vertices 2\n1 "a"\n*Arcs\n')


def test_labels_with_quote_rejected_on_write():
    g = graph_from([(0, 1)], labels=['he"llo', "b"])
    with pytest.raises(ValueError):
        dumps(g, include_labels=True)


def test_unlabeled_write_requires_no_labels_flag():
    g = graph_from([(0, 1)])
    with pytest.raises(ValueError):
        dumps(g, include_labels=True)


@pytest.mark.parametrize("seed", range(12))
def test_roundtrip_random(seed):
    rng = random.Random(seed)
    n = rng.randrange(0, 40)
    m = rng.randrange(0, n * (n - 1) + 1) if n > 1 else 0
    labeled = rng.random() < 0.5
    g = random_digraph(n, m, seed, labels=labeled)
    text = dumps(g, include_labels=labeled)
    back = loads(text)
    assert back.node_count == g.node_count
    assert sorted(back.arcs()) == sorted(g.arcs())
    if labeled:
        assert [back.address_of(i) for i in range(n)] == [g.address_of(i) for i in range(n)]
    # serialization is stable
    assert dumps(back, include_labels=labeled) == text


def test_unlabeled_form_is_smaller_with_hex_addresses():
    # the size win the format exists for: drop forty-char labels
    import json

    rng = random.Random(7)
    addrs = ["0x" + "".join(rng.choices("0123456789abcdef", k=40)) for _ in range(300)]
    g = graph_from([(rng.randrange(300), rng.randrange(300)) for _ in range(900)], 300, addrs)
    labeled = dumps(g, include_labels=True)
    bare = dumps(g)
    assert len(bare) < len(labeled)
    # and both beat a naive JSON arc list carrying the address strings
    as_json = json.dumps(
        [[g.address_of(a), g.address_of(b)] for a, b in sorted(g.arcs())]
    )
    assert len(labeled) < len(as_json)
    assert len(bare) < len(as_json) / 3


def test_write_to_stream():
    g = DirectedGraph(1)
    buf = io.StringIO()
    write_pajek(g, buf)
    assert buf.getvalue() == "*Vertices 1\n*Arcs\n"
    assert read_pajek(io.StringIO(buf.getvalue())).node_count == 1


_GOOD = "".join(f"{i % 5 + 1} {(i * 3) % 5 + 1}\n" for i in range(60))

# every message and line number below was taken from the line-by-line parser
MALFORMED = [
    ("*Vertices 2\n*Arcs\n1 x\n", "expected integer arc endpoint, got 'x', line 3", 3),
    ("*Vertices 2\n*Arcs\n1 1.5\n", "expected integer arc endpoint, got '1.5', line 3", 3),
    ("*Vertices 3\n*Arcs\n1 2\n1 2 3\n", "arc line must be '<src> <dst>', got '1 2 3', line 4", 4),
    ("*Vertices 2\n*Arcs\n1\n", "arc line must be '<src> <dst>', got '1', line 3", 3),
    # a 3-token and a 1-token line hold an even number of tokens together
    ("*Vertices 3\n*Arcs\n1 2 3\n1\n", "arc line must be '<src> <dst>', got '1 2 3', line 3", 3),
    ("*Vertices 3\n*Arcs\n2 3\n1\n2 3 1\n", "arc line must be '<src> <dst>', got '1', line 4", 4),
    ("*Vertices 2\n*Arcs\n0 1\n", "index out of range, line 3", 3),
    ("*Vertices 2\n*Arcs\n1 2\n2 3\n", "index out of range, line 4", 4),
    ("*Vertices 2\n*Arcs\n-1 2\n", "index out of range, line 3", 3),
    ("*Vertices 2\n*Arcs\n1 99999999999999999999\n", "index out of range, line 3", 3),
    ("*Vertices 2\r\n*Arcs\r\n1 3\r\n", "index out of range, line 3", 3),
    ("*Vertices 5\n*Arcs\n" + _GOOD + "2 6\n" + _GOOD, "index out of range, line 63", 63),
    ("*Vertices 5\n*Arcs\n" + _GOOD + "2 4 1\n" + _GOOD,
     "arc line must be '<src> <dst>', got '2 4 1', line 63", 63),
    ("*Vertices 2\n*Arcs\n1 2\n*Matrix\n", "unsupported section '*Matrix', line 4", 4),
    ("*Vertices 2\n*Partition x\n", "unsupported section '*Partition x', line 2", 2),
    ("*Vertices 2\n", "missing '*Arcs' or '*Edges' section, line 1", 1),
    ('*Vertices 2\n1 "a"\n2 "b"\n', "missing '*Arcs' or '*Edges' section, line 3", 3),
    ('*Vertices 2\n1 "a"\n*Arcs\n',
     "labels must cover vertices 1..2 exactly once, got 1 labels, line 3", 3),
    ('*Vertices 2\n1 "a"\n2 "a"\n*Arcs\n1 2\n', "duplicate label 'a', line 4", 4),
    ('*Vertices 2\n1 "a"\n1 "b"\n*Arcs\n', "vertex 1 labeled twice, line 3", 3),
    ('*Vertices 2\n3 "a"\n*Arcs\n', "index out of range (3 of 2), line 2", 2),
    ('*Vertices 2\n1 ""\n*Arcs\n', "empty vertex label, line 2", 2),
    ('*Vertices 2\nx "a"\n*Arcs\n', "expected integer vertex index, got 'x', line 2", 2),
    ("Vertices 2\n*Arcs\n", "expected '*Vertices N' header, got 'Vertices 2', line 1", 1),
    ("*Vertices two\n*Arcs\n", "expected integer vertex count, got 'two', line 1", 1),
    ("*Vertices -1\n*Arcs\n", "vertex count must be >= 0, got -1, line 1", 1),
    ("", "empty stream, expected '*Vertices N' header, line 1", 1),
]


@pytest.mark.parametrize("text,message,line", MALFORMED)
def test_malformed_document_error_parity(text, message, line):
    with pytest.raises(PajekParseError) as exc:
        loads(text)
    assert (str(exc.value), exc.value.line) == (message, line)


@pytest.mark.parametrize("text,arcs", [
    ("*Vertices 10\n*Arcs\n1_0 1\n", [(9, 0)]),  # int() accepts digit separators
    ("*Vertices 2\n*Arcs\n+1 ٢\n", [(0, 1)]),  # and signs and non-ASCII digits
])
def test_tokens_int_accepts_still_parse(text, arcs):
    assert sorted(loads(text).arcs()) == arcs


# valid arc blocks one edit away from `write_pajek`'s layout
NEAR_CANONICAL = [
    "1 2\n01 3\n",  # a leading zero
    "1  2\n2 3\n",  # two spaces
    " 1 2\n2 3\n",  # a leading space
    "1 2 \n2 3\n",  # a trailing space
    "1\t2\n2 3\n",  # a tab
    "1 2\r\n2 3\r\n",  # CRLF
    "1 2\n\n2 3\n",  # a blank line
    "1 2\n+1 3\n",  # a sign
    "1 2\n2 3",  # no final newline
    "1 2\n*Arcs\n2 3\n",  # a second *Arcs section
    "1 2\n*Edges\n2 3\n",  # an *Edges section after the arcs
]


def _line_parsed_arcs(text):
    n, ends, _ = pajek._read_lines(io.StringIO(text))
    return sorted(DirectedGraph(n, ends[0::2] - 1, ends[1::2] - 1).arcs())


@pytest.mark.parametrize("block", NEAR_CANONICAL)
def test_near_canonical_block_reads_as_the_line_parser_reads_it(block):
    text = "*Vertices 3\n*Arcs\n" + block
    assert pajek._arc_ends(block, 3) is None  # not the numpy path
    assert sorted(loads(text).arcs()) == _line_parsed_arcs(text)


@pytest.mark.parametrize("seed", range(8))
def test_written_arc_blocks_skip_the_line_parser(seed, monkeypatch):
    rng = random.Random(seed)
    n = rng.randrange(0, 40)
    labeled = rng.random() < 0.5
    g = random_digraph(n, rng.randrange(0, n * (n - 1) + 1) if n > 1 else 0, seed, labels=labeled)
    text = dumps(g, include_labels=labeled)
    parsed = []
    line_parser = pajek._read_lines

    def recording(stream):
        parsed.append(stream.getvalue())
        return line_parser(stream)

    monkeypatch.setattr(pajek, "_read_lines", recording)
    back = loads(text)
    assert parsed == [text.partition("\n*Arcs\n")[0] + "\n*Arcs\n"]  # the lines before the arcs
    assert sorted(back.arcs()) == sorted(g.arcs())


class TestReadPeak:
    """Reading a canonical file holds one arc-length endpoint array beside
    the document: a pattern check rather than a rendering of the block, and
    0-based endpoints made in place. The bound sits just above the 2.13 that
    measured; rendering and comparing the block peaked at 3.16."""

    N, M = 100_000, 300_000

    def test_read_peak(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "graph.net"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_pajek(DirectedGraph(self.N, rng.integers(0, self.N, self.M),
                                      rng.integers(0, self.N, self.M)), fh)
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as fh:
                g = read_pajek(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (g.tails, g.fwd_indptr, g.fwd_indices,
                                      g.rev_indptr, g.rev_indices))
        assert peak / held < 2.20


def test_arc_write_holds_no_copy_of_the_arcs():
    # each line is rendered from its key as it is written, so the peak does
    # not grow with the arc count
    keys = [(i // 7 + 1) << 32 | (i % 100_000 + 1) for i in range(200_000)]
    with open(os.devnull, "w", encoding="utf-8", newline="\n") as fh:
        tracemalloc.start()
        try:
            pajek.write_arc_keys(fh, 100_000, keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20
