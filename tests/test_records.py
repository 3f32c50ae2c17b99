import io
import json
import random
import re

import pytest

from ledgergraph import records
from ledgergraph.records import (
    RecordSchemaError,
    TransactionRecord,
    build_graph,
    ingest_dump,
    map_to_edges,
    read_dump,
    read_dump_lenient,
    write_dump,
)


def rec(ledger="ripple", senders=("rA",), recipients=("rB",), timestamp=1_598_918_400,
        tx_kind="Payment"):
    return TransactionRecord(ledger=ledger, senders=tuple(senders),
                             recipients=tuple(recipients), timestamp=timestamp,
                             tx_kind=tx_kind)


class TestRecordValidation:
    def test_unknown_ledger(self):
        with pytest.raises(RecordSchemaError):
            rec(ledger="monero")

    def test_empty_sides(self):
        with pytest.raises(RecordSchemaError):
            rec(senders=())
        with pytest.raises(RecordSchemaError):
            rec(recipients=())

    def test_account_ledgers_are_single_pair(self):
        for ledger in ("ethereum", "ethereum_internal", "ripple"):
            with pytest.raises(RecordSchemaError):
                rec(ledger=ledger, senders=("a", "b"))

    def test_utxo_ledgers_allow_multi(self):
        r = rec(ledger="bitcoin", senders=("a", "b"), recipients=("c",), tx_kind="transfer")
        assert r.senders == ("a", "b")


class TestMapToEdges:
    def test_cross_product_2x3(self):
        r = rec(ledger="bitcoin", senders=("a", "b"), recipients=("c", "d", "e"),
                tx_kind="transfer")
        assert map_to_edges(r) == [
            ("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"), ("b", "d"), ("b", "e"),
        ]

    def test_non_payment_ripple_filtered(self):
        assert map_to_edges(rec(tx_kind="AccountSet")) == []

    def test_payment_ripple_kept(self):
        assert map_to_edges(rec()) == [("rA", "rB")]

    def test_ethereum_single_pair(self):
        r = rec(ledger="ethereum", tx_kind="transaction")
        assert map_to_edges(r) == [("rA", "rB")]
        r = rec(ledger="ethereum_internal", tx_kind="call")
        assert map_to_edges(r) == [("rA", "rB")]

    def test_duplicate_addresses_within_a_side_collapse(self):
        r = rec(ledger="dogecoin", senders=("a", "a", "b"), recipients=("c", "c"),
                tx_kind="transfer")
        assert map_to_edges(r) == [("a", "c"), ("b", "c")]

    def test_cardinality_property(self):
        rng = random.Random(0)
        for _ in range(50):
            ns = rng.randrange(1, 12)
            nr = rng.randrange(1, 12)
            senders = tuple(f"s{i}" for i in range(ns))
            recipients = tuple(f"r{i}" for i in range(nr))
            r = rec(ledger="bitcoin", senders=senders, recipients=recipients,
                    tx_kind="transfer")
            assert len(map_to_edges(r)) == ns * nr


class TestBuildGraph:
    def test_repeated_record_gives_reuse_ratio(self):
        records = [rec(), rec()]
        graph, stats = build_graph(records)
        assert stats.binary_connections == 2
        assert stats.unique_arcs == 1
        assert stats.edge_reuse_ratio == pytest.approx(0.5)

    def test_two_way_interaction(self):
        records = [rec(), rec(senders=("rB",), recipients=("rA",))]
        graph, stats = build_graph(records)
        assert graph.node_count == 2
        assert stats.unique_arcs == 2

    def test_self_pair_counted_not_stored(self):
        records = [rec(senders=("rA",), recipients=("rA",))]
        graph, stats = build_graph(records)
        assert stats.self_loops == 1
        assert stats.unique_arcs == 0
        assert stats.binary_connections == 1
        assert graph.node_count == 1

    def test_binary_connections_bound(self):
        rng = random.Random(4)
        records = []
        for _ in range(120):
            records.append(rec(
                ledger="dogecoin",
                senders=tuple(f"a{rng.randrange(12)}" for _ in range(rng.randrange(1, 4))),
                recipients=tuple(f"a{rng.randrange(12)}" for _ in range(rng.randrange(1, 4))),
                tx_kind="transfer",
            ))
        _, stats = build_graph(records)
        assert stats.binary_connections >= stats.unique_arcs + stats.self_loops

    def test_arc_set_is_order_insensitive(self):
        rng = random.Random(9)
        records = [
            rec(senders=(f"n{rng.randrange(20)}",), recipients=(f"n{rng.randrange(20)}",))
            for _ in range(200)
        ]
        def address_arcs(graph):
            return sorted(
                (graph.address_of(a), graph.address_of(b)) for a, b in graph.arcs()
            )
        base_graph, base_stats = build_graph(records)
        for _ in range(3):
            shuffled = records[:]
            rng.shuffle(shuffled)
            graph, stats = build_graph(shuffled)
            assert address_arcs(graph) == address_arcs(base_graph)
            assert stats.unique_arcs == base_stats.unique_arcs
            assert stats.edge_reuse_ratio == base_stats.edge_reuse_ratio

    def test_merging_streams_never_decreases_total_degree(self):
        # a node active on one day keeps at least that degree over the month
        rng = random.Random(21)
        def stream(seed, count):
            r = random.Random(seed)
            return [
                rec(senders=(f"n{r.randrange(15)}",), recipients=(f"n{r.randrange(15)}",))
                for _ in range(count)
            ]
        day = stream(1, 80)
        month = day + stream(2, 200)
        def degrees(records):
            graph, _ = build_graph(records)
            nbrs = {v: set() for v in range(graph.node_count)}
            for a, b in graph.arcs():
                nbrs[a].add(b)
                nbrs[b].add(a)
            return {graph.address_of(v): len(nbrs[v]) for v in nbrs}
        day_deg = degrees(day)
        month_deg = degrees(month)
        for addr, deg in day_deg.items():
            assert month_deg.get(addr, 0) >= deg


class TestDumpIO:
    def test_roundtrip(self):
        records = [
            rec(),
            rec(ledger="bitcoin", senders=("a", "b"), recipients=("c",), tx_kind="transfer"),
            rec(tx_kind="AccountSet"),
        ]
        buf = io.StringIO()
        assert write_dump(records, buf) == 3
        back = list(read_dump(io.StringIO(buf.getvalue())))
        assert back == records

    def test_lenient_skips_undecodable_lines(self):
        buf = io.StringIO()
        write_dump([rec(), rec(timestamp=5)], buf)
        text = buf.getvalue() + "{this is not json\n"
        records, skipped = read_dump_lenient(io.StringIO(text))
        assert len(records) == 2
        assert skipped == 1

    def test_lenient_raises_on_schema_violation(self):
        line = json.dumps({"ledger": "ripple", "senders": [], "recipients": ["x"],
                           "timestamp": 0, "tx_kind": "Payment"})
        with pytest.raises(RecordSchemaError) as exc:
            read_dump_lenient(io.StringIO(line + "\n"))
        assert "line 1" in str(exc.value)

    def test_strict_reader_reports_line(self):
        with pytest.raises(RecordSchemaError) as exc:
            list(read_dump(io.StringIO('{"ledger": "ripple"}\n')))
        assert "line 1" in str(exc.value)

    @pytest.mark.parametrize("stamp", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp_is_a_schema_error(self, stamp):
        line = json.dumps({"ledger": "ripple", "senders": ["a"], "recipients": ["b"],
                           "timestamp": stamp})  # NaN, Infinity: json.loads reads them back
        with pytest.raises(RecordSchemaError, match="line 1: timestamp must be a number"):
            list(read_dump(io.StringIO(line + "\n")))

    def test_missing_field_names_field(self):
        with pytest.raises(RecordSchemaError) as exc:
            list(read_dump(io.StringIO('{"ledger": "ripple", "senders": ["a"]}\n')))
        assert "recipients" in str(exc.value)

    def test_fixed_field_names_on_disk(self):
        buf = io.StringIO()
        write_dump([rec()], buf)
        obj = json.loads(buf.getvalue())
        assert set(obj) == {"ledger", "senders", "recipients", "timestamp", "tx_kind"}


class TestRecordType:
    def test_keyword_construction_and_default_kind(self):
        r = TransactionRecord(ledger="ripple", senders=("rA",), recipients=("rB",),
                              timestamp=7)
        assert (r.ledger, r.senders, r.recipients, r.timestamp, r.tx_kind) == \
            ("ripple", ("rA",), ("rB",), 7, "")
        assert r == TransactionRecord("ripple", ("rA",), ("rB",), 7, "")

    def test_immutable(self):
        r = rec()
        with pytest.raises(AttributeError):
            r.timestamp = 0
        with pytest.raises(AttributeError):
            r.extra = 1  # no instance dict

    def test_equality_and_hash(self):
        assert rec() == rec() and hash(rec()) == hash(rec())
        assert rec() != rec(timestamp=5)
        assert len({rec(), rec(), rec(tx_kind="AccountSet")}) == 2
        # a named tuple: equal to the plain tuple of its fields
        assert rec() == ("ripple", ("rA",), ("rB",), 1_598_918_400, "Payment")

    def test_repr(self):
        assert repr(rec()) == ("TransactionRecord(ledger='ripple', senders=('rA',), "
                               "recipients=('rB',), timestamp=1598918400, tx_kind='Payment')")

    def test_replace_checks_like_construction(self):
        assert rec()._replace(timestamp=5) == rec(timestamp=5)
        with pytest.raises(RecordSchemaError):
            rec()._replace(ledger="monero")

    @pytest.mark.parametrize("stamp", [1.5, float("nan"), True, "1598918400", None],
                             ids=["float", "NaN", "bool", "string", "None"])
    def test_timestamp_must_be_an_int(self, stamp):
        with pytest.raises(RecordSchemaError, match="timestamp must be an int"):
            rec(timestamp=stamp)

    def test_kind_must_be_a_string(self):
        with pytest.raises(RecordSchemaError, match="tx_kind must be a string"):
            rec(tx_kind=None)

    @pytest.mark.parametrize("stamp", [0, -1, 1_598_918_400, 2**53 + 1, 2**63, -(2**70)])
    def test_int_timestamps_round_trip(self, stamp):
        buf = io.StringIO()
        write_dump([rec(timestamp=stamp)], buf)
        [back] = read_dump(io.StringIO(buf.getvalue()))
        assert back == rec(timestamp=stamp) and type(back.timestamp) is int


_AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u20ac", "\u2028", "\u2029",
            "\ud800", "\U0001d518", "/", "</script>", " ", "a"]


def _awkward_address(rng):
    return "".join(rng.choice(_AWKWARD) for _ in range(rng.randrange(1, 6)))


def test_write_dump_is_json_dumps_with_sorted_keys():
    rng = random.Random(15)
    records = []
    for _ in range(300):
        ledger = rng.choice(["bitcoin", "dogecoin", "ethereum", "ethereum_internal", "ripple"])
        wide = ledger in ("bitcoin", "dogecoin")
        records.append(TransactionRecord(
            ledger=ledger,
            senders=tuple(_awkward_address(rng) for _ in range(rng.randrange(1, 4) if wide else 1)),
            recipients=tuple(_awkward_address(rng)
                             for _ in range(rng.randrange(1, 4) if wide else 1)),
            timestamp=rng.choice([0, -5, 1_598_918_400, 2**63 + rng.randrange(9), -(2**65)]),
            tx_kind=rng.choice(["", "Payment", "transfer"]) + _awkward_address(rng)))
    buf = io.StringIO()
    assert write_dump(records, buf) == len(records)
    expected = [json.dumps({"ledger": r.ledger, "senders": list(r.senders),
                            "recipients": list(r.recipients), "timestamp": r.timestamp,
                            "tx_kind": r.tx_kind}, sort_keys=True) + "\n" for r in records]
    assert buf.getvalue().splitlines(keepends=True) == expected
    assert list(read_dump(io.StringIO(buf.getvalue()))) == records


def test_ingest_dump_matches_build_graph_of_the_lenient_reader():
    lines = [
        rec(ledger="bitcoin", senders=("s1", "s2", "s1"), recipients=("r1", "r2", "r1"),
            tx_kind="transfer"),  # repeats within a side, two senders
        "{truncated",
        "",
        rec(senders=("rA",), recipients=("rA",)),  # self-pair
        rec(tx_kind="OfferCreate", senders=("rX",), recipients=("rX",)),  # not a payment
        "   ",
        rec(ledger="dogecoin", senders=("d1", "r2"), recipients=("r2", "d2"),
            tx_kind="transfer"),  # a self-pair inside a cross product
        rec(ledger="ethereum", senders=("0xa",), recipients=("s2",), tx_kind="transaction"),
        rec(senders=("rA",), recipients=("rB",)),
        rec(senders=("rA",), recipients=("rB",)),  # a repeated arc
        "[1, 2",
    ]
    buf = io.StringIO()
    for line in lines:
        if isinstance(line, str):
            buf.write(line + "\n")
        else:
            write_dump([line], buf)
    text = buf.getvalue()
    addresses, keys, stats = ingest_dump(io.StringIO(text))
    graph, expected = build_graph(*read_dump_lenient(io.StringIO(text)))
    assert addresses == [graph.address_of(v) for v in range(graph.node_count)]
    assert [((k >> 32) - 1, (k & 0xFFFFFFFF) - 1) for k in keys] == list(graph.arcs())
    assert stats == expected
    # each sender, then its recipients: s1 r1 r2 s2, never s1 s2 r1 r2
    assert addresses == ["s1", "r1", "r2", "s2", "rA", "d1", "d2", "0xa", "rB"]
    assert (stats.transactions, stats.skipped_records, stats.binary_connections,
            stats.self_loops, stats.unique_arcs) == (7, 2, 4 + 1 + 4 + 1 + 2, 2, 9)


# -- the layout fast path: lines in write_dump's layout skip json.loads --------

def _written(*records):
    buf = io.StringIO()
    write_dump(records, buf)
    return buf.getvalue()


_LONG = "9" * 4301  # past Python's default int-to-string limit of 4,300 digits
_T = '"timestamp": 1598918400'
_WRITTEN_SHAPES = {
    "every-ledger-and-kind": _written(*(rec(ledger=ledger, tx_kind=kind)
                                        for ledger in records.LEDGERS
                                        for kind in ("", "Payment", "OfferCreate", "transfer"))),
    "repeats-within-a-side": _written(rec(ledger="bitcoin", senders=("a", "b", "a"),
                                          recipients=("c", "c", "a"), tx_kind="transfer")),
    "quote-and-backslash": _written(rec(senders=('say "hi"',), recipients=("back\\slash",))),
    "non-ascii-and-controls": _written(rec(ledger="dogecoin", senders=("é", "€"),
                                           recipients=("\t", "\x7f"), tx_kind=" ")),
    "timestamps": _written(*(rec(timestamp=stamp) for stamp in (
        0, -1, 2**63, -(2**70), 10**639, -(10**639), 10**640, 10**4299))),
    "separators-in-strings": _written(rec(senders=("a b",), recipients=(" ",),
                                          tx_kind=" / {}[],:")),
}
_NEAR_MISSES = {
    "leading-zero": _written(rec()).replace(_T, '"timestamp": 01598918400'),
    "arabic-indic-digits": _written(rec()).replace(_T, '"timestamp": ١٥'),
    "minus-zero": _written(rec()).replace(_T, '"timestamp": -0'),
    "float-timestamp": _written(rec()).replace(_T, '"timestamp": 1598918400.5'),
    "long-timestamp": _written(rec()).replace(_T, f'"timestamp": {_LONG}'),
    "long-negative-timestamp": _written(rec()).replace(_T, f'"timestamp": -{_LONG}'),
    "raw-tab": _written(rec()).replace('"rA"', '"r\tA"'),  # json.loads rejects it
    "raw-nul": _written(rec()).replace('"rA"', '"r\x00A"'),
    "raw-non-ascii": _written(rec()).replace('"rA"', '"réA"'),  # valid JSON
    "raw-lone-surrogate": _written(rec()).replace('"rA"', '"\ud800"'),  # valid JSON too
    "raw-del": _written(rec()).replace('"rA"', '"r\x7fA"'),
    "empty-address": _written(rec()).replace('"rA"', '""'),
    "empty-side": _written(rec()).replace('["rA"]', '[]'),
    "two-senders-on-ripple": _written(rec()).replace('["rA"]', '["rA", "rC"]'),
    "two-recipients-on-ripple": _written(rec()).replace('["rB"]', '["rB", "rB"]'),
    "unknown-ledger": _written(rec()).replace('"ripple"', '"monero"'),
    "ledger-case": _written(rec()).replace('"ripple"', '"Ripple"'),
    "null-kind": _written(rec()).replace('"Payment"', 'null'),
    "no-kind": _written(rec()).replace(', "tx_kind": "Payment"', ''),
    "long-extra-field": _written(rec()).replace(', "tx_kind"', f', "fee": {_LONG}, "tx_kind"'),
    "reordered-keys": '{"tx_kind": "Payment", "timestamp": 5, "senders": ["a"], '
                      '"recipients": ["b"], "ledger": "ripple"}\n',
    "duplicated-key-first": _written(rec()).replace('{"ledger": "ripple"',
                                                    '{"ledger": "monero", "ledger": "ripple"'),
    "duplicated-key-last": _written(rec()).replace('"ledger": "ripple"',
                                                   '"ledger": "ripple", "ledger": "bitcoin"'),
    "extra-space": _written(rec()).replace('", "', '",  "'),
    "no-spaces": _written(rec()).replace(": ", ":"),
    "leading-space": " " + _written(rec()),
    "trailing-space": _written(rec()).replace("}\n", "} \n"),
    "crlf": _written(rec()).replace("\n", "\r\n"),
    "trailing-comma": _written(rec()).replace('["rA"]', '["rA",]'),
    "two-objects": _written(rec()).rstrip("\n") + "{",
    "truncated": _written(rec())[:-10] + "\n",
    "array": "[1, 2]\n",
    "blank": "\n",
}
_CASES = {**_WRITTEN_SHAPES, **_NEAR_MISSES}


def _outcome(read, text):
    """What one reader makes of `text`, its result or its error message, as
    a repr: a timestamp read as a bool or a float would compare equal."""
    try:
        result = read(io.StringIO(text))
        return repr(result if isinstance(result, tuple) else list(result))
    except RecordSchemaError as exc:
        return f"RecordSchemaError: {exc}"


@pytest.mark.parametrize("text", list(_CASES.values()), ids=list(_CASES))
def test_the_fast_path_reads_like_json_loads(text, monkeypatch):
    documents = [text, _written(rec(), rec(ledger="bitcoin")) + "\n" + text,
                 text.rstrip("\n")]  # no final newline
    readers = (read_dump, read_dump_lenient, ingest_dump)
    fast = [_outcome(read, doc) for doc in documents for read in readers]
    monkeypatch.setattr(records, "_FAST_LINE", re.compile("(?!)"))  # json.loads every line
    assert fast == [_outcome(read, doc) for doc in documents for read in readers]


def test_every_written_line_without_a_backslash_takes_the_fast_path(monkeypatch):
    rng = random.Random(30)
    plain = ["a", "Z", "0", " ", "/", ",", ":", "{", "]", "~", "-", "_"]
    written = []
    for _ in range(400):
        ledger = rng.choice(records.LEDGERS)
        width = 4 if ledger in records.UTXO_LEDGERS else 1
        pick = _awkward_address if rng.random() < 0.2 else (
            lambda r: "".join(r.choice(plain) for _ in range(r.randrange(1, 9))))
        written.append(TransactionRecord(
            ledger, tuple(pick(rng) for _ in range(rng.randrange(1, width + 1))),
            tuple(pick(rng) for _ in range(rng.randrange(1, width + 1))),
            rng.choice([0, -7, 1_598_918_400, 10**639 + 1, 2**64]),
            rng.choice(["", "Payment", "OfferCreate", "transfer", pick(rng)])))
    text = _written(*written)
    lines = text.splitlines(keepends=True)
    fast = [line for line in lines if records._FAST_LINE.fullmatch(line)]
    assert fast == [line for line in lines if "\\" not in line]
    assert 0 < len(fast) < len(lines)

    def no_json(*_):
        raise AssertionError("json.loads called on a line of the fast path")

    monkeypatch.setattr(json, "loads", no_json)
    assert list(read_dump(io.StringIO("".join(fast)))) == \
        [r for r, line in zip(written, lines) if line in fast]


@pytest.mark.parametrize("line, message", [
    (_NEAR_MISSES["long-timestamp"], "number too long to read"),
    (_written(rec(ledger="bitcoin")).replace(_T, f'"timestamp": -{_LONG}'),
     "number too long to read"),
    (_NEAR_MISSES["long-extra-field"], "number too long to read"),
    ("[" * 100_000 + "\n", "nested too deep to read"),
], ids=["timestamp", "negative-utxo-timestamp", "extra-field", "deep-arrays"])
def test_a_line_python_cannot_decode_is_a_schema_error(line, message):
    text = _written(rec()) + line
    for read in (read_dump, read_dump_lenient, ingest_dump):
        with pytest.raises(RecordSchemaError, match=f"^line 2: {message}$"):
            list(read(io.StringIO(text)))
