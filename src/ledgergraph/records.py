"""Normalized transaction records and graph construction.

Every supported ledger is reduced to one record shape so the analytics
side never sees ledger-specific payloads. The on-disk dump format is one
JSON object per line with exactly these fields, in this order:

    {"ledger": "...", "recipients": [...], "senders": [...],
     "timestamp": <unix seconds>, "tx_kind": "..."}

`write_dump` renders each line from one template whose strings go through
json's own C escaper, so a line is byte for byte what
`json.dumps(..., sort_keys=True)` gives, without a dict per record.

The strict and lenient dump readers share one line loop, which checks each
line into a plain 5-tuple; the readers wrap those as records without
checking them again. A line in `write_dump`'s own layout with no escape in
it (every line of a dump of plain ASCII addresses) is read by one regular
expression, `_FAST_LINE`, which admits only what `json.loads` would decode
into a valid record: the loop splits each side on `", "`, calls `int()` on
the timestamp and checks the one rule the pattern cannot, one sender and
one recipient on the account ledgers. Any other line, hand-written,
escaped or damaged, goes through `json.loads` and the full checks, which
name its error and its line.

One interning loop serves `ingest_dump` (those tuples to sorted arc keys,
standard library only) and `build_graph` (records, which are such tuples;
it imports the graph module when called).
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict, namedtuple
from itertools import count, groupby
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:
    from .graph import DirectedGraph

LEDGERS = ("bitcoin", "dogecoin", "ethereum", "ethereum_internal", "ripple")
UTXO_LEDGERS = frozenset({"bitcoin", "dogecoin"})
SINGLE_PAIR_LEDGERS = frozenset({"ethereum", "ethereum_internal", "ripple"})

RIPPLE_PAYMENT = "Payment"
# one dump line: the keys in the order sort_keys gives, json.dumps' separators
_LINE = '{"ledger": %s, "recipients": [%s], "senders": [%s], "timestamp": %d, "tx_kind": %s}\n'
# a line of that layout that json.loads decodes into a valid record: strings
# without a quote, backslash or control character (JSON would need an escape),
# non-empty sides of non-empty addresses, JSON's integer grammar in ASCII
# digits, no more of them than the lowest int-to-string limit Python allows
_STRING = r'[^"\\\x00-\x1f]'
_SIDE = rf'\["({_STRING}+(?:", "{_STRING}+)*)"\]'
_FAST_LINE = re.compile(
    rf'\{{"ledger": "({"|".join(LEDGERS)})", "recipients": {_SIDE}, "senders": {_SIDE}, '
    rf'"timestamp": (-?(?:0|[1-9][0-9]{{0,639}})), "tx_kind": "({_STRING}*)"\}}\n?')


class RecordSchemaError(ValueError):
    """A decoded record violates the dump schema."""


def _check(ledger, senders, recipients, timestamp, tx_kind) -> None:
    """Raise RecordSchemaError unless the fields make a valid record."""
    if ledger not in LEDGERS:
        raise RecordSchemaError(f"unknown ledger {ledger!r}")
    if not senders or not recipients:
        raise RecordSchemaError("senders and recipients must be non-empty")
    for side in (senders, recipients):
        for address in side:
            if not isinstance(address, str) or not address:
                raise RecordSchemaError("addresses must be non-empty strings")
    if ledger in SINGLE_PAIR_LEDGERS and (len(senders) != 1 or len(recipients) != 1):
        raise RecordSchemaError(
            f"{ledger} records must have exactly one sender and one recipient")
    if isinstance(timestamp, bool) or not isinstance(timestamp, int):
        raise RecordSchemaError(f"timestamp must be an int (unix seconds), got {timestamp!r}")
    if not isinstance(tx_kind, str):
        raise RecordSchemaError("tx_kind must be a string")


class TransactionRecord(namedtuple("TransactionRecord",
                                   ("ledger", "senders", "recipients", "timestamp", "tx_kind"))):
    """One ledger transaction, normalized: an immutable named tuple whose
    fields are checked when it is made.

    UTXO ledgers (bitcoin, dogecoin) may carry several senders and
    recipients; account ledgers (ethereum, ethereum_internal, ripple) carry
    exactly one of each. `timestamp` is an int of unix seconds. `tx_kind` is
    the ledger-native type tag; only Ripple uses it for filtering (payments
    vs bookkeeping transactions). `_make` takes fields as they are, for rows
    checked already.
    """

    __slots__ = ()

    def __new__(cls, ledger: str, senders: tuple[str, ...], recipients: tuple[str, ...],
                timestamp: int, tx_kind: str = "") -> TransactionRecord:
        _check(ledger, senders, recipients, timestamp, tx_kind)
        return tuple.__new__(cls, (ledger, senders, recipients, timestamp, tx_kind))

    def _replace(self, **changes) -> TransactionRecord:
        return type(self)(**{**self._asdict(), **changes})  # checked like any new record


def _checked(obj: object) -> tuple:
    """The (ledger, senders, recipients, timestamp, tx_kind) of one decoded
    dump line, checked against the dump schema and the record rules."""
    if not isinstance(obj, dict):
        raise RecordSchemaError(f"record must be a JSON object, got {type(obj).__name__}")
    try:
        ledger = obj["ledger"]
        senders = obj["senders"]
        recipients = obj["recipients"]
        timestamp = obj["timestamp"]
    except KeyError as exc:
        raise RecordSchemaError(f"missing field {exc.args[0]!r}") from None
    if not isinstance(senders, list) or not isinstance(recipients, list):
        raise RecordSchemaError("senders and recipients must be JSON arrays")
    if isinstance(timestamp, bool) or not isinstance(timestamp, (int, float)) \
            or isinstance(timestamp, float) and not math.isfinite(timestamp):  # NaN, Infinity
        raise RecordSchemaError("timestamp must be a number (unix seconds)")
    row = (ledger, tuple(senders), tuple(recipients), int(timestamp), obj.get("tx_kind", ""))
    _check(*row)
    return row


def iso_seconds(text: str) -> int:
    """Unix seconds of an ISO-8601 date or datetime. A trailing Z and a time
    with no zone both mean UTC; any other text raises ValueError."""
    import datetime as _dt  # only `fetch` parses dates
    moment = _dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=_dt.timezone.utc)
    return int(moment.timestamp())


def write_dump(records: Iterable[TransactionRecord], stream: IO[str]) -> int:
    """Write records as newline-delimited JSON, one line at a time; returns
    the count."""
    write, quote, n = stream.write, encode_basestring_ascii, 0
    for n, (ledger, senders, recipients, timestamp, tx_kind) in enumerate(records, start=1):
        write(_LINE % (quote(ledger), ", ".join(map(quote, recipients)),
                       ", ".join(map(quote, senders)), timestamp, quote(tx_kind)))
    return n


def _read_lines(stream: IO[str], strict: bool) -> Iterator[Optional[tuple]]:
    """Checked rows (see `_checked`) of a dump in file order, or None for
    each line that is not valid JSON when not `strict`. A schema violation
    always raises, and so does a line Python cannot decode: a number too
    long or arrays nested too deep."""
    fast = _FAST_LINE.fullmatch
    for lineno, line in enumerate(stream, start=1):
        if match := fast(line):
            ledger, recipients, senders, timestamp, tx_kind = match.groups()
            senders, recipients = tuple(senders.split('", "')), tuple(recipients.split('", "'))
            if ledger in UTXO_LEDGERS or len(senders) == len(recipients) == 1:
                yield ledger, senders, recipients, int(timestamp), tx_kind
                continue  # else json.loads and _checked name the error
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            if strict:
                raise RecordSchemaError(f"line {lineno}: not valid JSON ({exc.msg})") from None
            yield None
            continue
        except ValueError:  # an integer past sys.get_int_max_str_digits()
            raise RecordSchemaError(f"line {lineno}: number too long to read") from None
        except RecursionError:
            raise RecordSchemaError(f"line {lineno}: nested too deep to read") from None
        try:
            yield _checked(obj)
        except RecordSchemaError as exc:
            raise RecordSchemaError(f"line {lineno}: {exc}") from None


def read_dump(stream: IO[str]) -> Iterator[TransactionRecord]:
    """Strict dump reader: any bad line raises."""
    return map(TransactionRecord._make, _read_lines(stream, strict=True))


def read_dump_lenient(stream: IO[str]) -> tuple[list[TransactionRecord], int]:
    """Dump reader that skips undecodable lines.

    Lines that are not valid JSON are counted and skipped (truncated
    downloads happen); lines that decode but violate the record schema
    raise, because they mean the file is not a dump of this format.
    Returns (records, skipped_line_count).
    """
    rows = list(_read_lines(stream, strict=False))
    kept = [TransactionRecord._make(row) for row in rows if row is not None]
    return kept, len(rows) - len(kept)


def _sides(row: tuple) -> tuple[Iterable[str], Iterable[str]]:
    """The senders and recipients whose cross product a record maps to."""
    ledger, senders, recipients, _, tx_kind = row
    if ledger in UTXO_LEDGERS:  # first-seen order keeps edge emission deterministic
        return dict.fromkeys(senders), dict.fromkeys(recipients)
    if ledger == "ripple" and tx_kind != RIPPLE_PAYMENT:
        return (), ()
    return senders, recipients


def map_to_edges(record: TransactionRecord) -> list[tuple[str, str]]:
    """Per-ledger mapping from one transaction to sender->recipient pairs.

    UTXO ledgers expand to the full cross product of the (deduplicated)
    input and output address sets. Account ledgers yield their single
    pair; Ripple only for payments, since its other transaction kinds move
    no funds between two parties.
    """
    senders, recipients = _sides(record)
    return [(s, r) for s in senders for r in recipients]


class IngestionStats(SimpleNamespace):
    """Counters from one build: how many transactions became what;
    `binary_connections` counts address pairs before dedup, self-pairs
    included. A namespace, so it has a keyword repr and compares by its
    counters."""

    def __init__(self, transactions: int = 0, binary_connections: int = 0,
                 unique_arcs: int = 0, self_loops: int = 0, edge_reuse_ratio: float = 0.0,
                 skipped_records: int = 0, nodes: int = 0) -> None:
        super().__init__(transactions=transactions, binary_connections=binary_connections,
                         unique_arcs=unique_arcs, self_loops=self_loops,
                         edge_reuse_ratio=edge_reuse_ratio, skipped_records=skipped_records,
                         nodes=nodes)

    def to_json_dict(self) -> dict:
        ratio = self.transactions / self.nodes if self.nodes else 0.0
        return {**vars(self), "transactions_to_addresses_ratio": ratio}


def _intern(rows: Iterable[Optional[tuple]],
            stats: IngestionStats) -> tuple[dict[str, int], list[int]]:
    """Pajek vertex numbers by address, first seen first (each sender, then
    the recipients it pairs with), and the sorted distinct arcs as keys
    tail << 32 | head, from records or checked rows; None is a skipped line.
    Arcs wait in a list: a fifth of a set, and partly sorted."""
    ids: defaultdict[str, int] = defaultdict(count(1).__next__)
    arcs: list[int] = []
    add = arcs.append
    transactions = pairs = loops = skipped = 0
    for row in rows:
        if row is None:
            skipped += 1
            continue
        transactions += 1
        senders, recipients = _sides(row)
        pairs += len(senders) * len(recipients)
        for sender in senders:
            tail = ids[sender]
            for recipient in recipients:
                head = ids[recipient]
                if head != tail:
                    add(tail << 32 | head)
                else:
                    loops += 1
    arcs.sort()
    keys = [key for key, _ in groupby(arcs)]
    stats.transactions, stats.binary_connections, stats.self_loops = transactions, pairs, loops
    stats.skipped_records += skipped  # build_graph may have counted some already
    stats.unique_arcs, stats.nodes = len(keys), len(ids)
    submissions = pairs - loops
    stats.edge_reuse_ratio = (submissions - len(keys)) / submissions if submissions else 0.0
    return ids, keys


def ingest_dump(stream: IO[str]) -> tuple[list[str], list[int], IngestionStats]:
    """Addresses in id order, sorted arc keys (forward CSR order) and stats
    of a dump, read line by line and checked as `read_dump_lenient` does,
    without making a record of any line."""
    ids, keys = _intern(_read_lines(stream, strict=False), stats := IngestionStats())
    return list(ids), keys, stats


def build_graph(
    records: Iterable[TransactionRecord], skipped_records: int = 0
) -> tuple[DirectedGraph, IngestionStats]:
    """Build the interaction graph from a record stream.

    One node per distinct address that appears in a mapped edge, numbered
    in first-seen order (sender before recipient); one arc per distinct
    sender->recipient pair. The arc set is independent of record order
    (node ids are not).
    """
    from .graph import DirectedGraph
    stats = IngestionStats(skipped_records=skipped_records)
    ids, keys = _intern(records, stats)
    graph = DirectedGraph(len(ids), [(k >> 32) - 1 for k in keys],
                          [(k & 0xFFFFFFFF) - 1 for k in keys], labels=list(ids))
    graph.pair_submissions = stats.binary_connections - stats.self_loops  # repeats and loops
    graph.self_loop_count = stats.self_loops  # are counted here, not resubmitted
    return graph, stats
