"""Normalized transaction records and graph construction.

Every supported ledger is reduced to one record shape so the analytics
side never sees ledger-specific payloads. The on-disk dump format is one
JSON object per line with exactly these fields:

    {"ledger": "...", "senders": [...], "recipients": [...],
     "timestamp": <unix seconds>, "tx_kind": "..."}

The strict and lenient dump readers share one line loop. One interning loop
serves `ingest_dump` (a dump to sorted arc keys, standard library only) and
`build_graph` (which imports the graph module when called).
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from itertools import count, groupby
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:
    from .graph import DirectedGraph

LEDGERS = ("bitcoin", "dogecoin", "ethereum", "ethereum_internal", "ripple")
UTXO_LEDGERS = frozenset({"bitcoin", "dogecoin"})
SINGLE_PAIR_LEDGERS = frozenset({"ethereum", "ethereum_internal", "ripple"})

RIPPLE_PAYMENT = "Payment"
_ENCODER = json.JSONEncoder(sort_keys=True)  # what json.dumps(..., sort_keys=True) builds


class RecordSchemaError(ValueError):
    """A decoded record violates the dump schema."""


@dataclass(frozen=True)
class TransactionRecord:
    """One ledger transaction, normalized.

    UTXO ledgers (bitcoin, dogecoin) may carry several senders and
    recipients; account ledgers (ethereum, ethereum_internal, ripple) carry
    exactly one of each. `tx_kind` is the ledger-native type tag; only
    Ripple uses it for filtering (payments vs bookkeeping transactions).
    """

    ledger: str
    senders: tuple[str, ...]
    recipients: tuple[str, ...]
    timestamp: int
    tx_kind: str = ""

    def __post_init__(self) -> None:
        if self.ledger not in LEDGERS:
            raise RecordSchemaError(f"unknown ledger {self.ledger!r}")
        if not self.senders or not self.recipients:
            raise RecordSchemaError("senders and recipients must be non-empty")
        if any(not isinstance(a, str) or not a for a in self.senders + self.recipients):
            raise RecordSchemaError("addresses must be non-empty strings")
        if self.ledger in SINGLE_PAIR_LEDGERS and (
            len(self.senders) != 1 or len(self.recipients) != 1
        ):
            raise RecordSchemaError(
                f"{self.ledger} records must have exactly one sender and one recipient"
            )

    def to_json_dict(self) -> dict:
        return {
            "ledger": self.ledger,
            "senders": list(self.senders),
            "recipients": list(self.recipients),
            "timestamp": self.timestamp,
            "tx_kind": self.tx_kind,
        }


def record_from_json_dict(obj: object) -> TransactionRecord:
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
    tx_kind = obj.get("tx_kind", "")
    if not isinstance(tx_kind, str):
        raise RecordSchemaError("tx_kind must be a string")
    return TransactionRecord(
        ledger=ledger,
        senders=tuple(senders),
        recipients=tuple(recipients),
        timestamp=int(timestamp),
        tx_kind=tx_kind,
    )


def write_dump(records: Iterable[TransactionRecord], stream: IO[str]) -> int:
    """Write records as newline-delimited JSON; returns the count."""
    count = 0
    for count, rec in enumerate(records, start=1):
        stream.write(_ENCODER.encode(rec.to_json_dict()) + "\n")
    return count


def _read_lines(stream: IO[str], strict: bool) -> Iterator[Optional[TransactionRecord]]:
    """Records of a dump in file order, or None for each line that is not
    valid JSON when not `strict`. A schema violation always raises."""
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            if strict:
                raise RecordSchemaError(f"line {lineno}: not valid JSON ({exc.msg})") from None
            yield None
            continue
        try:
            yield record_from_json_dict(obj)
        except RecordSchemaError as exc:
            raise RecordSchemaError(f"line {lineno}: {exc}") from None


def read_dump(stream: IO[str]) -> Iterator[TransactionRecord]:
    """Strict dump reader: any bad line raises."""
    return _read_lines(stream, strict=True)  # type: ignore[return-value]


def read_dump_lenient(stream: IO[str]) -> tuple[list[TransactionRecord], int]:
    """Dump reader that skips undecodable lines.

    Lines that are not valid JSON are counted and skipped (truncated
    downloads happen); lines that decode but violate the record schema
    raise, because they mean the file is not a dump of this format.
    Returns (records, skipped_line_count).
    """
    records = list(_read_lines(stream, strict=False))
    kept = [r for r in records if r is not None]
    return kept, len(records) - len(kept)


def map_to_edges(record: TransactionRecord) -> list[tuple[str, str]]:
    """Per-ledger mapping from one transaction to sender->recipient pairs.

    UTXO ledgers expand to the full cross product of the (deduplicated)
    input and output address sets. Account ledgers yield their single
    pair; Ripple only for payments, since its other transaction kinds move
    no funds between two parties.
    """
    if record.ledger in UTXO_LEDGERS:  # first-seen order keeps edge emission deterministic
        senders, recipients = dict.fromkeys(record.senders), dict.fromkeys(record.recipients)
        return [(s, r) for s in senders for r in recipients]
    if record.ledger == "ripple" and record.tx_kind != RIPPLE_PAYMENT:
        return []
    return [(record.senders[0], record.recipients[0])]


@dataclass
class IngestionStats:
    """Counters from one build: how many transactions became what."""

    transactions: int = 0
    binary_connections: int = 0  # address pairs before dedup, self-pairs included
    unique_arcs: int = 0
    self_loops: int = 0
    edge_reuse_ratio: float = 0.0
    skipped_records: int = 0
    nodes: int = 0

    def to_json_dict(self) -> dict:
        ratio = self.transactions / self.nodes if self.nodes else 0.0
        return {**asdict(self), "transactions_to_addresses_ratio": ratio}


def _intern(records: Iterable[Optional[TransactionRecord]],
            stats: IngestionStats) -> tuple[dict[str, int], list[int]]:
    """Pajek vertex numbers by address, first seen first (sender before
    recipient), and the sorted distinct arcs as keys tail << 32 | head; None
    is a skipped line. Arcs wait in a list: a fifth of a set, and partly sorted."""
    ids: defaultdict[str, int] = defaultdict(count(1).__next__)
    arcs: list[int] = []
    add = arcs.append
    for record in records:
        if record is None:
            stats.skipped_records += 1
            continue
        pairs = map_to_edges(record)
        stats.transactions += 1
        stats.binary_connections += len(pairs)
        for sender, recipient in pairs:
            tail, head = ids[sender], ids[recipient]
            if tail != head:
                add(tail << 32 | head)
            else:
                stats.self_loops += 1
    arcs.sort()
    keys = [key for key, _ in groupby(arcs)]
    stats.unique_arcs, stats.nodes = len(keys), len(ids)
    submissions = stats.binary_connections - stats.self_loops
    stats.edge_reuse_ratio = (submissions - len(keys)) / submissions if submissions else 0.0
    return ids, keys


def ingest_dump(stream: IO[str]) -> tuple[list[str], list[int], IngestionStats]:
    """Addresses in id order, sorted arc keys (forward CSR order) and stats
    of a dump, read line by line and checked as `read_dump_lenient` does."""
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
