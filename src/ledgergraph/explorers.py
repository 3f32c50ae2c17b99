"""Block-explorer payload parsing and endpoint layout.

Two retrieval shapes cover the supported ledgers:

- interval sources (ripple): the service answers a time window directly,
  at most 100 transactions per request, so the client walks offset pages
  until a short page.
- block sources (bitcoin, dogecoin, ethereum, ethereum_internal): the
  service is block-oriented; the client binary-searches block headers for
  the window boundaries, padded by the block-time skew, and then pulls
  each block's transactions.

The per-transaction JSON shapes mirror the public explorers each ledger is
normally scraped from (blockchain.info, SoChain, Etherscan, the Ripple
Data API); the endpoint layout itself is the small uniform protocol below,
which any fixture or proxy can implement:

    GET {base}/api/latest                 -> {"height": H}
    GET {base}/api/block/{h}/header       -> {"height": h, "time": T}
    GET {base}/api/block/{h}/txs          -> {"time": T, "txs": [tx, ...]}
    GET {base}/v2/transactions?start=&end=&limit=&offset=
                                          -> {"transactions": [tx, ...]}

A parser raises PayloadError for a row that breaks its explorer's shape;
the addresses it passes on are checked by `TransactionRecord` alone, whose
RecordSchemaError is a ValueError too.
"""

from __future__ import annotations

import math
from typing import Optional

from .records import TransactionRecord, iso_seconds

EXPLORER_DEFAULTS = {
    "bitcoin": "https://blockchain.info",
    "dogecoin": "https://sochain.com",
    "ethereum": "https://api.etherscan.io",
    "ethereum_internal": "https://api.etherscan.io",
    "ripple": "https://data.ripple.com",
}


class PayloadError(ValueError):
    """A transaction object does not match the expected explorer schema."""


def _as_timestamp(value: object, what: str) -> int:
    if isinstance(value, bool) or isinstance(value, float) and not math.isfinite(value):
        raise PayloadError(f"{what} must be a timestamp, got {value!r}")
    if isinstance(value, (int, float)):
        return int(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return iso_seconds(text)
        except ValueError:
            raise PayloadError(f"{what} is neither unix seconds nor ISO-8601: {value!r}") from None
    raise PayloadError(f"{what} must be a timestamp, got {type(value).__name__}")


def tx_hash(tx: dict, ledger: str) -> str:
    """The explorer's identity for one transaction row.

    Etherscan internal rows carry the parent transaction's hash, which one
    call with several internal transfers repeats, so those rows key on
    hash plus traceId. A missing field raises PayloadError.
    """
    key = "txid" if ledger == "dogecoin" else "hash"
    value = tx.get(key)
    if not isinstance(value, str) or not value:
        raise PayloadError(f"transaction is missing its {key!r} field")
    if ledger == "ethereum_internal":
        trace = tx.get("traceId")
        if trace is None or trace == "":
            raise PayloadError("internal transaction is missing its 'traceId' field")
        return f"{value}/{trace}"
    return value


# where each UTXO explorer keeps the addresses: the list, then the path in an item
_UTXO_ADDRESSES = {
    "bitcoin": (("inputs", "prev_out", "addr"), ("out", "addr")),  # blockchain.info
    "dogecoin": (("inputs", "address"), ("outputs", "address")),  # SoChain
}


def _addresses(tx: dict, key: str, *path: str) -> list:
    """The non-empty value at `path` in each object of the list tx[key]
    (absent is empty); PayloadError if tx[key] is not a list."""
    items = tx.get(key, [])
    if not isinstance(items, list):
        raise PayloadError(f"{key!r} must be a list, got {type(items).__name__}")
    found = []
    for item in items:
        for step in path:
            item = item.get(step) if isinstance(item, dict) else None
        if item:
            found.append(item)
    return found


def parse_bitcoin_tx(
    tx: object, block_time: Optional[int], ledger: str = "bitcoin"
) -> Optional[TransactionRecord]:
    """UTXO shapes: blockchain.info (bitcoin) with inputs[].prev_out.addr
    and out[].addr, SoChain (dogecoin) with inputs[].address and
    outputs[].address.

    Coinbase transactions (no spendable input address) and fully
    non-standard outputs have no sender/recipient to map; those return
    None rather than raising.
    """
    if not isinstance(tx, dict):
        raise PayloadError("transaction must be a JSON object")
    inputs, outputs = _UTXO_ADDRESSES[ledger]
    senders, recipients = _addresses(tx, *inputs), _addresses(tx, *outputs)
    if not senders or not recipients:
        return None
    when = tx.get("time", block_time)
    if when is None:
        raise PayloadError("transaction has no time and no block time was given")
    return TransactionRecord(
        ledger=ledger,
        senders=tuple(senders),
        recipients=tuple(recipients),
        timestamp=_as_timestamp(when, "tx time"),
        tx_kind="transfer",
    )


def parse_ethereum_tx(
    tx: object, block_time: Optional[int], ledger: str = "ethereum"
) -> Optional[TransactionRecord]:
    """Etherscan shape: from / to / timeStamp.

    Contract creations have an empty `to`; there is no recipient address to
    draw an arc to, so they map to None.
    """
    if not isinstance(tx, dict):
        raise PayloadError("transaction must be a JSON object")
    recipient = tx.get("to")
    if not recipient:
        return None
    when = tx.get("timeStamp", block_time)
    if when is None:
        raise PayloadError("transaction has no timeStamp and no block time was given")
    return TransactionRecord(
        ledger=ledger,
        senders=(tx.get("from"),),
        recipients=(recipient,),
        timestamp=_as_timestamp(when, "timeStamp"),
        tx_kind=str(tx.get("type", "call")) if ledger == "ethereum_internal" else "transaction",
    )


def parse_ripple_tx(tx: object) -> TransactionRecord:
    """Ripple Data API shape: date plus tx.TransactionType/Account/Destination.

    Non-payment transactions (AccountSet, OfferCreate, ...) have no
    destination; they are kept as records with a self-referential recipient
    so the stream stays complete, and the edge mapper drops them by kind.
    """
    if not isinstance(tx, dict):
        raise PayloadError("transaction must be a JSON object")
    body = tx.get("tx")
    if not isinstance(body, dict):
        raise PayloadError("transaction is missing its 'tx' body")
    account = body.get("Account")
    kind = body.get("TransactionType")
    if not isinstance(kind, str) or not kind:
        raise PayloadError("transaction is missing 'TransactionType'")
    destination = body.get("Destination")
    if not isinstance(destination, str) or not destination:
        destination = account
    when = tx.get("date")
    if when is None:
        raise PayloadError("transaction is missing 'date'")
    return TransactionRecord(
        ledger="ripple",
        senders=(account,),
        recipients=(destination,),
        timestamp=_as_timestamp(when, "date"),
        tx_kind=kind,
    )


def parse_block_tx(
    ledger: str, tx: object, block_time: Optional[int]
) -> Optional[TransactionRecord]:
    if ledger in _UTXO_ADDRESSES:
        return parse_bitcoin_tx(tx, block_time, ledger)
    if ledger in ("ethereum", "ethereum_internal"):
        return parse_ethereum_tx(tx, block_time, ledger)
    raise ValueError(f"{ledger!r} is not a block-oriented ledger")


# -- endpoint layout --------------------------------------------------------


def latest_url(base: str) -> str:
    return f"{base.rstrip('/')}/api/latest"


def header_url(base: str, height: int) -> str:
    return f"{base.rstrip('/')}/api/block/{height}/header"


def block_txs_url(base: str, height: int) -> str:
    return f"{base.rstrip('/')}/api/block/{height}/txs"


def interval_url(base: str) -> str:
    return f"{base.rstrip('/')}/v2/transactions"
