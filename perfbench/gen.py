"""Seeded benchmark inputs: the transactions the stub explorer serves.

Every generator takes the seed as an argument and returns plain `Tx`
tuples, so one list feeds the stub's payloads, the expected fetch result
and the independent recount the output checks compare against. The same
seed always yields the same bytes.
"""

from __future__ import annotations

import zlib
from typing import NamedTuple

import numpy as np

DAY_START = 1598918400  # 2020-09-01T00:00:00Z
DAY = 86400
RIPPLE_OTHER_KINDS = ("OfferCreate", "TrustSet", "AccountSet")
HUBS = 1000
HUB_SHARE = 0.3
ZIPF_A = 1.8
NON_PAYMENT = 0.10


class Tx(NamedTuple):
    kind: str
    senders: tuple[str, ...]
    recipients: tuple[str, ...]
    timestamp: int


def _rng(seed: int, stream: str, window: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(stream.encode()), window])


def ledger_day(n_tx: int, seed: int, window: int = 0) -> list[Tx]:
    """Hub-heavy Ripple-style day; `window` numbers consecutive days from
    DAY_START, each drawn independently.

    Each endpoint is, with probability HUB_SHARE, a Zipf(ZIPF_A) draw over
    HUBS hub addresses, and otherwise uniform over 2 other addresses per 5
    records. That keeps the mean degree near 4 at any size, so the
    Erdős-Rényi twin has triangles (about c**3 / 6 of them for mean degree
    c) and sigma is defined; with a fixed 99k pool, 40k records give
    c = 1.7 and a triangle-free twin about half the time. A NON_PAYMENT
    share of records are bookkeeping kinds, which the Ripple kind filter
    drops; they keep the sender as recipient, as the explorer parser does
    for transactions without a destination.
    """
    rng = _rng(seed, "ledger_day", window)
    others = max(1, 2 * n_tx // 5)
    weights = np.arange(1, HUBS + 1, dtype=np.float64) ** -ZIPF_A
    weights /= weights.sum()

    def endpoints() -> np.ndarray:
        is_hub = rng.random(n_tx) < HUB_SHARE
        hub = rng.choice(HUBS, size=n_tx, p=weights)
        other = HUBS + rng.integers(0, others, size=n_tx)
        return np.where(is_hub, hub, other)

    src, dst = endpoints(), endpoints()
    kind = np.where(rng.random(n_tx) < NON_PAYMENT,
                    rng.integers(0, len(RIPPLE_OTHER_KINDS), size=n_tx), -1)
    start = DAY_START + window * DAY
    times = np.sort(rng.integers(start, start + DAY, size=n_tx))
    out = []
    for s, d, k, t in zip(src.tolist(), dst.tolist(), kind.tolist(), times.tolist()):
        sender = f"r{s:06d}"
        if k < 0:
            out.append(Tx("Payment", (sender,), (f"r{d:06d}",), t))
        else:
            out.append(Tx(RIPPLE_OTHER_KINDS[k], (sender,), (sender,), t))
    return out


def recount(txs: list[Tx], ledger: str) -> dict[str, int]:
    """The build counters, recomputed from the generated records.

    Written independently of `ledgergraph.records`: UTXO records expand to
    the cross product of their distinct inputs and outputs, Ripple records
    draw one arc only when they are payments; self-pairs are counted and
    their addresses become nodes, but they are never arcs.
    """
    connections = self_loops = 0
    arcs: set[tuple[str, str]] = set()
    nodes: set[str] = set()
    for tx in txs:
        if ledger == "ripple" and tx.kind != "Payment":
            continue
        for s in set(tx.senders):
            for r in set(tx.recipients):
                connections += 1
                nodes.add(s)
                nodes.add(r)
                if s == r:
                    self_loops += 1
                else:
                    arcs.add((s, r))
    return {"transactions": len(txs), "binary_connections": connections,
            "unique_arcs": len(arcs), "self_loops": self_loops, "nodes": len(nodes)}


# -- stub explorer payloads ---------------------------------------------------


def ripple_payloads(txs: list[Tx]) -> list[dict]:
    """Ripple Data API transaction objects, in ledger order."""
    out = []
    for i, tx in enumerate(txs):
        body = {"TransactionType": tx.kind, "Account": tx.senders[0]}
        if tx.kind == "Payment":
            body["Destination"] = tx.recipients[0]
        out.append({"hash": f"R{i:08X}", "date": tx.timestamp, "tx": body})
    return out


def bitcoin_blocks(n_blocks: int, tx_per_block: int, seed: int,
                   first_time: int) -> tuple[list[dict], list[Tx]]:
    """A chain of blockchain.info-style blocks, 10 minutes apart from
    `first_time`, each with `tx_per_block` transactions stamped with the
    block time. Returns the blocks and every transaction as a `Tx`.

    Each transaction has 1-3 inputs and 1-4 outputs, drawn uniformly from
    a pool of 11 addresses per 6 transactions of the chain: ROADMAP's 550k
    addresses per 300k records, which keeps a giant weak component.
    """
    rng = _rng(seed, "bitcoin_blocks")
    n_tx = n_blocks * tx_per_block
    n_in = rng.integers(1, 4, size=n_tx).tolist()
    n_out = rng.integers(1, 5, size=n_tx).tolist()
    addrs = [f"1{a:07d}" for a in
             rng.integers(0, 11 * n_tx // 6, size=sum(n_in) + sum(n_out)).tolist()]
    blocks, flat = [], []
    pos = 0
    for h in range(n_blocks):
        when = first_time + h * 600
        body = []
        for j in range(tx_per_block):
            i, o = n_in[h * tx_per_block + j], n_out[h * tx_per_block + j]
            ins, outs = addrs[pos:pos + i], addrs[pos + i:pos + i + o]
            pos += i + o
            body.append({"hash": f"B{h:05d}{j:05d}", "time": when,
                         "inputs": [{"prev_out": {"addr": a}} for a in ins],
                         "out": [{"addr": a} for a in outs]})
            flat.append(Tx("transfer", tuple(ins), tuple(outs), when))
        blocks.append({"time": when, "txs": body})
    return blocks, flat
