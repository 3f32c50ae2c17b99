"""Transaction retrieval: jobs, rate-limit backoff, worker pools.

Sources are either a local dump file (first-class, because public explorer
APIs drift) or an HTTP explorer speaking the layout in `explorers`. The
fetch stage is the only part of the pipeline that talks to the network;
everything downstream consumes TransactionRecords.

An HTTP fetch gives each of its `workers` fetchers one client for the
whole window, and closes them all at the end. Both HTTP shapes run their
requests through the package's `_run_ordered` and merge the outcomes in
task order. Ripple pages go in rounds of `workers` consecutive offsets,
parsed in offset order on the calling thread, until the first short page
or a round with a failed page. The block search runs on the first client;
then fetcher `s` walks chunks `s, s + workers, ...` of `_BLOCKS_PER_TASK`
blocks in order. Requests go over `_Connection`, a small kept-alive
HTTP/1.1 reader on `socket`. This module loads no numpy, no `socket`
until the first request, and `ssl` only for an https:// explorer.

Rate limiting: on a 429, or a transient 502/503/504, the worker sleeps,
doubles its pause up to a cap, and retries the same request; the pause
resets after a success. A `Retry-After` in seconds lengthens a pause, up
to the cap. Each worker keeps its own backoff state. The fetch logs the
retries and pause seconds of all its workers on one line.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from . import _run_ordered, explorers
from .records import LEDGERS, TransactionRecord, read_dump_lenient

PAGE_SIZE = 100  # the Ripple history service caps responses at 100
_RETRY_STATUS = (429, 502, 503, 504)  # rate limited, or a transient gateway fault
_BLOCKS_PER_TASK = 8
# how far a block's time may sit outside its place in the chain: Bitcoin
# rejects blocks stamped over 2 h ahead, and the median-of-11 rule keeps an
# early stamp within about 2 h at 10-min spacing
_BLOCK_TIME_SKEW = 7_200
_HEADERS = "Accept: application/json\r\nUser-Agent: ledgergraph\r\nAccept-Encoding: identity\r\n"
_TIMEOUT = 30.0  # seconds a connection waits on the socket
_MAX_LINE, _MAX_HEADERS = 65_536, 100  # per response, as in http.client

log = logging.getLogger("ledgergraph")


class FetchError(Exception):
    """Retrieval failed; `failed_ranges` lists what to re-run."""

    def __init__(self, message: str, failed_ranges: Optional[list[str]] = None,
                 partial: Optional["FetchResult"] = None):
        super().__init__(message)
        self.failed_ranges = failed_ranges or []
        self.partial = partial


@dataclass(frozen=True)
class BackoffPolicy:
    """Pause schedule for 429s and transient network errors. Every value
    must be finite and >= 0, so that no pause given to `sleep` is
    negative or nan."""

    initial: float = 5.0
    factor: float = 2.0
    cap: float = 60.0
    max_retries: int = 8

    def __post_init__(self) -> None:
        for name in ("initial", "factor", "cap", "max_retries"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # false for nan too
                raise ValueError(f"backoff {name} must be finite and >= 0, got {value!r}")


# environment variable -> the policy field it sets, and how it parses
_POLICY_ENV = {
    "LEDGERGRAPH_BACKOFF_INITIAL": ("initial", float),
    "LEDGERGRAPH_BACKOFF_FACTOR": ("factor", float),
    "LEDGERGRAPH_BACKOFF_CAP": ("cap", float),
    "LEDGERGRAPH_MAX_RETRIES": ("max_retries", int),
}


def policy_from_env(env: Optional[dict] = None) -> BackoffPolicy:
    """Backoff policy with LEDGERGRAPH_BACKOFF_* and LEDGERGRAPH_MAX_RETRIES
    overrides; a value that does not parse or is out of range is a
    ValueError that names its variable."""
    env = os.environ if env is None else env
    policy = BackoffPolicy()
    for var, (name, kind) in _POLICY_ENV.items():
        if var in env:
            try:
                policy = replace(policy, **{name: kind(env[var])})
            except ValueError:
                what = "an integer" if kind is int else "a finite number"
                raise ValueError(f"{var} must be {what} >= 0, got {env[var]!r}") from None
    return policy


@dataclass(frozen=True)
class FetchJob:
    """One retrieval task: a ledger, a [start, end) window, a source. An
    explorer URL must name a host, and a port if any in 1-65535, and carry
    no query or fragment."""

    ledger: str
    start: int
    end: int
    source: str
    workers: int = 1
    api_key: Optional[str] = None

    def __post_init__(self) -> None:
        if self.ledger not in LEDGERS:
            raise ValueError(f"unknown ledger {self.ledger!r}")
        if self.start >= self.end:
            raise ValueError(f"empty interval [{self.start}, {self.end})")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if is_url(self.source):  # caught here, not retried as a connection fault
            from urllib.parse import urlsplit
            try:
                parts = urlsplit(self.source)
                if parts.port == 0:  # `port` raises for one that does not parse or is too big
                    raise ValueError("port 0 cannot be connected to")
            except ValueError as exc:
                raise ValueError(f"explorer URL {self.source!r}: {exc}") from None
            if not parts.hostname:
                raise ValueError(f"explorer URL {self.source!r} names no host")
            if "?" in self.source or "#" in self.source:  # the endpoint path is appended
                raise ValueError(f"explorer URL {self.source!r} carries a query or a fragment")


def is_url(source: str) -> bool:
    """Whether `source` names an HTTP explorer rather than a dump file: an
    http:// or https:// URL, its scheme in any case (RFC 3986 §3.1)."""
    return source[:8].lower().startswith(("http://", "https://"))


@dataclass
class FetchResult:
    records: list[TransactionRecord] = field(default_factory=list)
    skipped_payloads: int = 0


class _Connection:
    """One HTTP/1.1 connection; `ssl` is loaded only for https://. A
    response is framed as RFC 9112 §6 says: by chunked transfer coding, by
    Content-Length, or by the close of the connection."""

    def __init__(self, parts) -> None:
        import socket
        https = parts.scheme == "https"
        address = (parts.hostname, parts.port or (443 if https else 80))
        self.sock = socket.create_connection(address, timeout=_TIMEOUT)
        if https:
            import ssl
            context = ssl.create_default_context()  # the system CAs
            context.set_alpn_protocols(["http/1.1"])
            self.sock = context.wrap_socket(self.sock, server_hostname=parts.hostname)
        self.file = self.sock.makefile("rb")

    def close(self) -> None:
        self.file.close()
        self.sock.close()

    def _line(self) -> bytes:
        line = self.file.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise ValueError(f"response line over {_MAX_LINE} bytes")
        return line

    def _read(self, n: int) -> bytes:
        data = self.file.read(n)
        if len(data) < n:
            raise OSError(f"response truncated {n - len(data)} bytes short")
        return data

    def send(self, request: bytes) -> bytes:
        """Writes `request` and returns the status line of its response."""
        self.sock.sendall(request)
        line = self._line()
        if not line:
            raise ConnectionResetError("the server closed the connection without a response")
        return line

    def response(self, line: bytes) -> tuple[int, dict[str, str], bytes, bool]:
        """(status, headers, body, whether the connection stays open) of the
        response that status line `line` starts, after any interim 1xx
        ones. Header names are lower case; a repeated header's values are
        joined by ", "."""
        while True:
            version, _, rest = line.partition(b" ")
            if version not in (b"HTTP/1.0", b"HTTP/1.1") or not rest[:3].isdigit() \
                    or rest[3:4].strip():
                raise ValueError(f"malformed status line {line[:80]!r}")
            headers: dict[str, str] = {}
            for _ in range(_MAX_HEADERS + 1):
                header = self._line()
                if header in (b"\r\n", b"\n"):
                    break
                if not header:
                    raise OSError("response truncated in its headers")
                name, _, value = header.decode("latin-1").partition(":")
                name, value = name.strip().lower(), value.strip()
                headers[name] = f"{headers[name]}, {value}" if name in headers else value
            else:
                raise ValueError(f"more than {_MAX_HEADERS} headers")
            status = int(rest[:3])
            if status >= 200:
                break
            line = self._line()
        tokens = {token.strip().lower() for token in headers.get("connection", "").split(",")}
        keep = "close" not in tokens if version == b"HTTP/1.1" else "keep-alive" in tokens
        coding, length = headers.get("transfer-encoding"), headers.get("content-length")
        if status in (204, 304):
            body = b""
        elif coding is not None and coding.rpartition(",")[2].strip().lower() == "chunked":
            body = self._chunked()
        elif coding is None and length is not None:
            if not length.isdigit():
                raise ValueError(f"malformed Content-Length {length!r}")
            body = self._read(int(length))
        else:
            body, keep = self.file.read(), False
        return status, headers, body, keep

    def _chunked(self) -> bytes:
        pieces = []
        while True:
            size = self._line().partition(b";")[0].strip()  # a chunk extension is ignored
            if not size.isalnum():
                raise ValueError(f"malformed chunk size {size!r}")
            if not (n := int(size, 16)):
                break
            pieces.append(self._read(n))
            self._read(2)  # the CRLF that ends the chunk
        while self._line() not in (b"\r\n", b"\n", b""):  # the trailer section is ignored
            pass
        return b"".join(pieces)


class RetryingClient:
    """JSON GETs over kept-alive HTTP/1.1 connections, one per (scheme,
    host:port), with per-instance (that is, per-worker) backoff.

    A transport error (`OSError`, or a `ValueError` for a response not
    framed as HTTP/1.1 says) drops its connection and takes the backoff
    path; but a GET that fails on a reused connection before any response
    (the server closed it while idle) is sent again at once on a new one,
    with no pause and no retry counted. `Connection: close`, an HTTP/1.0
    reply without keep-alive, or a body ended by the close drops the
    connection after the body. No redirects (a 3xx fails), proxies or gzip.

    Sleeps are routed through the injected `sleep` so tests can observe the
    schedule instead of waiting it out; `pauses` records every pause taken.
    """

    def __init__(
        self,
        policy: BackoffPolicy,
        sleep: Callable[[float], None] = time.sleep,
        api_key: Optional[str] = None,
    ):
        self.policy = policy
        self.sleep = sleep
        self.api_key = api_key
        self.pauses: list[float] = []
        self._conns: dict[tuple[str, str], _Connection] = {}

    def close(self) -> None:
        while self._conns:
            self._conns.popitem()[1].close()

    def _get(self, url: str, params: dict) -> tuple[int, str, bytes]:
        """(status, Retry-After, body) of one GET of `url` with `params`."""
        from urllib.parse import urlencode, urlsplit
        parts = urlsplit(url)  # FetchJob rejects an explorer URL with a query of its own
        target = (parts.path or "/") + ("?" + urlencode(params) if params else "")
        request = f"GET {target} HTTP/1.1\r\nHost: {parts.netloc}\r\n{_HEADERS}\r\n".encode()
        key = (parts.scheme, parts.netloc)
        conn = self._conns.get(key)
        reused, keep = conn is not None, False
        try:
            try:
                if conn is None:
                    conn = self._conns[key] = _Connection(parts)
                line = conn.send(request)
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                conn.close()  # the server closed it while idle
                conn = self._conns[key] = _Connection(parts)
                line = conn.send(request)
            status, headers, body, keep = conn.response(line)
        finally:
            if not keep and key in self._conns:
                self._conns.pop(key).close()
        return status, headers.get("retry-after", ""), body

    def get_json(self, url: str, params: Optional[dict] = None) -> dict:
        params = dict(params or {})
        if self.api_key:
            params["apikey"] = self.api_key
        delay = self.policy.initial
        retries = 0
        while True:
            pause = delay
            try:
                status, wait, body = self._get(url, params)
            except (OSError, ValueError) as exc:  # ValueError: a response framed wrong
                if retries >= self.policy.max_retries:
                    raise FetchError(f"{url} unreachable after {retries} retries: {exc}") from exc
            else:
                if status == 200:
                    try:
                        body = json.loads(body)
                    except ValueError as exc:
                        raise FetchError(f"{url} returned non-JSON body") from exc
                    if not isinstance(body, dict):
                        raise FetchError(f"{url} returned {type(body).__name__}, not an object")
                    return body
                if status not in _RETRY_STATUS:
                    raise FetchError(f"{url} returned HTTP {status}")
                if retries >= self.policy.max_retries:
                    state = "rate-limited" if status == 429 else f"answering HTTP {status}"
                    raise FetchError(f"{url} still {state} after {retries} retries")
                if wait.isdigit():  # delta-seconds; an HTTP-date keeps the schedule
                    pause = min(max(delay, float(wait)), self.policy.cap)
            self.pauses.append(pause)
            self.sleep(pause)
            delay = min(delay * self.policy.factor, self.policy.cap)
            retries += 1


def resolve_endpoint(
    ledger: str,
    override: Optional[str] = None,
    config: Optional[dict] = None,
    env: Optional[dict] = None,
) -> tuple[str, Optional[str]]:
    """Base URL and API key for a ledger.

    Precedence: explicit override, then LEDGERGRAPH_<LEDGER>_URL/_KEY
    environment variables, then the config file, then built-in defaults.
    """
    env = os.environ if env is None else env
    tag = ledger.upper()
    cfg = (config or {}).get(ledger, {})
    if not isinstance(cfg, dict) or not all(
            isinstance(cfg.get(field, ""), str) for field in ("url", "key")):
        raise ValueError(f"config entry {ledger!r} must be an object of url/key strings")
    url = override or env.get(f"LEDGERGRAPH_{tag}_URL") or cfg.get("url") \
        or explorers.EXPLORER_DEFAULTS[ledger]
    key = env.get(f"LEDGERGRAPH_{tag}_KEY") or cfg.get("key")
    return url, key


# -- shared by both retrieval shapes -----------------------------------------


def _field(payload: dict, key: str, kind: type, url: str):
    """payload[key] when it is a `kind`, never a bool; otherwise (absent
    included) FetchError, so the range it was fetched for fails."""
    value = payload.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise FetchError(f"{url} gave {key!r} = {value!r}, not a JSON {kind.__name__}")
    return value


def _dedup_key(tx: dict, ledger: str, record: TransactionRecord):
    """Cross-page duplicate detection: the native identity when present
    (see explorers.tx_hash), else the record's (timestamp, senders,
    recipients) tuple."""
    try:
        return explorers.tx_hash(tx, ledger)
    except explorers.PayloadError:
        return (record.timestamp, record.senders, record.recipients)


def _keyed_records(
    job: FetchJob, txs: list, parse: Callable[[object], Optional[TransactionRecord]]
) -> tuple[list[tuple[object, TransactionRecord]], int]:
    """(dedup key, record) for each payload in the window, and the number
    of payloads skipped as malformed or unmappable."""
    out: list[tuple[object, TransactionRecord]] = []
    skipped = 0
    for tx in txs:
        try:
            record = parse(tx)
        except ValueError:  # a PayloadError, or a field TransactionRecord rejects
            record = None
        if record is None:
            skipped += 1
        elif job.start <= record.timestamp < job.end:
            out.append((_dedup_key(tx, job.ledger, record), record))
    return out, skipped


def _merge(
    outcomes: list[tuple[str, object]], unit: str, unrequested: tuple[str, ...] = ()
) -> FetchResult:
    """One result from (range name, outcome) pairs in task order.

    An outcome is a FetchError or the (pairs, skipped) of `_keyed_records`;
    the first sighting of each key wins. If any range failed, raises
    FetchError listing the failed ranges, then `unrequested`, with the
    merged records as its partial result.
    """
    result = FetchResult()
    failed: list[str] = []
    seen: set = set()
    for name, outcome in outcomes:
        if isinstance(outcome, FetchError):
            failed.append(f"{name}: {outcome}")
            continue
        pairs, skipped = outcome
        result.skipped_payloads += skipped
        for key, record in pairs:
            if key not in seen:
                seen.add(key)
                result.records.append(record)
    if failed:
        raise FetchError(f"{len(failed)} {unit} failed", failed + list(unrequested),
                         partial=result)
    return result


# -- ripple: offset pages over a time window, one round of `workers` at a time


def _fetch_interval(job: FetchJob, clients: list[RetryingClient]) -> FetchResult:
    url = explorers.interval_url(job.source)
    window = f"{job.ledger} [{job.start}, {job.end})"

    def get_page(task: tuple[int, int]) -> object:
        slot, offset = task
        try:
            page = clients[slot].get_json(
                url, {"start": job.start, "end": job.end, "limit": PAGE_SIZE, "offset": offset})
            return _field(page, "transactions", list, url)
        except FetchError as exc:
            return exc

    outcomes: list[tuple[str, object]] = []
    offset = 0
    while True:
        tasks = [(slot, offset + slot * PAGE_SIZE) for slot in range(job.workers)]
        offset += job.workers * PAGE_SIZE
        failed = False
        for (_, at), txs in zip(tasks, _run_ordered(tasks, get_page, job.workers)):
            name = f"{window} page offset {at}"
            if isinstance(txs, FetchError):
                outcomes.append((name, txs))
                failed = True
                continue
            outcomes.append((name, _keyed_records(job, txs, explorers.parse_ripple_tx)))
            if len(txs) < PAGE_SIZE:  # the end of the data; later pages are moot
                return _merge(outcomes, "page(s)")
        if failed:  # the window's end was never seen
            return _merge(outcomes, "page(s)",
                          (f"{window} page offsets from {offset} on: not requested",))


# -- block-oriented ledgers ---------------------------------------------------


def _lower_bound_block(
    client: RetryingClient, base: str, latest: int, threshold: int
) -> int:
    """Smallest height whose block time is >= threshold (latest+1 if none),
    were block times non-decreasing.

    They are not: a block may be stamped up to `_BLOCK_TIME_SKEW` before or
    after its neighbours. So the caller pads each threshold by that much
    and filters every transaction by its own timestamp.
    """
    lo, hi = 0, latest + 1
    while lo < hi:
        mid = (lo + hi) // 2
        url = explorers.header_url(base, mid)
        if _field(client.get_json(url), "time", int, url) >= threshold:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _fetch_blocks(job: FetchJob, clients: list[RetryingClient]) -> FetchResult:
    base, probe = job.source, clients[0]
    try:
        url = explorers.latest_url(base)
        latest = _field(probe.get_json(url), "height", int, url)
        first = _lower_bound_block(probe, base, latest, job.start - _BLOCK_TIME_SKEW)
        past = _lower_bound_block(probe, base, latest, job.end + _BLOCK_TIME_SKEW)
    except FetchError as exc:  # the whole window is left to re-run
        window = f"{job.ledger} [{job.start}, {job.end})"
        raise FetchError("block search failed", [f"{window} block search: {exc}"]) from exc
    chunks = [
        range(lo, min(lo + _BLOCKS_PER_TASK, past))
        for lo in range(first, past, _BLOCKS_PER_TASK)
    ]

    def fetch_chunk(client: RetryingClient, blocks: range) -> object:
        pairs: list[tuple[object, TransactionRecord]] = []
        skipped = 0
        try:
            for height in blocks:
                url = explorers.block_txs_url(base, height)
                payload = client.get_json(url)
                block_time = payload.get("time")
                found, bad = _keyed_records(
                    job, _field(payload, "txs", list, url),
                    lambda tx: explorers.parse_block_tx(job.ledger, tx, block_time))
                pairs += found
                skipped += bad
        except FetchError as exc:
            return exc
        return pairs, skipped

    def fetch_share(slot: int) -> list:  # chunks slot, slot + workers, ... in order
        return [fetch_chunk(clients[slot], c) for c in chunks[slot::job.workers]]

    shares = list(_run_ordered(range(min(job.workers, len(chunks))), fetch_share, job.workers))
    outcomes = [shares[i % job.workers][i // job.workers] for i in range(len(chunks))]
    names = [f"{job.ledger} blocks [{c.start}, {c.stop})" for c in chunks]
    return _merge(list(zip(names, outcomes)), "block range(s)")


# -- entry point --------------------------------------------------------------


def fetch_transactions(
    job: FetchJob,
    policy: Optional[BackoffPolicy] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> FetchResult:
    """Retrieve every transaction of `job.ledger` in [start, end).

    Local sources are dump files (undecodable lines are skipped and
    counted); a dump's records of other ledgers are left out, and their
    count is logged. HTTP sources are paged or block-walked with
    `job.workers` concurrent fetchers; the result is the same multiset of
    records for any worker count. Raises FetchError (with the failed
    sub-ranges and any partial result) when a range cannot be retrieved.
    An HTTP fetch, failed or not, logs its retries and the seconds its
    fetchers paused.
    """
    if not is_url(job.source):
        with open(job.source, encoding="utf-8") as fh:
            records, skipped = read_dump_lenient(fh)
        kept = [r for r in records if r.ledger == job.ledger and job.start <= r.timestamp < job.end]
        log.info("%d other-ledger record(s) left out", sum(r.ledger != job.ledger for r in records))
        return FetchResult(records=kept, skipped_payloads=skipped)

    policy = policy or policy_from_env()
    clients = [RetryingClient(policy, sleep=sleep, api_key=job.api_key)
               for _ in range(job.workers)]
    try:
        return (_fetch_interval if job.ledger == "ripple" else _fetch_blocks)(job, clients)
    finally:
        for client in clients:
            client.close()
        pauses = [pause for client in clients for pause in client.pauses]
        log.info("fetch retries: %d (%.1fs paused)", len(pauses), sum(pauses))
