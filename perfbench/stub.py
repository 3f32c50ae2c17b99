"""Stub block explorer that serves every window the benchmark fetches.

Serves Ripple days and a Bitcoin block range from a JSON payload file
over the endpoint layout `ledgergraph.explorers` speaks, on 127.0.0.1.
Run as its own process:

    python3 perfbench/stub.py PAYLOAD.json

It prints the port it listens on as the first line of its stdout and runs
until terminated.

- Every response, headers and body, leaves in one write. Two writes on a
  kept-alive connection meet Nagle's algorithm and delayed ACKs, and the
  benchmark would then time the stub instead of the client.
- Every `RATE_LIMIT_EVERY`-th counted request is answered with HTTP 429.
- `GET /_stats` returns the counters, `GET /_reset` zeroes them; neither
  is counted. `wasted` counts Ripple pages past a day's last page and
  block requests outside the window's block range.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

RATE_LIMIT_EVERY = 50
PAGE = 100  # the page size ledgergraph asks for by default


def _response(status: int, body: bytes) -> bytes:
    reason = {200: "OK", 404: "Not Found", 429: "Too Many Requests"}[status]
    head = (f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode() + body


def _json(status: int, payload: object) -> bytes:
    return _response(status, json.dumps(payload).encode())


class Explorer:
    """Pre-rendered responses plus the request counters.

    The payload holds `ripple`, Ripple days keyed by their start (unix
    seconds, as a string), each a list of transactions in ledger order;
    `blocks`, a chain of {"time", "txs"}; and `window`, the [start, end)
    whose blocks the client is expected to fetch.
    """

    def __init__(self, payload: dict):
        self.ripple = payload["ripple"]
        self.pages = {(day, offset): _json(200, {"transactions": txs[offset:offset + PAGE]})
                      for day, txs in self.ripple.items()
                      for offset in range(0, len(txs) + 1, PAGE)}
        blocks = payload["blocks"]
        lo, hi = payload["window"]
        self.headers = [_json(200, {"height": h, "time": b["time"]})
                        for h, b in enumerate(blocks)]
        self.block_txs = [_json(200, b) for b in blocks]
        self.in_window = [lo <= b["time"] < hi for b in blocks]
        self.latest = _json(200, {"height": len(blocks) - 1})
        self.limited = _json(429, {"error": "rate limited"})
        self.missing = _json(404, {"error": "not found"})
        self.empty_page = _json(200, {"transactions": []})
        self.lock = threading.Lock()
        self.counters = {"requests": 0, "rate_limited": 0, "wasted": 0}

    def respond(self, target: str) -> bytes:
        url = urlparse(target)
        if url.path == "/_stats":
            with self.lock:
                return _json(200, self.counters)
        if url.path == "/_reset":
            with self.lock:
                self.counters = dict.fromkeys(self.counters, 0)
                return _json(200, self.counters)
        with self.lock:
            self.counters["requests"] += 1
            if self.counters["requests"] % RATE_LIMIT_EVERY == 0:
                self.counters["rate_limited"] += 1
                return self.limited
        if url.path == "/v2/transactions":
            query = {k: v[0] for k, v in parse_qs(url.query).items()}
            day, offset = query.get("start", ""), int(query.get("offset", 0))
            if query.get("limit") != str(PAGE) or day not in self.ripple:
                return self.missing
            if offset > len(self.ripple[day]) // PAGE * PAGE:
                self._count_waste()
            return self.pages.get((day, offset), self.empty_page)
        if url.path == "/api/latest":
            return self.latest
        parts = url.path.strip("/").split("/")
        if len(parts) == 4 and parts[:2] == ["api", "block"] and parts[2].isdigit():
            height = int(parts[2])
            if height < len(self.headers):
                if parts[3] == "header":
                    return self.headers[height]
                if parts[3] == "txs":
                    if not self.in_window[height]:
                        self._count_waste()
                    return self.block_txs[height]
        return self.missing

    def _count_waste(self) -> None:
        with self.lock:
            self.counters["wasted"] += 1


def serve(payload_path: str) -> None:
    with open(payload_path, encoding="utf-8") as fh:
        explorer = Explorer(json.load(fh))

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            self.wfile.write(explorer.respond(self.path))

        def log_message(self, *args) -> None:
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    serve(sys.argv[1])
