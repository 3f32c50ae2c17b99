"""In-process HTTP server with scripted responses for fetch tests."""

from __future__ import annotations

import json
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, urlparse

Responder = Callable[[str, dict], tuple]


class FixtureServer:
    """Serves whatever `responder(path, query) -> (status, payload)` says.

    A responder may add a third element, a dict of extra response headers.

    Every request is appended to `requests` as (path, query) with query
    values flattened to single strings.
    """

    def __init__(self, responder: Responder):
        self.responder = responder
        self.requests: list[tuple[str, dict]] = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                parsed = urlparse(self.path)
                query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
                with outer._lock:
                    outer.requests.append((parsed.path, query))
                status, payload, *extra = outer.responder(parsed.path, query)
                body = json.dumps(payload).encode()
                self.send_response(status)
                for name, value in (extra[0] if extra else {}).items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> "FixtureServer":
        # `shutdown()` waits for the serve loop's next poll: the default
        # 0.5 s would be paid by every test that starts a server
        threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.01},
                         daemon=True).start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()


class OneShotServer(FixtureServer):
    """Answers one request per connection with the raw bytes
    `render(path, query)` returns, then closes the connection whatever the
    response said. A kept-alive client meets it as a server whose idle
    timeout ran out between two requests.

    Requests are recorded in `requests` as FixtureServer records them.
    """

    def __init__(self, render: Callable[[str, dict], bytes]):
        self.requests: list[tuple[str, dict]] = []
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                target = self.rfile.readline().split()[1].decode()
                while self.rfile.readline().strip():  # the headers
                    pass
                parsed = urlparse(target)
                query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
                outer.requests.append((parsed.path, query))
                self.wfile.write(render(parsed.path, query))

        self._server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True


class KeptAliveServer(FixtureServer):
    """Answers every request on a connection, for as long as the client
    keeps it open, with the raw bytes `render(path, query)` returns. It
    never closes a connection itself, whatever the response said, so a
    client that reuses a connection it should have dropped is seen.

    Requests are recorded in `requests` as FixtureServer records them, and
    `connections` counts the connections accepted.
    """

    def __init__(self, render: Callable[[str, dict], bytes]):
        self.requests: list[tuple[str, dict]] = []
        self.connections = 0
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                outer.connections += 1
                while request_line := self.rfile.readline():
                    while self.rfile.readline().strip():  # the headers
                        pass
                    parsed = urlparse(request_line.split()[1].decode())
                    query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
                    outer.requests.append((parsed.path, query))
                    self.wfile.write(render(parsed.path, query))

        self._server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True


def http11(status: int, payload: object, declared_length: Optional[int] = None) -> bytes:
    """A raw HTTP/1.1 response with a JSON body and no `Connection` header.
    `declared_length` overrides the `Content-Length` the response announces."""
    body = json.dumps(payload).encode()
    length = len(body) if declared_length is None else declared_length
    return (f"HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n").encode() + body


def interval_responder(transactions: list[dict]) -> Responder:
    """Ripple-style pager over a fixed transaction list."""

    def respond(path: str, query: dict) -> tuple[int, object]:
        if path != "/v2/transactions":
            return 404, {"error": "not found"}
        offset = int(query.get("offset", 0))
        limit = int(query.get("limit", 100))
        return 200, {"transactions": transactions[offset : offset + limit]}

    return respond


def block_responder(blocks: list[tuple[int, list[dict]]]) -> Responder:
    """Block explorer over a list of (block_time, [tx, ...])."""

    def respond(path: str, query: dict) -> tuple[int, object]:
        if path == "/api/latest":
            return 200, {"height": len(blocks) - 1}
        parts = path.strip("/").split("/")
        if len(parts) == 4 and parts[0] == "api" and parts[1] == "block":
            height = int(parts[2])
            if not (0 <= height < len(blocks)):
                return 404, {"error": "no such block"}
            when, txs = blocks[height]
            if parts[3] == "header":
                return 200, {"height": height, "time": when}
            if parts[3] == "txs":
                return 200, {"time": when, "txs": txs}
        return 404, {"error": "not found"}

    return respond


def flaky(
    responder: Responder, fail_first: int, status: int = 429, headers: Optional[dict] = None
) -> Responder:
    """Wrap a responder to answer `status` (with `headers`) for the first
    `fail_first` requests."""
    remaining = {"n": fail_first}
    lock = threading.Lock()

    def respond(path: str, query: dict) -> tuple:
        with lock:
            if remaining["n"] > 0:
                remaining["n"] -= 1
                return status, {"error": "try again"}, headers or {}
        return responder(path, query)

    return respond
