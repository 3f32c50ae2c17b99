"""Span tracer that wraps ledgergraph's public functions from outside.

`Tracer.install()` replaces each function in `TARGETS` at every module
attribute that holds it: `ledgergraph.metrics.induced_subgraph` as well as
`ledgergraph.graph.induced_subgraph`, because callers import by name. Nested
calls therefore nest as spans, and self times and call counts are exact.
Private helpers stay unwrapped. `uninstall()` restores the originals.

A span is (id, name, parent, start, end, attrs). A span opened on a worker
thread with nothing open on that thread is parented to the span open on
the main thread, so worker time nests under the call that started it.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Optional

TARGETS = (
    "records.read_dump", "records.read_dump_lenient", "records.build_graph",
    "records.write_dump",
    "pajek.read_pajek", "pajek.write_pajek",
    "graph.weakly_connected_components", "graph.strongly_connected_components",
    "graph.main_component", "graph.induced_subgraph", "graph.undirected_projection",
    "metrics.degree_distribution", "metrics.average_clustering",
    "metrics.clustering_coefficient", "metrics.aspl", "metrics.load_centrality",
    "metrics.build_metrics_report",
    "nullmodel.erdos_renyi", "nullmodel.small_world_compare",
    "fetch.fetch_transactions", "fetch.RetryingClient.get_json",
    "explorers.parse_ripple_tx", "explorers.parse_block_tx", "explorers.parse_bitcoin_tx",
    "cli.cmd_fetch", "cli.cmd_build", "cli.cmd_analyze", "cli.cmd_compare",
)


def _note_build(span: list, args: tuple, result) -> None:
    stats = result[1]
    span[5].update(transactions=stats.transactions,
                   binary_connections=stats.binary_connections,
                   unique_arcs=stats.unique_arcs)


def _note_members(span: list, args: tuple, result) -> None:
    span[5]["nodes"] = len(args[1])


def _note_pairs(span: list, args: tuple, result) -> None:
    span[5]["pairs"] = result[1]


def _note_sample(span: list, args: tuple, result) -> None:
    span[5]["sample_size"] = result.sample_size


HOOKS: dict[str, Callable] = {
    "records.build_graph": _note_build,
    "graph.induced_subgraph": _note_members,
    "metrics.aspl": _note_pairs,
    "metrics.build_metrics_report": _note_sample,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stacks: dict[int, list[list]] = {}
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> list:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1][0]
            else:
                main = self._stacks.get(threading.main_thread().ident)
                parent = main[-1][0] if main else None
            span = [len(self.spans), name, parent, 0.0, 0.0, {}]
            self.spans.append(span)
            stack.append(span)
        span[3] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        with self._lock:
            self._stacks[threading.get_ident()].pop()

    def sleep(self, seconds: float) -> None:
        """A `sleep=` for fetch_transactions: each backoff pause is a span."""
        span = self._open("fetch.pause")
        try:
            time.sleep(seconds)
        finally:
            self._close(span)

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        inject_sleep = name == "fetch.fetch_transactions"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inject_sleep:
                kwargs.setdefault("sleep", self.sleep)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(span, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "ledgergraph" or key.startswith("ledgergraph.")]
        for target in TARGETS:
            module_name, _, attr = target.partition(".")
            owner: object = sys.modules[f"ledgergraph.{module_name}"]
            if "." in attr:  # a method: patch it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self._wrap(target, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[Optional[int], list[list]] = {}
    for span in spans:
        children.setdefault(span[2], []).append(span)
    out = {}
    for span in spans:
        start, end = span[3], span[4]
        covered = 0.0
        reach = start
        for child in sorted(children.get(span[0], ()), key=lambda s: s[3]):
            lo, hi = max(child[3], reach), min(child[4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span[0]] = (end - start) - covered
    return out
