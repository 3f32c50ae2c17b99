"""Transaction-graph reconstruction and small-world analysis for DLTs.

The public names load their submodule on first access (PEP 562), so a
process that only fetches never imports numpy.
"""

import importlib
import logging
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "graph": ("Component", "DirectedGraph", "induced_subgraph", "main_component",
                  "strongly_connected_components", "undirected_projection",
                  "weakly_connected_components"),
        "metrics": ("DegreeHistogram", "MetricsReport", "SamplePlan", "aspl",
                    "average_clustering", "build_metrics_report", "clustering_coefficient",
                    "degree_distribution", "load_centrality"),
        "nullmodel": ("RandomGraphSpec", "SmallWorldReport", "erdos_renyi", "ratios_and_sigma",
                      "small_world_compare"),
        "pajek": ("PajekParseError", "read_pajek", "write_pajek"),
        "records": ("IngestionStats", "RecordSchemaError", "TransactionRecord", "build_graph",
                    "map_to_edges", "read_dump", "read_dump_lenient", "write_dump"),
        "fetch": ("BackoffPolicy", "FetchError", "FetchJob", "FetchResult",
                  "fetch_transactions"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def _run_ordered(tasks: Sequence, fn: Callable, workers: int) -> Iterator:
    """Yield fn(t) for each task in task order, each as soon as it and the
    tasks before it are done, so a caller can fold the results as they
    come. `fetch` and `metrics` share it. One worker or task runs each
    task when its result is asked for, and loads no thread pool; more run
    all tasks at once on a pool that `Executor.map` keeps in order."""
    if workers <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks)


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Time the block: log `<name> took <s>s` on the `ledgergraph` logger
    when it completes. A block that raises logs nothing."""
    t0 = time.perf_counter()
    yield
    logging.getLogger(__name__).info("%s took %.2fs", name, time.perf_counter() - t0)
