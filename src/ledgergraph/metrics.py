"""Graph analysis suite: degrees, clustering, shortest paths, load.

The shortest-path metrics are the expensive part at ledger scale, so both
kernels are vectorized over a compiled CSR view of the graph:

- ASPL uses a bitset multi-source BFS: 64 BFS sources ride in one uint64
  lane per node, and each level is one gather + bitwise-or sweep over the
  arc array. Distances are summed as exact integers, so a fraction-1 run
  reproduces the brute-force all-pairs average bit for bit.
- Load centrality is normalized shortest-path betweenness (it matches
  networkx.betweenness_centrality, not Goh load or
  networkx.load_centrality). It uses Brandes' per-source accumulation of
  pair dependencies: a forward BFS with path counting, then a reverse
  sweep. Sources run in batches of 16 that share each level's numpy
  calls: source b of a batch owns row b of flat k x n state arrays, and a
  level touches only the arcs leaving the batch's frontier. Path counts
  are exact integers in float64 and every dependency sum runs in the
  same order as a one-source-at-a-time pass, so batching changes no bit.

Worker pools only change which thread runs which fixed chunk of sources;
chunk boundaries and the reduction order never depend on the worker count,
so results are bit-identical for any `workers` value.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from .graph import (
    Component,
    DirectedGraph,
    induced_subgraph,
    main_component,
    undirected_projection,
    weakly_connected_components,
)

_BITS = 64  # BFS sources per bitset batch
_BRANDES_CHUNK = 256  # sources per load-centrality task (fixed: see module doc)
_BRANDES_BATCH = 16  # sources swept together inside a task

_T = TypeVar("_T")
_R = TypeVar("_R")


# ---------------------------------------------------------------------------
# compiled adjacency


class _Csr:
    """Forward and reverse CSR adjacency of a DirectedGraph."""

    def __init__(self, graph: DirectedGraph):
        n = graph.node_count
        m = graph.arc_count
        src = np.empty(m, dtype=np.int64)
        dst = np.empty(m, dtype=np.int64)
        for i, (a, b) in enumerate(graph.arcs()):
            src[i] = a
            dst[i] = b
        self.n = n
        self.m = m
        self.fwd_indptr, self.fwd_indices = _pack(n, src, dst)
        self.rev_indptr, self.rev_indices = _pack(n, dst, src)


def _pack(n: int, key: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((val, key))
    key = key[order]
    val = val[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, key + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, val.astype(np.int32)


def _run_ordered(tasks: Sequence[_T], fn: Callable[[_T], _R], workers: int) -> list[_R]:
    """Run fn over tasks; results always come back in task order."""
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, t) for t in tasks]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# degree distribution


@dataclass
class DegreeHistogram:
    """Degree frequency tables (degree -> node count).

    Degrees count distinct neighbors: a mutual pair contributes one to each
    node's total degree, not two. `max_hubs` lists the top nodes by total
    degree as (node id, total degree).
    """

    in_degree: dict[int, int]
    out_degree: dict[int, int]
    total_degree: dict[int, int]
    max_hubs: list[tuple[int, int]]


def degree_distribution(graph: DirectedGraph, hub_count: int = 10) -> DegreeHistogram:
    n = graph.node_count
    in_deg = np.fromiter((len(graph.predecessors(v)) for v in range(n)), dtype=np.int64, count=n)
    out_deg = np.fromiter((len(graph.successors(v)) for v in range(n)), dtype=np.int64, count=n)
    mutual = np.fromiter(
        (len(graph.successors(v) & graph.predecessors(v)) for v in range(n)),
        dtype=np.int64,
        count=n,
    )
    total_deg = in_deg + out_deg - mutual

    def table(deg: np.ndarray) -> dict[int, int]:
        if n == 0:
            return {}
        counts = np.bincount(deg)
        return {int(d): int(c) for d, c in enumerate(counts) if c}

    if n == 0:
        hubs: list[tuple[int, int]] = []
    else:
        order = np.lexsort((np.arange(n), -total_deg))[:hub_count]
        hubs = [(int(v), int(total_deg[v])) for v in order]
    return DegreeHistogram(table(in_deg), table(out_deg), table(total_deg), hubs)


def histogram_lines(table: dict[int, int]) -> str:
    """Two-column `degree count` text, ascending degree (log-log plot food)."""
    return "".join(f"{d} {c}\n" for d, c in sorted(table.items()))


# ---------------------------------------------------------------------------
# clustering


def _neighbor_sets(graph: DirectedGraph) -> list[set[int]]:
    return [graph.successors(v) | graph.predecessors(v) for v in range(graph.node_count)]


def clustering_coefficient(graph: DirectedGraph, node: int, directed: bool = False) -> float:
    """Fraction of this node's neighbor pairs that are themselves linked.

    Neighbors are the distinct in- and out-neighbors. By default linkage is
    checked without orientation; `directed=True` counts ordered arcs among
    the neighbors against k*(k-1) instead.
    """
    nbrs = graph.successors(node) | graph.predecessors(node)
    nbrs.discard(node)
    k = len(nbrs)
    if k < 2:
        return 0.0
    if directed:
        arcs = sum(len(graph.successors(u) & nbrs) for u in nbrs)
        return arcs / (k * (k - 1))
    links2 = 0  # each linked pair counted twice
    for u in nbrs:
        links2 += len((graph.successors(u) | graph.predecessors(u)) & nbrs)
    return links2 / (k * (k - 1))


def average_clustering(
    graph: DirectedGraph,
    nodes: Optional[Iterable[int]] = None,
    directed: bool = False,
) -> float:
    """Mean clustering coefficient over `nodes` (default: every node).

    Nodes with fewer than two neighbors contribute 0 and stay in the
    average.
    """
    node_list = list(nodes) if nodes is not None else list(range(graph.node_count))
    if not node_list:
        return 0.0
    nbr = _neighbor_sets(graph)
    total = 0.0
    for v in node_list:
        s = nbr[v]
        s.discard(v)
        k = len(s)
        if k < 2:
            continue
        if directed:
            linked = sum(len(graph.successors(u) & s) for u in s)
            total += linked / (k * (k - 1))
        else:
            linked2 = sum(len(nbr[u] & s) for u in s)
            total += linked2 / (k * (k - 1))
    return total / len(node_list)


# ---------------------------------------------------------------------------
# average shortest path length


@dataclass(frozen=True)
class SamplePlan:
    """How to sample the main component for the ASPL estimate.

    fraction 1.0 turns the estimate into the exact all-pairs value. The
    component is selected on the directed graph; `treat_as_undirected`
    additionally symmetrizes the arcs before measuring distances.
    """

    fraction: float = 0.10
    seed: int = 0
    component: str = "weak_main"
    treat_as_undirected: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.fraction <= 1.0):
            raise ValueError(f"sample fraction must be in (0, 1], got {self.fraction}")
        if self.component not in ("weak_main", "strong_main"):
            raise ValueError(
                f"component must be 'weak_main' or 'strong_main', got {self.component!r}"
            )


def _select_main(graph: DirectedGraph, plan: SamplePlan) -> tuple[DirectedGraph, list[int]]:
    kind = "weak" if plan.component == "weak_main" else "strong"
    comp = main_component(graph, kind)
    sub, original = induced_subgraph(graph, comp.members)
    if plan.treat_as_undirected:
        sub = undirected_projection(sub)
    return sub, original


def _sample_nodes(n: int, fraction: float, seed: int) -> np.ndarray:
    size = math.ceil(fraction * n)
    if size >= n:
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=size, replace=False))


def _batch_pair_sums(
    rev_indptr: np.ndarray,
    rev_indices: np.ndarray,
    n: int,
    batch: np.ndarray,
    targets: np.ndarray,
    nonempty: np.ndarray,
    seg_starts: np.ndarray,
) -> tuple[int, int]:
    """Distance sum and pair count from <=64 sources to the target set."""
    seen = np.zeros(n, dtype=np.uint64)
    seen[batch] = np.uint64(1) << np.arange(len(batch), dtype=np.uint64)
    frontier = seen.copy()
    total = 0
    pairs = 0
    level = 0
    while True:
        level += 1
        pulled = np.zeros(n, dtype=np.uint64)
        if seg_starts.size:
            pulled[nonempty] = np.bitwise_or.reduceat(frontier[rev_indices], seg_starts)
        new = pulled & ~seen
        if not new.any():
            break
        seen |= new
        hit = int(np.bitwise_count(new[targets]).sum())
        total += level * hit
        pairs += hit
        frontier = new
    return total, pairs


def _pair_distance_stats(
    csr_rev: tuple[np.ndarray, np.ndarray],
    n: int,
    sources: np.ndarray,
    targets: np.ndarray,
    workers: int,
) -> tuple[int, int]:
    rev_indptr, rev_indices = csr_rev
    nonempty = np.flatnonzero(rev_indptr[1:] > rev_indptr[:-1])
    seg_starts = rev_indptr[nonempty]
    batches = [sources[i : i + _BITS] for i in range(0, len(sources), _BITS)]

    def run(batch: np.ndarray) -> tuple[int, int]:
        return _batch_pair_sums(rev_indptr, rev_indices, n, batch, targets, nonempty, seg_starts)

    results = _run_ordered(batches, run, workers)
    total = sum(r[0] for r in results)
    pairs = sum(r[1] for r in results)
    return total, pairs


def aspl(graph: DirectedGraph, plan: SamplePlan, workers: int = 1) -> tuple[float, int]:
    """Average shortest path length over the sampled main component.

    Draws ceil(fraction * |main|) distinct nodes (seeded) and averages the
    BFS distance over ordered pairs (s, t) within the sample, skipping
    unreachable pairs. Returns (aspl, ordered pairs averaged).
    """
    sub, _ = _select_main(graph, plan)
    n = sub.node_count
    if n < 2:
        raise ValueError(f"main component has {n} node(s); ASPL needs at least 2")
    sample = _sample_nodes(n, plan.fraction, plan.seed)
    if len(sample) < 2:
        raise ValueError(
            f"sample of {len(sample)} node(s) from a {n}-node component "
            "cannot form an ordered pair; raise the fraction"
        )
    csr = _Csr(sub)
    total, pairs = _pair_distance_stats(
        (csr.rev_indptr, csr.rev_indices), n, sample, sample, workers
    )
    if pairs == 0:
        raise ValueError("no ordered pair in the sample is connected")
    return total / pairs, pairs


# ---------------------------------------------------------------------------
# load centrality


def _brandes_chunk(csr: _Csr, tails: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Pair-dependency totals contributed by `sources` (unnormalized).

    Sweeps _BRANDES_BATCH sources at a time; node v of batch source b is
    entry b*n + v of the flat state arrays. `tails` is the tail node of
    every forward CSR arc.
    """
    n = csr.n
    indptr, indices = csr.fwd_indptr, csr.fwd_indices
    sources = sources[indptr[sources + 1] > indptr[sources]]  # sinks add nothing
    cb = np.zeros(n, dtype=np.float64)
    dist = np.full(_BRANDES_BATCH * n, -1, dtype=np.int32)
    sigma = np.zeros(_BRANDES_BATCH * n, dtype=np.float64)
    delta = np.zeros(_BRANDES_BATCH * n, dtype=np.float64)
    for lo in range(0, len(sources), _BRANDES_BATCH):
        batch = sources[lo : lo + _BRANDES_BATCH]
        roots = np.arange(len(batch), dtype=np.int64) * n + batch
        dist[roots] = 0
        sigma[roots] = 1.0
        frontier = roots
        tree_levels: list[tuple[np.ndarray, np.ndarray]] = []
        touched = [roots]
        level = 0
        while True:
            v = frontier % n
            starts = indptr[v]
            counts = indptr[v + 1] - starts
            total = int(counts.sum())
            if total == 0:
                break
            first = np.cumsum(counts) - counts  # slot of each node's first arc
            arc = np.repeat(starts - first, counts) + np.arange(total, dtype=np.int64)
            row = np.repeat(frontier - v, counts)
            heads = indices[arc] + row
            on_tree = dist[heads] < 0  # first reached at this level
            h = heads[on_tree]
            if h.size == 0:
                break
            t = tails[arc[on_tree]] + row[on_tree]
            nxt = np.sort(h)
            nxt = nxt[np.concatenate(([True], nxt[1:] != nxt[:-1]))]
            level += 1
            dist[nxt] = level
            np.add.at(sigma, h, sigma[t])
            tree_levels.append((h, t))
            touched.append(nxt)
            frontier = nxt
        for h, t in reversed(tree_levels):
            np.add.at(delta, t, sigma[t] / sigma[h] * (1.0 + delta[h]))
        delta[roots] = 0.0
        # one row at a time, in source order, so every float sum runs in
        # the order of a one-source pass (entries a source misses are 0)
        for b in range(len(batch)):
            cb += delta[b * n : (b + 1) * n]
        reached = np.concatenate(touched)
        dist[reached] = -1
        sigma[reached] = 0.0
        delta[reached] = 0.0
    return cb


def _betweenness(csr: _Csr, workers: int) -> np.ndarray:
    """Unnormalized directed betweenness of every node (Brandes)."""
    sources = np.arange(csr.n, dtype=np.int32)
    tails = np.repeat(sources, np.diff(csr.fwd_indptr))
    chunks = [sources[i : i + _BRANDES_CHUNK] for i in range(0, csr.n, _BRANDES_CHUNK)]
    partials = _run_ordered(chunks, lambda c: _brandes_chunk(csr, tails, c), workers)
    cb = np.zeros(csr.n, dtype=np.float64)
    for part in partials:
        cb += part
    return cb


def load_centrality(
    graph: DirectedGraph, nodes: Sequence[int], workers: int = 1
) -> list[float]:
    """Fraction of shortest paths between other nodes passing through each node.

    Paths are directed; equal-length alternatives split the credit. Each
    node is measured inside its own weakly connected component and
    normalized by (n-1)(n-2) with n the component size, which puts the hub
    of a star at exactly 1. Nodes in components smaller than 3 score 0.
    """
    if not nodes:
        return []
    comp_of: dict[int, Component] = {}
    for comp in weakly_connected_components(graph):
        for v in comp.members:
            comp_of[v] = comp
    out: dict[int, float] = {}
    needed = sorted({id(comp_of[v]): comp_of[v] for v in nodes}.values(), key=lambda c: -len(c))
    for comp in needed:
        queried = [v for v in nodes if comp_of[v] is comp]
        cn = len(comp)
        if cn < 3:
            for v in queried:
                out[v] = 0.0
            continue
        sub, original = induced_subgraph(graph, comp.members)
        back = {old: new for new, old in enumerate(original)}
        cb = _betweenness(_Csr(sub), workers)
        norm = (cn - 1) * (cn - 2)
        for v in queried:
            out[v] = float(cb[back[v]]) / norm
    return [out[v] for v in nodes]


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class MetricsReport:
    """Everything the analyzer measures on one graph."""

    graph_acc: float
    main_component_aspl: float
    main_component_acc: float
    sample_plan: SamplePlan
    sample_size: int
    pairs_used: int
    component_sizes: dict
    hub_load: list[tuple[int, float]]  # (total degree, load centrality)
    edge_reuse_ratio: float
    degree_histogram: DegreeHistogram = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "graph_acc": self.graph_acc,
            "main_component_aspl": self.main_component_aspl,
            "main_component_acc": self.main_component_acc,
            "component_sizes": self.component_sizes,
            "hub_load": [[int(d), load] for d, load in self.hub_load],
            "edge_reuse_ratio": self.edge_reuse_ratio,
            "sample": {
                "fraction": self.sample_plan.fraction,
                "seed": self.sample_plan.seed,
                "component": self.sample_plan.component,
                "undirected": self.sample_plan.treat_as_undirected,
                "nodes": self.sample_size,
                "pairs_used": self.pairs_used,
            },
        }


def build_metrics_report(
    graph: DirectedGraph,
    plan: SamplePlan,
    hub_count: int = 10,
    workers: int = 1,
    edge_reuse_ratio: Optional[float] = None,
) -> MetricsReport:
    """Run the full analysis suite on one graph.

    `edge_reuse_ratio` can be supplied from ingestion stats when the graph
    was loaded from Pajek (the format does not keep multiplicities).
    """
    n = graph.node_count
    if n == 0:
        raise ValueError("cannot analyze an empty graph")
    hist = degree_distribution(graph, hub_count=hub_count)
    graph_acc = average_clustering(graph)

    weak_main = main_component(graph, "weak")
    strong_main = main_component(graph, "strong")
    component_sizes = {
        "nodes": n,
        "weak_main": {"size": len(weak_main), "fraction": len(weak_main) / n},
        "strong_main": {"size": len(strong_main), "fraction": len(strong_main) / n},
    }

    selected = weak_main if plan.component == "weak_main" else strong_main
    if len(selected) < 2:
        raise ValueError(
            f"{plan.component} has {len(selected)} node(s); nothing to average paths over"
        )
    sub, _ = induced_subgraph(graph, selected.members)
    main_acc = average_clustering(sub)
    aspl_value, pairs = aspl(graph, plan, workers=workers)
    sample_size = math.ceil(plan.fraction * len(selected))

    hub_ids = [v for v, _ in hist.max_hubs]
    loads = load_centrality(graph, hub_ids, workers=workers)
    hub_load = [(deg, load) for (_, deg), load in zip(hist.max_hubs, loads)]

    return MetricsReport(
        graph_acc=graph_acc,
        main_component_aspl=aspl_value,
        main_component_acc=main_acc,
        sample_plan=plan,
        sample_size=sample_size,
        pairs_used=pairs,
        component_sizes=component_sizes,
        hub_load=hub_load,
        edge_reuse_ratio=(
            graph.edge_reuse_ratio() if edge_reuse_ratio is None else edge_reuse_ratio
        ),
        degree_histogram=hist,
    )
