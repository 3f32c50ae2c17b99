"""Graph analysis suite: degrees, clustering, shortest paths, load.

Every metric reads the CSR arrays of a `graph.DirectedGraph`. The
metrics `build_metrics_report` runs on one graph share the component
labels and the undirected projection, which the graph computes once and
keeps. ASPL reads the main component as the label mask and prunes
through it on the graph itself, so its pruned cut is its only graph
copy. A strong main component's clustering counts the projection's
edges within that mask; a weak one's reuses the graph's per-node values,
and either size comes from the labels alone. Only hub load cuts a
component out, where it measures it, and frees it with that measurement.

- In- and out-degrees come from the row pointers; total degrees, and
  clustering, from the graph's list of its undirected projection's
  distinct edges (`DirectedGraph.undirected_edges`), so a mutual pair
  counts once.
- Clustering lists every triangle once on the undirected projection,
  each edge oriented by degree (Latapy 2008), and averages the per-node
  values left to right, as a per-node loop adds them.
- ASPL uses a bitset multi-source BFS (Then et al. 2014): 64 BFS sources
  ride in one uint64 lane per node. Each level picks a direction (Beamer,
  Asanovic & Patterson 2012): while the frontier's out-arcs number fewer
  than m / _PUSH_ALPHA it pushes, or-ing each frontier bitset into the
  heads of that node's out-arcs only; otherwise it pulls over all m
  reverse arcs. Both directions set the same bits. Distances are summed
  as exact integers, so a fraction-1 run reproduces the brute-force
  all-pairs average bit for bit, whatever the batch makeup. It runs only
  on the nodes of the main component's mask reached from the sample that
  reach it back: no others lie on a shortest path between two sampled
  nodes, since such a path never leaves their weak or strong component.
  Only the sampled nodes with an out-arc there are swept as sources: a
  sink's lane never leaves its node, so it adds no distance and no pair,
  but it stays a target.
  Each `aspl` call logs the sources swept and the sinks skipped. The
  kept nodes are renumbered by descending in-degree, so the j-th
  in-arcs of all nodes that have one form a prefix, a jagged diagonal
  (Saad, Iterative Methods for Sparse Linear Systems, 2nd ed. 2003, JDS
  format): a pull is one gather and one or per diagonal while
  _MIN_COLUMN nodes reach it, and one reduceat over the few hubs'
  deeper in-arcs. A level's active set (the nodes whose new bitset is
  nonzero) is read off a reused boolean mask, which flatnonzero scans
  faster than the uint64 lanes, and a push reads its counts from one
  out-degree array made per `aspl` call.
- Load centrality is normalized shortest-path betweenness (it matches
  networkx.betweenness_centrality, not Goh load or
  networkx.load_centrality). It uses Brandes' per-source accumulation of
  pair dependencies: a forward BFS with path counting, then a reverse
  sweep. A batch of up to 64 sources shares each level's numpy calls: as
  in the ASPL BFS, a node's frontier and unvisited words hold one bit per
  source, so a level pushes over each frontier node's out-arcs once, and
  only the set bits of its tree arcs become entries b*n + v of one float
  array (path counts, then dependencies). The width is what
  _BRANDES_STATE bytes of that array hold, 16 to 64. Once a batch's
  levels prove thin (under _THIN_LEVEL tree entries per source, as on a
  long path), where a level's fixed calls outweigh its entries, the rest
  of its chunk sweeps twice as many (at most 64). Path counts are exact
  integers in float64 and every dependency sum runs in the same order as
  a one-source pass, so batching changes no bit. Sinks, and sources
  whose out-neighbours are all sinks, add nothing and are skipped. Each
  measured component logs its nodes, non-sink sources, chunks, BFS
  levels, batch widths and skipped sources.

Worker pools only change which thread runs which fixed chunk of sources;
chunk boundaries and the reduction order never depend on the worker count
(each chunk's results are added in chunk order as they arrive), so results
are bit-identical for any `workers` value.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import _run_ordered
from .graph import DirectedGraph, _arc_slots, _masked_arcs, _node_ids, _reach, _with_degrees

log = logging.getLogger("ledgergraph")

_BITS = 64  # BFS sources per bitset batch
_PUSH_ALPHA = 4  # an ASPL level pushes while its frontier's out-arcs * this < m
_MIN_COLUMN = 32  # an ASPL pull takes in-arc j as a column while this many nodes have one
_BRANDES_CHUNK = 256  # sources per load-centrality task (fixed: see module doc)
_BRANDES_BATCH = 64  # most sources swept together inside a task (one bit each in a word)
_BRANDES_MIN_BATCH = 16  # fewest, however large the component
_BRANDES_STATE = 256 << 10  # bytes of path counts a batch wider than the fewest may fill
_THIN_LEVEL = 32  # tree entries per level and source below which Brandes widens its batches
_WEDGE_CHUNK = 1 << 16  # wedges checked per step of the triangle listing

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
    if hub_count < 0:
        raise ValueError(f"hub_count must be >= 0, got {hub_count}")
    in_deg, out_deg = np.diff(graph.rev_indptr), np.diff(graph.fwd_indptr)
    total_deg = graph.undirected_edges[1]

    def table(deg: np.ndarray) -> dict[int, int]:
        return {int(d): int(c) for d, c in enumerate(np.bincount(deg)) if c}

    order = np.lexsort((np.arange(graph.n), -total_deg))[:hub_count]
    hubs = [(int(v), int(total_deg[v])) for v in order]
    return DegreeHistogram(table(in_deg), table(out_deg), table(total_deg), hubs)


def histogram_lines(table: dict[int, int]) -> str:
    """Two-column `degree count` text, ascending degree (log-log plot food)."""
    return "".join(f"{d} {c}\n" for d, c in sorted(table.items()))


# ---------------------------------------------------------------------------
# clustering


def _local_clustering(csr: DirectedGraph, mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Clustering coefficient of every node, by degree-ordered triangle
    listing (Latapy 2008) on the undirected simple projection: each edge
    points from its lower (degree, id) end to the higher one, so a triangle
    is listed once, from two out-edges of its lowest corner, and no node has
    over sqrt(2m) out-edges. Each node's triangles are counted, and twice
    that count is divided once by k(k-1). Wedges are checked _WEDGE_CHUNK
    at a time.

    With a node `mask`, only the projection's edges with both ends in it
    count, so the values on the mask are those of the subgraph it induces,
    bit for bit as on a cut of it (a cut keeps the nodes' id order), and
    every node outside it reads 0.
    """
    n = csr.n
    edges, deg = csr.undirected_edges
    if mask is not None:
        edges, deg = _with_degrees(edges[mask[edges // n] & mask[edges % n]], n)
    a, b = edges // n, edges % n  # a < b
    flip = deg[a] > deg[b]
    low, high = np.where(flip, b, a), np.where(flip, a, b)
    eid = np.argsort(low, kind="stable")  # edge at each out-list slot
    low, high = low[eid], high[eid]
    later = np.cumsum(np.bincount(low, minlength=n))[low] - np.arange(len(eid)) - 1
    ends = np.cumsum(later)  # slot e pairs with its later slots as wedges [ends - later, ends)
    triangles = np.zeros(n, dtype=np.int64)
    wedges = int(later.sum())
    for start in range(0, wedges, _WEDGE_CHUNK):
        w = np.arange(start, min(start + _WEDGE_CHUNK, wedges))
        e1 = np.searchsorted(ends, w, side="right")
        e2 = e1 + 1 + w - ends[e1] + later[e1]
        x, y = high[e1], high[e2]
        key = np.minimum(x, y) * n + np.maximum(x, y)
        pos = np.minimum(np.searchsorted(edges, key), len(edges) - 1)
        tri = edges[pos] == key
        e1, e2 = e1[tri], e2[tri]
        triangles += np.bincount(np.concatenate((low[e1], high[e1], high[e2])), minlength=n)
    out = np.zeros(n, dtype=np.float64)
    ok = deg >= 2
    out[ok] = 2 * triangles[ok] / (deg[ok] * (deg[ok] - 1))
    return out


def _ordered_mean(values: np.ndarray) -> float:
    """Mean whose sum runs left to right, as a plain loop adds."""
    return float(np.cumsum(values)[-1]) / len(values) if len(values) else 0.0


def clustering_coefficient(graph: DirectedGraph, node: int) -> float:
    """Fraction of this node's neighbor pairs that are themselves linked.

    Neighbors are the distinct in- and out-neighbors, and linkage is checked
    without orientation. An id outside [0, n) raises ValueError.
    """
    return float(_local_clustering(graph)[_node_ids(graph, [node])[0]])


def average_clustering(graph: DirectedGraph, nodes: Optional[Iterable[int]] = None) -> float:
    """Mean clustering coefficient over `nodes` (default: every node).

    Nodes with fewer than two neighbors contribute 0 and stay in the
    average. An id outside [0, n) raises ValueError.
    """
    local = _local_clustering(graph)
    if nodes is not None:
        local = local[_node_ids(graph, nodes)]
    return _ordered_mean(local)


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.component not in ("weak_main", "strong_main"):
            raise ValueError(
                f"component must be 'weak_main' or 'strong_main', got {self.component!r}"
            )

    @property
    def kind(self) -> str:
        """The `DirectedGraph.labels` kind of `component`: weak or strong."""
        return "weak" if self.component == "weak_main" else "strong"

    def size(self, n: int) -> int:
        """Nodes sampled from an n-node component: ceil(fraction * n). A
        product one ulp above a whole number k (0.07 * 100 is
        7.000000000000001) is k when k / n is the fraction itself."""
        size = math.ceil(self.fraction * n)
        return size - 1 if size and (size - 1) / n == self.fraction else size


def _sample_nodes(n: int, plan: SamplePlan) -> np.ndarray:
    size = plan.size(n)
    if size >= n:
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(plan.seed)
    return np.sort(rng.choice(n, size=size, replace=False))


def _in_degree_order(graph: DirectedGraph, main: np.ndarray,
                     sample: np.ndarray) -> tuple[DirectedGraph, np.ndarray]:
    """Subgraph on the nodes of the mask `main` that are reached from
    `sample` and reach it back, renumbered by descending in-degree within
    it (ties: ascending id), and the new ids of `sample`. Only those nodes
    lie on a path between two sampled nodes of one component."""
    keep = (main & _reach(graph.fwd_indptr, graph.fwd_indices, sample)
            & _reach(graph.rev_indptr, graph.rev_indices, sample))
    n, tails, heads = _masked_arcs(graph, keep)  # ids in ascending old id
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(-np.bincount(heads, minlength=n), kind="stable")] = np.arange(n)
    new_id = np.zeros(graph.n, dtype=np.int64)
    new_id[keep] = rank  # every sampled node is kept
    return DirectedGraph(n, rank[tails], rank[heads]), new_id[sample]


def _diagonal_pull(csr: DirectedGraph) -> Callable[[np.ndarray], np.ndarray]:
    """Pull step for a graph whose in-degrees descend: or into each node the
    frontier bitsets of all its in-neighbours.

    Column j (the j-th in-arcs, a jagged diagonal) covers a prefix of the
    nodes, so it is one gather and one or over that prefix. Columns stop
    once fewer than _MIN_COLUMN nodes reach them; those few nodes' deeper
    in-arcs go through one reduceat."""
    in_deg = np.diff(csr.rev_indptr)
    deeper = csr.n - np.cumsum(np.bincount(in_deg))  # [j]: nodes with over j in-arcs
    width = int((deeper >= _MIN_COLUMN).sum())
    columns = [csr.rev_indices[csr.rev_indptr[:deeper[j]] + j] for j in range(width)]
    rest = int(deeper[width])
    counts = in_deg[:rest] - width
    rest_tails = csr.rev_indices[_arc_slots(csr.rev_indptr[:rest] + width, counts,
                                            int(counts.sum()))]
    rest_starts = np.cumsum(counts) - counts

    def pull(frontier: np.ndarray) -> np.ndarray:
        pulled = np.zeros(csr.n, dtype=np.uint64)
        if columns:  # assign the first, longest diagonal; or in the rest through one buffer
            np.take(frontier, columns[0], out=pulled[: len(columns[0])], mode="clip")
            buffer = np.empty(len(columns[0]), dtype=np.uint64)
        for column in columns[1:]:
            pulled[: len(column)] |= np.take(frontier, column, out=buffer[: len(column)],
                                             mode="clip")
        if rest:
            pulled[:rest] |= np.bitwise_or.reduceat(frontier[rest_tails], rest_starts)
        return pulled

    return pull


def _batch_pair_sums(
    csr: DirectedGraph, batch: np.ndarray, targets: np.ndarray,
    pull: Callable[[np.ndarray], np.ndarray], out_deg: np.ndarray,
) -> tuple[int, int, int, int]:
    """Distance sum and pair count from <=64 sources to the target set,
    and the levels pushed and pulled; each level picks by the rule in the
    module doc."""
    frontier = np.zeros(csr.n, dtype=np.uint64)
    frontier[batch] = np.uint64(1) << np.arange(len(batch), dtype=np.uint64)
    unseen = ~frontier
    active = batch  # nodes whose frontier bitset is nonzero
    mask = np.empty(csr.n, dtype=bool)
    total = 0
    pairs = 0
    level = 0
    pushes = 0
    while True:
        level += 1
        counts = out_deg[active]
        arcs = int(counts.sum())
        if arcs * _PUSH_ALPHA < csr.m:
            pushes += 1
            pulled = np.zeros(csr.n, dtype=np.uint64)
            heads = csr.fwd_indices[_arc_slots(csr.fwd_indptr[active], counts, arcs)]
            np.bitwise_or.at(pulled, heads, np.repeat(frontier[active], counts))
        else:
            pulled = pull(frontier)
        new = np.bitwise_and(pulled, unseen, out=pulled)
        active = np.flatnonzero(np.not_equal(new, 0, out=mask))
        if not active.size:
            break
        unseen ^= new
        hit = int(np.bitwise_count(new[targets]).sum())
        total += level * hit
        pairs += hit
        frontier = new
    return total, pairs, pushes, level - pushes


def aspl(graph: DirectedGraph, plan: SamplePlan, workers: int = 1) -> tuple[float, int]:
    """Average shortest path length over the sampled main component.

    Draws ceil(fraction * |main|) distinct nodes (seeded) and averages the
    BFS distance over ordered pairs (s, t) within the sample, skipping
    unreachable pairs. Returns (aspl, ordered pairs averaged).
    """
    # the main component as a mask: its ascending ids are the nodes a cut
    # would number 0..n-1, and no path between two of them leaves it
    main = graph.labels(plan.kind) == graph.main_label(plan.kind)
    n = int(np.count_nonzero(main))
    if n < 2:
        raise ValueError(f"{plan.component} has {n} node(s); nothing to average paths over")
    sample = np.flatnonzero(main)[_sample_nodes(n, plan)]
    if len(sample) < 2:
        raise ValueError(
            f"sample of {len(sample)} node(s) from a {n}-node component "
            "cannot form an ordered pair; raise the fraction"
        )
    # the symmetric closure, if any, is freed once the pruned cut is made
    sub, sample = _in_degree_order(graph.symmetric() if plan.treat_as_undirected else graph,
                                   main, sample)
    pull = _diagonal_pull(sub)
    out_deg = np.diff(sub.fwd_indptr)
    # a sink's lane never leaves its node; it stays a target
    swept = sample[out_deg[sample] > 0]
    batches = [swept[i : i + _BITS] for i in range(0, len(swept), _BITS)]
    total = pairs = pushes = pulls = 0
    for t, p, pu, pl in _run_ordered(
            batches, lambda b: _batch_pair_sums(sub, b, sample, pull, out_deg), workers):
        total, pairs, pushes, pulls = total + t, pairs + p, pushes + pu, pulls + pl
    log.info("aspl: %d of %d nodes kept, %d of %d sources swept (%d sinks skipped) "
             "in %d batches, %d push + %d pull levels", sub.n, n, len(swept), len(sample),
             len(sample) - len(swept), len(batches), pushes, pulls)
    if pairs == 0:
        raise ValueError("no ordered pair in the sample is connected")
    return total / pairs, pairs


# ---------------------------------------------------------------------------
# load centrality


def _tree_entries(rows: np.ndarray, heads: np.ndarray, tails: np.ndarray,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat head and tail entries of arc i for each bit b set in rows[i],
    arc by arc, so that the arcs of each tail entry keep their CSR order.
    (A function, so that its temporaries are freed before the level goes on.)"""
    bit = np.unpackbits(rows.view(np.uint8), bitorder="little").view(bool).nonzero()[0]
    shift = rows.itemsize.bit_length() + 2  # log2 of the bits in a word
    arc = bit >> shift
    bit &= (1 << shift) - 1
    bit *= n
    h = heads[arc]
    h += bit
    t = tails[arc]
    t += bit
    return h, t


def _brandes_batch(csr: DirectedGraph, batch: np.ndarray, arc_heads: np.ndarray,
                   out_deg: np.ndarray, cb: np.ndarray) -> tuple[int, int]:
    """Add to `cb` the pair dependencies of each source in `batch` on
    every node; return the BFS levels and tree entries swept.

    Node v of source b is entry b*n + v of the flat array `acc` and bit b
    of v's frontier and unvisited words. A level pushes over the frontier's
    out-arcs in CSR order; `arc_heads` is `csr.fwd_indices` as intp.
    """
    n = csr.n
    indptr = csr.fwd_indptr
    index = np.int32 if len(batch) * n < 1 << 31 else np.intp  # stored tree entries
    # the narrowest word with a bit per source; little-endian, so that its
    # bytes unpack in bit order
    word = np.dtype(f"<u{next(size for size in (1, 2, 4, 8) if 8 * size >= len(batch))}")
    roots = np.arange(len(batch)) * n + batch
    acc = np.zeros(len(batch) * n, dtype=np.float64)  # path counts, then dependencies
    acc[roots] = 1.0
    front = np.zeros(n, dtype=word)
    front[batch] = (np.uint64(1) << np.arange(len(batch), dtype=np.uint64)).astype(word)
    unseen = ~front
    nodes = batch  # where `front` is nonzero
    tree_levels: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    entries = 0
    while True:
        counts = out_deg[nodes]
        slots = _arc_slots(indptr[nodes], counts, int(counts.sum()))
        rows = np.repeat(front[nodes], counts)
        heads = arc_heads[slots]
        rows &= unseen[heads]  # bit b: a tree arc of source b
        arcs = rows.nonzero()[0]
        if arcs.size == 0:
            break
        rows, heads, slots = rows[arcs], heads[arcs], slots[arcs]
        front = np.zeros(n, dtype=word)
        np.bitwise_or.at(front, heads, rows)
        unseen ^= front
        nodes = front.nonzero()[0]
        h, t = _tree_entries(rows, heads, csr.tails[slots], n)
        ratio = acc[t]
        np.add.at(acc, h, ratio)
        ratio /= acc[h]  # sigma[t] / sigma[h]: both are final now
        h, t = h.astype(index, copy=False), t.astype(index, copy=False)
        tree_levels.append((h, t, ratio))
        entries += len(h)
    levels = len(tree_levels)
    acc.fill(0.0)
    while tree_levels:  # deepest first, each level freed once swept
        h, t, ratio = tree_levels.pop()
        h, t = h.astype(np.intp, copy=False), t.astype(np.intp, copy=False)
        gain = acc[h]
        gain += 1.0
        gain *= ratio
        np.add.at(acc, t, gain)
    acc[roots] = 0.0
    # one row at a time, in source order, so every float sum runs in the
    # order of a one-source pass (entries a source misses are 0)
    for b in range(len(batch)):
        cb += acc[b * n : (b + 1) * n]
    return levels, entries


def _brandes_chunk(csr: DirectedGraph, sources: np.ndarray, width: int, arc_heads: np.ndarray,
                   out_deg: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Pair-dependency totals contributed by `sources` (unnormalized), the
    BFS levels swept, and the batches swept twice as wide.

    Sweeps `width` sources at a time, and after the first thin batch
    twice as many (at most _BRANDES_BATCH). A batch is thin, as on a long
    path, when its levels average under _THIN_LEVEL tree entries per
    source: then each level's fixed numpy calls outweigh its entries.
    """
    cb = np.zeros(csr.n, dtype=np.float64)
    base = width
    levels = wide = 0
    lo = 0
    while lo < len(sources):
        batch = sources[lo : lo + width]
        lo += len(batch)
        depth, entries = _brandes_batch(csr, batch, arc_heads, out_deg, cb)
        levels += depth
        wide += width > base
        if entries < _THIN_LEVEL * depth * len(batch):
            width = min(2 * base, _BRANDES_BATCH)
    return cb, levels, wide


def _brandes_width(n: int) -> int:
    """Sources per Brandes batch on an n-node component: as many as
    _BRANDES_STATE bytes of path counts hold (8 per node and source), but
    at least _BRANDES_MIN_BATCH and at most _BRANDES_BATCH."""
    return min(_BRANDES_BATCH, max(_BRANDES_MIN_BATCH, _BRANDES_STATE // (8 * n)))


def _betweenness(csr: DirectedGraph, workers: int) -> tuple[np.ndarray, int, int, int]:
    """Unnormalized directed betweenness of every node (Brandes), and the
    non-sink sources, chunks and BFS levels it took; logs them with the
    batch widths and the sources skipped."""
    n = csr.n
    out_deg = np.diff(csr.fwd_indptr)
    live = out_deg > 0  # sinks add nothing
    # nor does a source whose out-neighbours are all sinks: its every
    # dependency is 0
    feeds = np.zeros(n, dtype=bool)
    feeds[csr.tails[live[csr.fwd_indices]]] = True
    swept = np.flatnonzero(feeds)
    chunks = np.split(swept, np.searchsorted(swept, range(_BRANDES_CHUNK, n, _BRANDES_CHUNK)))
    width = _brandes_width(n)
    heads = csr.fwd_indices.astype(np.intp)
    # chunk partials add up in chunk order as they arrive, whatever the
    # worker count, so only the running total and a few partials are held
    cb = np.zeros(n)
    levels = wide = 0
    for part, depth, widened in _run_ordered(
            chunks, lambda c: _brandes_chunk(csr, c, width, heads, out_deg), workers):
        cb += part
        levels += depth
        wide += widened
    sources = int(live.sum())
    log.info("load centrality: %d-node component, %d sources in %d chunks, %d BFS levels, "
             "batches of %d (%d at %d after thin levels), %d zero-dependency sources skipped",
             n, sources, len(chunks), levels, width, wide,
             min(2 * width, _BRANDES_BATCH), sources - len(swept))
    return cb, sources, len(chunks), levels


def load_centrality(graph: DirectedGraph, nodes: Sequence[int], workers: int = 1) -> list[float]:
    """Fraction of shortest paths between other nodes passing through each node.

    Paths are directed; equal-length alternatives split the credit. Each
    node is measured inside its own weakly connected component and
    normalized by (n-1)(n-2) with n the component size, which puts the hub
    of a star at exactly 1. Nodes in components smaller than 3 score 0.
    An id outside [0, n) raises ValueError.
    """
    nodes = _node_ids(graph, nodes).tolist()
    labels = graph.labels("weak")
    out: dict[int, float] = {}
    for label in set(labels[nodes].tolist()):
        sub, original = graph.component("weak", label)
        cb = _betweenness(sub, workers)[0]  # all 0 below 3 nodes
        norm = max((sub.n - 1) * (sub.n - 2), 1)
        for v in nodes:
            if labels[v] == label:
                out[v] = float(cb[np.searchsorted(original, v)]) / norm
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
    was loaded from Pajek (the format keeps no repeat submissions).
    """
    n = graph.n
    if n == 0:
        raise ValueError("cannot analyze an empty graph")
    hist = degree_distribution(graph, hub_count=hub_count)
    local = _local_clustering(graph)
    graph_acc = _ordered_mean(local)

    main_size = {k: int(np.bincount(graph.labels(k)).max()) for k in ("weak", "strong")}
    component_sizes = {
        "nodes": n,
        "weak_main": {"size": main_size["weak"], "fraction": main_size["weak"] / n},
        "strong_main": {"size": main_size["strong"], "fraction": main_size["strong"] / n},
    }

    main = graph.labels(plan.kind) == graph.main_label(plan.kind)
    # a weak component keeps every neighbor of its nodes, a strong one may not
    if plan.kind == "strong":
        local = _local_clustering(graph, main)
    main_acc = _ordered_mean(local[main])
    aspl_value, pairs = aspl(graph, plan, workers=workers)
    sample_size = plan.size(main_size[plan.kind])

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
