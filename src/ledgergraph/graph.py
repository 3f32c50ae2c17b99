"""Directed simple graph over interned ledger addresses, stored as arrays.

A `DirectedGraph` holds the arcs of n nodes as forward and reverse CSR
arrays sorted by (tail, head), the address of each node (or none), and
the counts of its arc and self-loop submissions, so the edge-reuse ratio
stays derivable; self-loops are counted but never stored. Every graph,
whether read from Pajek, drawn as a random twin or cut out as a
component, is made by the one constructor from all its submissions at
once. It forms the int64 keys tail * n + head; when one pass shows them
already distinct and ascending (a canonical Pajek block, a component
cut, `build_graph`'s keys) they are the forward CSR order as they stand,
otherwise one sort (`_distinct`) makes them so.

A graph is never changed after it is built and stores none of its
caller's arrays, so it can be shared across threads.

Analysis runs on the arrays: weak components by array hook-and-shortcut;
strong ones by a degree mask, one forward-backward pass from the
max-degree pivot (Hong, Rodia & Olukotun 2013) and an iterative Tarjan
on the rest; a component's subgraph by a mask renumbered with `cumsum`,
so its ids follow ascending original id exactly as `induced_subgraph`
numbers them. A graph computes each kind's component labels, and its
undirected projection's distinct edges, once and keeps them, so one
report labels each component kind once and lists the projection once for
degrees and clustering alike. ASPL and a strong main component's
clustering read that component as the label mask on the graph itself;
only hub load cuts a component's subgraph, which is not kept, so no copy
of it outlives the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Component:
    """A weakly or strongly connected component."""

    members: frozenset[int]
    kind: str  # "weak" or "strong"
    is_main: bool = False

    def __len__(self) -> int:
        return len(self.members)


_NO_ARCS = np.empty(0, dtype=np.int64)


class DirectedGraph:
    """Immutable adjacency arrays of n nodes, with an address table.

    `tails`/`fwd_indices` list the arcs sorted by (tail, head) and
    `fwd_indptr` splits them by tail; `rev_indptr`/`rev_indices` list the
    same arcs by (head, tail). Node ids are consecutive integers starting
    at 0. Nodes built from ledger records carry their address; synthetic
    graphs, components and unlabeled Pajek files keep no address table.
    Component labels and the undirected projection are computed on first
    use and kept, so every metric run on one graph shares them; a
    component's subgraph is cut from the labels on each `component` call.
    Only hub load makes that call; ASPL and a strong main component's
    clustering read the label mask on the graph itself.
    Node ids must stay below 2**31: the arc heads are int32.
    """

    def __init__(self, n: int = 0, src: Sequence[int] = _NO_ARCS, dst: Sequence[int] = _NO_ARCS,
                 labels: Optional[Sequence[Optional[str]]] = None) -> None:
        """Graph of `n` nodes from the arc submissions (src[i], dst[i]).

        Repeats and self-loops are allowed: a repeat is counted in
        `pair_submissions` and a self-loop in `self_loop_count`; neither is
        stored. The result does not depend on the order of the submissions.
        `labels[v]` is the address of node v (None for an unlabeled node).
        """
        if not 0 <= n < 2**31:
            raise ValueError(f"node count must be in [0, 2**31), got {n}")
        src, dst = np.asarray(src), np.asarray(dst)
        if src.size and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise ValueError(f"an arc references a node id outside [0, {n})")
        if labels is not None and len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} nodes")
        self.self_loop_count = int(np.count_nonzero(src == dst))
        self.pair_submissions = len(src) - self.self_loop_count
        keys = src.astype(np.int64) * n + dst.astype(np.int64, copy=False)  # never the caller's
        if self.self_loop_count:
            keys = keys[src != dst]
        if not (keys[1:] > keys[:-1]).all():  # not yet distinct and in (tail, head) order
            keys = _distinct(keys)
        self.n, self.m = n, len(keys)
        self._addresses = None if labels is None else list(labels)
        self._labels: dict[str, np.ndarray] = {}
        # the steps below reuse the buffer of `keys`, so besides the stored
        # arrays one arc-length int64 array is alive (n > 0 if there are keys)
        self.tails = keys // n
        heads = np.remainder(keys, n, out=keys)
        self.fwd_indptr = np.concatenate(([0], np.cumsum(np.bincount(self.tails, minlength=n))))
        self.fwd_indices = heads.astype(np.int32)
        self.rev_indptr = np.concatenate(([0], np.cumsum(np.bincount(heads, minlength=n))))
        keys = np.add(np.multiply(heads, n, out=heads), self.tails, out=heads)
        keys.sort()  # (head, tail) order
        self.rev_indices = np.remainder(keys, n, out=keys).astype(np.int32)

    @property
    def node_count(self) -> int:
        return self.n

    @property
    def arc_count(self) -> int:
        return self.m

    def address_of(self, node: int) -> Optional[str]:
        return None if self._addresses is None else self._addresses[node]

    def has_labels(self) -> bool:
        """True when every node carries an address label."""
        return self.n == 0 if self._addresses is None else None not in self._addresses

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs, sorted by (tail, head)."""
        return zip(self.tails.tolist(), self.fwd_indices.tolist())

    def edge_reuse_ratio(self) -> float:
        """Fraction of arc submissions that hit an already existing arc."""
        if self.pair_submissions == 0:
            return 0.0
        return (self.pair_submissions - self.arc_count) / self.pair_submissions

    def symmetric(self) -> DirectedGraph:
        """Symmetric closure: for every arc (a, b) ensure (b, a) exists too.

        The node set and labels are preserved. Each arc is submitted once
        in each direction, so a mutual pair counts as two reused
        submissions; the original submission counts are not carried over
        (the closure is an analysis artifact, not a transaction record).
        """
        heads = self.fwd_indices.astype(np.int64)
        return DirectedGraph(self.n, np.concatenate((self.tails, heads)),
                             np.concatenate((heads, self.tails)), self._addresses)

    @cached_property
    def undirected_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The undirected projection's distinct edges as sorted keys a*n + b
        (a < b), and each node's degree there: its distinct in- and
        out-neighbours."""
        n = self.n
        heads = self.fwd_indices.astype(np.int64)
        edges = _distinct(np.minimum(self.tails, heads) * n + np.maximum(self.tails, heads))
        return _with_degrees(edges, n)

    def labels(self, kind: str) -> np.ndarray:
        """Component of every node, named by its lowest node id."""
        if kind not in ("weak", "strong"):
            raise ValueError(f"component kind must be 'weak' or 'strong', got {kind!r}")
        if kind not in self._labels:
            self._labels[kind] = (_weak_labels if kind == "weak" else _strong_labels)(self)
        return self._labels[kind]

    def main_label(self, kind: str) -> int:
        """Label of the largest component, ties broken by lowest node id."""
        if self.n == 0:
            raise ValueError("graph has no nodes, so no main component")
        return int(np.argmax(np.bincount(self.labels(kind), minlength=self.n)))

    def component(self, kind: str,
                  label: Optional[int] = None) -> tuple[DirectedGraph, np.ndarray]:
        """Subgraph of one component (default: the main one) and the original
        id of each of its nodes. New ids follow ascending original id. The
        cut is made anew on each call and not kept; hub load is the one
        metric that makes it."""
        mask = self.labels(kind) == (self.main_label(kind) if label is None else label)
        return DirectedGraph(*_masked_arcs(self, mask)), np.flatnonzero(mask)


def _with_degrees(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The undirected edge keys a*n + b, and each node's degree over them:
    its distinct neighbours there, so a mutual pair counts once."""
    return edges, np.bincount(edges // n, minlength=n) + np.bincount(edges % n, minlength=n)


def _node_ids(graph: DirectedGraph, nodes: Iterable[int]) -> np.ndarray:
    """`nodes` as an int64 array. Every public function that takes node ids
    raises ValueError naming the first id outside [0, n): a negative id
    does not count from the end."""
    ids = np.array(list(nodes))  # of dtype object if an id overflows int64
    outside = (ids < 0) | (ids >= graph.n)
    if outside.any():
        raise ValueError(f"node id {ids[outside.argmax()]} is outside [0, {graph.n})")
    return ids.astype(np.int64)


def _masked_arcs(csr: DirectedGraph, mask: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Node count and arcs of the subgraph on the nodes `mask` selects,
    renumbered in ascending original id, so still sorted by (tail, head)."""
    new_id = np.cumsum(mask, dtype=np.int32) - 1  # int32: ids below 2**31, half the bytes
    keep = mask[csr.tails] & mask[csr.fwd_indices]
    return int(mask.sum()), new_id[csr.tails[keep]], new_id[csr.fwd_indices[keep]]


def _weak_labels(csr: DirectedGraph) -> np.ndarray:
    """Hook-and-shortcut union-find over the arc arrays.

    Every node points at a smaller or equal id, so each tree's root is its
    lowest id. A round hooks every root that touches a smaller root onto
    the smallest one, then shortcuts every node straight to its root.
    """
    parent = np.arange(csr.n, dtype=np.int64)
    while True:
        a, b = parent[csr.tails], parent[csr.fwd_indices]
        differ = a != b
        if not differ.any():
            return parent
        a, b = a[differ], b[differ]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (a plain np.unique imports numpy.ma: 8 ms)."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _arc_slots(starts: np.ndarray, counts: np.ndarray, total: int) -> np.ndarray:
    """Forward-CSR slots of `counts[i]` arcs from `starts[i]`, node by node."""
    first = np.cumsum(counts) - counts  # output position of each node's first arc
    return np.repeat(starts - first, counts) + np.arange(total, dtype=np.int64)


_THIN = 16  # frontier nodes + arcs up to which a Python step beats a numpy level (measured)


def _reach(indptr: np.ndarray, indices: np.ndarray, seeds: Sequence[int]) -> np.ndarray:
    """Mask of the nodes reachable from `seeds`, seeds included, by frontier
    BFS over one CSR direction (forward: reach, reverse: co-reach).

    A numpy level costs about 15 calls however small its frontier, so while
    the frontier holds at most _THIN nodes + arcs (a long path), levels
    step in plain Python over the CSR slices instead."""
    seen = np.zeros(len(indptr) - 1, dtype=bool)
    seen[seeds] = True
    frontier = np.flatnonzero(seen)
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if frontier.size + total > _THIN:
            heads = indices[_arc_slots(starts, counts, total)]
            frontier = _distinct(heads[~seen[heads]])
            seen[frontier] = True
            continue
        thin = frontier.tolist()
        while thin:
            heads = [w for v in thin for w in indices[indptr[v]:indptr[v + 1]].tolist()]
            if len(thin) + len(heads) > _THIN:
                break
            thin = []
            for w in heads:
                if not seen[w]:
                    seen[w] = True
                    thin.append(w)
        frontier = np.array(thin, dtype=np.int64)
    return seen


def _strong_labels(csr: DirectedGraph) -> np.ndarray:
    """A node lacking in- or out-arcs is its own component; so is what the
    max-degree pivot reaches and is reached from; Tarjan labels the rest."""
    out_deg, in_deg = np.diff(csr.fwd_indptr), np.diff(csr.rev_indptr)
    label = np.arange(csr.n, dtype=np.int64)
    rest = (out_deg > 0) & (in_deg > 0)
    if rest.any():
        pivot = int(np.argmax(np.where(rest, out_deg + in_deg, -1)))
        giant = (_reach(csr.fwd_indptr, csr.fwd_indices, [pivot])
                 & _reach(csr.rev_indptr, csr.rev_indices, [pivot]))
        label[giant] = np.flatnonzero(giant)[0]
        rest &= ~giant
        ids = np.flatnonzero(rest)
        label[ids] = ids[_tarjan_labels(DirectedGraph(*_masked_arcs(csr, rest)))]
    return label


def _tarjan_labels(csr: DirectedGraph) -> np.ndarray:
    """Tarjan's algorithm, iterative to cope with deep ledgers' chains."""
    n, ptr, heads = csr.n, csr.fwd_indptr.tolist(), csr.fwd_indices.tolist()
    cursor = ptr[:-1]  # next unexplored arc of each node
    index = [-1] * n
    lowlink = [0] * n
    label = [-1] * n  # -1 until the node's component is complete
    stack: list[int] = []
    counter = 0
    for root in range(n):
        work = [root] if index[root] < 0 else []
        while work:
            v = work[-1]
            if index[v] < 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
            i, end = cursor[v], ptr[v + 1]
            while i < end:
                w = heads[i]
                i += 1
                if index[w] < 0:
                    work.append(w)
                    break
                if label[w] < 0 and index[w] < lowlink[v]:  # w is on the stack
                    lowlink[v] = index[w]
            cursor[v] = i
            if work[-1] != v:
                continue
            work.pop()
            if work and lowlink[v] < lowlink[work[-1]]:
                lowlink[work[-1]] = lowlink[v]
            if lowlink[v] == index[v]:
                members = [stack.pop()]
                while members[-1] != v:
                    members.append(stack.pop())
                low = min(members)
                for w in members:
                    label[w] = low
    return np.array(label, dtype=np.int64)


def _components(graph: DirectedGraph, kind: str) -> list[Component]:
    labels = graph.labels(kind)
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if len(order) else []
    groups.sort(key=len, reverse=True)  # stable: equal sizes stay in lowest-id order
    return [Component(frozenset(g.tolist()), kind, is_main=(i == 0)) for i, g in enumerate(groups)]


def weakly_connected_components(graph: DirectedGraph) -> list[Component]:
    """Weakly connected components, largest first (ties: lowest node id);
    the first one is the main component."""
    return _components(graph, "weak")


def strongly_connected_components(graph: DirectedGraph) -> list[Component]:
    """Strongly connected components, ordered like the weak ones."""
    return _components(graph, "strong")


def main_component(graph: DirectedGraph, kind: str) -> Component:
    """The largest component of the requested kind ("weak" or "strong")."""
    members = np.flatnonzero(graph.labels(kind) == graph.main_label(kind))
    return Component(frozenset(members.tolist()), kind, is_main=True)


def undirected_projection(graph: DirectedGraph) -> DirectedGraph:
    """Symmetric closure of `graph`: `graph.symmetric()`."""
    return graph.symmetric()


def induced_subgraph(
    graph: DirectedGraph, members: Iterable[int]
) -> tuple[DirectedGraph, list[int]]:
    """Subgraph on `members` with nodes renumbered densely.

    Returns (subgraph, original_ids) where original_ids[new_id] is the node
    id in `graph`. New ids follow ascending original id, so the extraction
    is deterministic. An id outside [0, n) raises ValueError.
    """
    mask = np.zeros(graph.n, dtype=bool)
    mask[_node_ids(graph, members)] = True
    original_ids = np.flatnonzero(mask).tolist()
    labels = [graph.address_of(v) for v in original_ids] if graph.has_labels() else None
    return DirectedGraph(*_masked_arcs(graph, mask), labels), original_ids
