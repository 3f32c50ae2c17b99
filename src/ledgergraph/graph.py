"""Directed simple graph over interned ledger addresses, stored as arrays.

Nodes are dense integer ids assigned in first-seen order. The arcs live in
one `Csr` (forward and reverse CSR arrays sorted by (tail, head)) plus a
per-arc multiplicity array, so edge-reuse statistics stay derivable;
self-loop submissions are counted but never stored. Bulk builders hand all
their submissions to `DirectedGraph.from_arcs`, which finds the distinct
arcs and their counts with one `np.unique` over int64 keys tail * n + head.
`add_arc` submits one arc at a time into a buffer the next read compiles.

Construction is single-writer; after that every function here treats the
graph as read-only, so a built graph can be shared across threads.

Analysis runs on the Csr: weak components by array hook-and-shortcut,
strong ones by an iterative Tarjan over the CSR lists, and a component's
sub-CSR by a mask renumbered with `cumsum`, so its ids follow ascending
original id exactly as `induced_subgraph` numbers them. A Csr computes
each component kind once and keeps it, so one report finds each main
component once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np


class AddArcResult(Enum):
    INSERTED = "inserted"
    DUPLICATED = "duplicated"
    SELF_LOOP_DISCARDED = "self_loop_discarded"


class DirectedGraph:
    """Simple directed graph with an address <-> node-id interning table.

    Node ids are consecutive integers starting at 0. Nodes created through
    :meth:`intern_address` carry their address string; nodes created in bulk
    (synthetic graphs, unlabeled Pajek files) have no label.
    """

    __slots__ = ("_addr_to_id", "_id_to_addr", "_csr", "_mult", "_pending", "_pair_submissions",
                 "self_loop_count")

    def __init__(self) -> None:
        self._addr_to_id: dict[str, int] = {}
        self._id_to_addr: list[Optional[str]] = []
        self._csr = Csr(0, _NO_ARCS, _NO_ARCS)
        self._mult = _NO_ARCS  # submissions of each arc, in forward CSR order
        # while add_arc submits arcs: (src, dst) -> multiplicity of every arc
        self._pending: dict[tuple[int, int], int] = {}
        self._pair_submissions = 0
        self.self_loop_count = 0

    @classmethod
    def with_node_count(cls, n: int) -> "DirectedGraph":
        """Create a graph with `n` unlabeled nodes 0..n-1."""
        return cls.from_arcs(n, _NO_ARCS, _NO_ARCS)

    @classmethod
    def from_arcs(cls, n: int, src: np.ndarray, dst: np.ndarray,
                  labels: Optional[Sequence[Optional[str]]] = None) -> "DirectedGraph":
        """Graph of `n` nodes from the arc submissions (src[i], dst[i]).

        Repeats and self-loops are allowed and counted as `add_arc` counts
        them; the result does not depend on their order. `labels[v]` is the
        address of node v (None for an unlabeled node).
        """
        if n < 0:
            raise ValueError(f"node count must be >= 0, got {n}")
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        if len(src) and (min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n):
            raise ValueError(f"an arc references a node id outside [0, {n})")
        if labels is not None and len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} nodes")
        g = cls()
        loop = src == dst
        g.self_loop_count = int(loop.sum())
        keys, g._mult = np.unique(src[~loop] * n + dst[~loop], return_counts=True)
        g._pair_submissions = len(src) - g.self_loop_count
        g._csr = Csr(n, keys // n, keys % n)  # n > 0 whenever there are keys
        g._id_to_addr = [None] * n if labels is None else list(labels)
        if labels is not None:
            g._addr_to_id = {a: v for v, a in enumerate(g._id_to_addr) if a is not None}
        return g

    def _arrays(self) -> tuple["Csr", np.ndarray]:
        """The Csr and multiplicities, after moving the buffer into them."""
        if self._pending:
            pairs = np.array([*self._pending], dtype=np.int64)
            counts = np.fromiter(self._pending.values(), np.int64, len(self._pending))
            fresh = DirectedGraph.from_arcs(self.node_count, np.repeat(pairs[:, 0], counts),
                                            np.repeat(pairs[:, 1], counts))
            self._csr, self._mult, self._pending = fresh._csr, fresh._mult, {}
        elif self._csr.n != self.node_count:  # nodes were interned since
            self._csr = Csr(self.node_count, self._csr.tails, self._csr.fwd_indices)
        return self._csr, self._mult

    # -- nodes ------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._id_to_addr)

    def intern_address(self, address: str) -> int:
        """Return the node id for `address`, assigning the next id if new."""
        if not address:
            raise ValueError("address must be a non-empty string")
        node = self._addr_to_id.get(address)
        if node is not None:
            return node
        node = len(self._id_to_addr)
        self._addr_to_id[address] = node
        self._id_to_addr.append(address)
        return node

    def address_of(self, node: int) -> Optional[str]:
        return self._id_to_addr[node]

    def node_of(self, address: str) -> Optional[int]:
        return self._addr_to_id.get(address)

    def has_labels(self) -> bool:
        """True when every node carries an address label."""
        return len(self._addr_to_id) == self.node_count

    # -- arcs -------------------------------------------------------------

    @property
    def arc_count(self) -> int:
        return self._arrays()[0].m

    def add_arc(self, src: int, dst: int) -> AddArcResult:
        """Submit the ordered pair (src, dst).

        Inserts the arc on first sight, increments its multiplicity on
        repeats, and discards (but counts) self-loops.
        """
        n = self.node_count
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"arc ({src}, {dst}) references a node id outside [0, {n})")
        if src == dst:
            self.self_loop_count += 1
            return AddArcResult.SELF_LOOP_DISCARDED
        self._pair_submissions += 1
        if not self._pending and self._csr.m:  # move the arrays' arcs to the buffer
            self._pending = dict(zip(self.arcs(), self._mult.tolist()))
        count = self._pending.get((src, dst), 0)
        self._pending[(src, dst)] = count + 1
        return AddArcResult.DUPLICATED if count else AddArcResult.INSERTED

    def add_interaction(self, sender: str, recipient: str) -> AddArcResult:
        """Intern both addresses and submit the sender -> recipient arc."""
        return self.add_arc(self.intern_address(sender), self.intern_address(recipient))

    def has_arc(self, src: int, dst: int) -> bool:
        return self.multiplicity(src, dst) > 0

    def successors(self, node: int) -> frozenset[int]:
        """Distinct successors of `node`."""
        csr = self._arrays()[0]
        return frozenset(csr.fwd_indices[csr.fwd_indptr[node]:csr.fwd_indptr[node + 1]].tolist())

    def predecessors(self, node: int) -> frozenset[int]:
        """Distinct predecessors of `node`."""
        csr = self._arrays()[0]
        return frozenset(csr.rev_indices[csr.rev_indptr[node]:csr.rev_indptr[node + 1]].tolist())

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs, sorted by (tail, head)."""
        csr = self._arrays()[0]
        return zip(csr.tails.tolist(), csr.fwd_indices.tolist())

    def multiplicity(self, src: int, dst: int) -> int:
        """How many times the arc (src, dst) was submitted (0 if absent)."""
        csr, mult = self._arrays()
        lo = csr.fwd_indptr[src]
        hit = np.flatnonzero(csr.fwd_indices[lo:csr.fwd_indptr[src + 1]] == dst)
        return int(mult[lo + hit[0]]) if len(hit) else 0

    @property
    def pair_submissions(self) -> int:
        """Total non-self-loop arc submissions (sum of multiplicities)."""
        return self._pair_submissions

    def edge_reuse_ratio(self) -> float:
        """Fraction of arc submissions that hit an already existing arc."""
        if self._pair_submissions == 0:
            return 0.0
        return (self._pair_submissions - self.arc_count) / self._pair_submissions


@dataclass(frozen=True)
class Component:
    """A weakly or strongly connected component."""

    members: frozenset[int]
    kind: str  # "weak" or "strong"
    is_main: bool = False

    def __len__(self) -> int:
        return len(self.members)


class Csr:
    """Immutable compiled adjacency: forward and reverse CSR of n nodes.

    Both directions are sorted by (tail, head), so a graph always compiles
    to the same arrays whatever order its arcs were submitted in. Component
    labels and component sub-CSRs are computed on first use and kept, so
    every metric run on one Csr shares them.
    """

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray):
        """`src`/`dst`: distinct, loop-free arcs in any order."""
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        self.n, self.m = n, len(src)
        # the arcs are distinct, so sorting their keys has one result
        fwd, rev = np.argsort(src * n + dst), np.argsort(dst * n + src)
        self.tails = src[fwd]
        self.fwd_indptr = np.concatenate(([0], np.cumsum(np.bincount(self.tails, minlength=n))))
        self.fwd_indices = dst[fwd].astype(np.int32)
        self.rev_indptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n))))
        self.rev_indices = src[rev].astype(np.int32)
        self._labels: dict[str, np.ndarray] = {}
        self._parts: dict[tuple[str, int], tuple[Csr, np.ndarray]] = {}

    def symmetric(self) -> "Csr":
        """Symmetric closure: every arc (a, b) also as (b, a)."""
        n, heads = self.n, self.fwd_indices.astype(np.int64)
        keys = np.union1d(self.tails * n + heads, heads * n + self.tails)
        return Csr(n, keys // n, keys % n)

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

    def component(self, kind: str, label: Optional[int] = None) -> tuple["Csr", np.ndarray]:
        """Sub-CSR of one component (default: the main one) and the original
        id of each of its nodes. New ids follow ascending original id."""
        label = self.main_label(kind) if label is None else label
        key = (kind, label)
        if key not in self._parts:
            mask = self.labels(kind) == label
            self._parts[key] = (Csr(*_masked_arcs(self, mask)), np.flatnonzero(mask))
        return self._parts[key]


_NO_ARCS = np.empty(0, dtype=np.int64)


def _masked_arcs(csr: Csr, mask: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Node count and arcs of the subgraph on the nodes `mask` selects,
    renumbered in ascending original id."""
    new_id = np.cumsum(mask) - 1
    keep = mask[csr.tails] & mask[csr.fwd_indices]
    return int(mask.sum()), new_id[csr.tails[keep]], new_id[csr.fwd_indices[keep]]


def compiled(graph: Union[DirectedGraph, Csr]) -> Csr:
    """The Csr of `graph` (a Csr passes through unchanged)."""
    return graph if isinstance(graph, Csr) else graph._arrays()[0]


def _weak_labels(csr: Csr) -> np.ndarray:
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


def _strong_labels(csr: Csr) -> np.ndarray:
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


def _components(graph: Union[DirectedGraph, Csr], kind: str) -> list[Component]:
    labels = compiled(graph).labels(kind)
    order = np.argsort(labels, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1) if len(order) else []
    groups.sort(key=len, reverse=True)  # stable: equal sizes stay in lowest-id order
    return [Component(frozenset(g.tolist()), kind, is_main=(i == 0)) for i, g in enumerate(groups)]


def weakly_connected_components(graph: Union[DirectedGraph, Csr]) -> list[Component]:
    """Weakly connected components, largest first (ties: lowest node id);
    the first one is the main component."""
    return _components(graph, "weak")


def strongly_connected_components(graph: Union[DirectedGraph, Csr]) -> list[Component]:
    """Strongly connected components, ordered like the weak ones."""
    return _components(graph, "strong")


def main_component(graph: Union[DirectedGraph, Csr], kind: str) -> Component:
    """The largest component of the requested kind ("weak" or "strong")."""
    csr = compiled(graph)
    members = np.flatnonzero(csr.labels(kind) == csr.main_label(kind))
    return Component(frozenset(members.tolist()), kind, is_main=True)


def undirected_projection(graph: DirectedGraph) -> DirectedGraph:
    """Symmetric closure: for every arc (a, b) ensure (b, a) exists too.

    The node set and labels are preserved. Each arc is submitted once in
    each direction, so a mutual pair ends with multiplicity 2; the
    original multiplicities are not carried over (the projection is an
    analysis artifact, not a transaction record).
    """
    csr = compiled(graph)
    tails, heads = csr.tails, csr.fwd_indices.astype(np.int64)
    return DirectedGraph.from_arcs(
        csr.n, np.concatenate((tails, heads)), np.concatenate((heads, tails)), graph._id_to_addr
    )


def induced_subgraph(
    graph: DirectedGraph, members: Iterable[int]
) -> tuple[DirectedGraph, list[int]]:
    """Subgraph on `members` with nodes renumbered densely.

    Returns (subgraph, original_ids) where original_ids[new_id] is the node
    id in `graph`. New ids follow ascending original id, so the extraction
    is deterministic.
    """
    original_ids = sorted(set(members))
    csr = compiled(graph)
    mask = np.zeros(csr.n, dtype=bool)
    mask[original_ids] = True
    labels = [graph.address_of(v) for v in original_ids] if graph.has_labels() else None
    return DirectedGraph.from_arcs(*_masked_arcs(csr, mask), labels), original_ids
