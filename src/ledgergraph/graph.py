"""Directed simple graph over interned ledger addresses.

Nodes are dense integer ids assigned in first-seen order. Arcs are stored
as a set (no parallel arcs, no self-loops); repeated submissions of an
existing arc bump a multiplicity counter so edge-reuse statistics stay
derivable, and self-loop submissions are counted but never stored.

Construction is single-writer; after that every function here treats the
graph as read-only, so a built graph can be shared across threads.

Analysis never reads the sets. It compiles the graph once into a `Csr`
(forward and reverse CSR arrays sorted by (tail, head)) and runs on that:
weak components by array hook-and-shortcut, strong ones by an iterative
Tarjan over the CSR lists, and a component's sub-CSR by a mask renumbered
with `cumsum`, so its ids follow ascending original id exactly as
`induced_subgraph` numbers them. A Csr computes each component kind once
and keeps it, so one report finds each main component once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Optional, Union

import numpy as np


class AddArcResult(Enum):
    INSERTED = "inserted"
    DUPLICATED = "duplicated"
    SELF_LOOP_DISCARDED = "self_loop_discarded"


class DirectedGraph:
    """Simple directed graph with an address <-> node-id interning table.

    Node ids are consecutive integers starting at 0. Nodes created through
    :meth:`intern_address` carry their address string; nodes created in bulk
    via :meth:`with_node_count` (synthetic graphs, unlabeled Pajek files)
    have no label.
    """

    __slots__ = (
        "_succ",
        "_pred",
        "_addr_to_id",
        "_id_to_addr",
        "_arc_count",
        "_extra_multiplicity",
        "_pair_submissions",
        "self_loop_count",
    )

    def __init__(self) -> None:
        self._succ: list[set[int]] = []
        self._pred: list[set[int]] = []
        self._addr_to_id: dict[str, int] = {}
        self._id_to_addr: list[Optional[str]] = []
        self._arc_count = 0
        # per-arc repeats beyond the first, keyed (src, dst); absent == 1
        self._extra_multiplicity: dict[tuple[int, int], int] = {}
        self._pair_submissions = 0
        self.self_loop_count = 0

    @classmethod
    def with_node_count(cls, n: int) -> "DirectedGraph":
        """Create a graph with `n` unlabeled nodes 0..n-1."""
        if n < 0:
            raise ValueError(f"node count must be >= 0, got {n}")
        g = cls()
        g._succ = [set() for _ in range(n)]
        g._pred = [set() for _ in range(n)]
        g._id_to_addr = [None] * n
        return g

    # -- nodes ------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._succ)

    def intern_address(self, address: str) -> int:
        """Return the node id for `address`, assigning the next id if new."""
        if not address:
            raise ValueError("address must be a non-empty string")
        node = self._addr_to_id.get(address)
        if node is not None:
            return node
        node = len(self._succ)
        self._addr_to_id[address] = node
        self._id_to_addr.append(address)
        self._succ.append(set())
        self._pred.append(set())
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
        return self._arc_count

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
        succ = self._succ[src]
        if dst in succ:
            key = (src, dst)
            self._extra_multiplicity[key] = self._extra_multiplicity.get(key, 0) + 1
            return AddArcResult.DUPLICATED
        succ.add(dst)
        self._pred[dst].add(src)
        self._arc_count += 1
        return AddArcResult.INSERTED

    def add_interaction(self, sender: str, recipient: str) -> AddArcResult:
        """Intern both addresses and submit the sender -> recipient arc."""
        return self.add_arc(self.intern_address(sender), self.intern_address(recipient))

    def has_arc(self, src: int, dst: int) -> bool:
        return dst in self._succ[src]

    def successors(self, node: int) -> set[int]:
        """Distinct successors of `node` (do not mutate)."""
        return self._succ[node]

    def predecessors(self, node: int) -> set[int]:
        """Distinct predecessors of `node` (do not mutate)."""
        return self._pred[node]

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs (unspecified order); sort when determinism matters."""
        for src, succ in enumerate(self._succ):
            for dst in succ:
                yield src, dst

    def multiplicity(self, src: int, dst: int) -> int:
        """How many times the arc (src, dst) was submitted (0 if absent)."""
        if dst not in self._succ[src]:
            return 0
        return 1 + self._extra_multiplicity.get((src, dst), 0)

    @property
    def pair_submissions(self) -> int:
        """Total non-self-loop arc submissions (sum of multiplicities)."""
        return self._pair_submissions

    def edge_reuse_ratio(self) -> float:
        """Fraction of arc submissions that hit an already existing arc."""
        if self._pair_submissions == 0:
            return 0.0
        return (self._pair_submissions - self._arc_count) / self._pair_submissions


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
        self.n, self.m = n, len(src)
        fwd, rev = np.lexsort((dst, src)), np.lexsort((src, dst))
        self.tails = src[fwd].astype(np.int64)
        self.fwd_indptr = np.searchsorted(self.tails, np.arange(n + 1))
        self.fwd_indices = dst[fwd].astype(np.int32)
        self.rev_indptr = np.searchsorted(dst[rev], np.arange(n + 1))
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
            new_id = np.cumsum(mask) - 1
            keep = mask[self.tails] & mask[self.fwd_indices]
            sub = Csr(int(mask.sum()), new_id[self.tails[keep]], new_id[self.fwd_indices[keep]])
            self._parts[key] = (sub, np.flatnonzero(mask))
        return self._parts[key]


def compiled(graph: Union[DirectedGraph, Csr]) -> Csr:
    """The Csr of `graph` (a Csr passes through unchanged)."""
    if isinstance(graph, Csr):
        return graph
    n = graph.node_count
    counts = np.fromiter(map(len, graph._succ), dtype=np.int64, count=n)
    dst = np.fromiter(chain.from_iterable(graph._succ), dtype=np.int64, count=graph.arc_count)
    return Csr(n, np.repeat(np.arange(n, dtype=np.int64), counts), dst)


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

    The node set and labels are preserved; multiplicity is not carried over
    (the projection is an analysis artifact, not a transaction record).
    """
    out = DirectedGraph.with_node_count(graph.node_count)
    out._addr_to_id = dict(graph._addr_to_id)
    out._id_to_addr = list(graph._id_to_addr)
    for src, dst in graph.arcs():
        out.add_arc(src, dst)
        out.add_arc(dst, src)
    return out


def induced_subgraph(
    graph: DirectedGraph, members: Iterable[int]
) -> tuple[DirectedGraph, list[int]]:
    """Subgraph on `members` with nodes renumbered densely.

    Returns (subgraph, original_ids) where original_ids[new_id] is the node
    id in `graph`. New ids follow ascending original id, so the extraction
    is deterministic.
    """
    original_ids = sorted(set(members))
    remap = {old: new for new, old in enumerate(original_ids)}
    sub = DirectedGraph.with_node_count(len(original_ids))
    if graph.has_labels():
        sub._id_to_addr = [graph.address_of(old) for old in original_ids]
        sub._addr_to_id = {addr: new for new, addr in enumerate(sub._id_to_addr)}
    for old in original_ids:
        new_src = remap[old]
        for dst in graph.successors(old):
            new_dst = remap.get(dst)
            if new_dst is not None:
                sub.add_arc(new_src, new_dst)
    return sub, original_ids
