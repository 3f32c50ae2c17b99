"""Brute-force reference implementations.

These deliberately share no code or approach with the package: plain
dict/deque BFS, O(k^2) neighbor-pair scans, and literal enumeration of
every shortest path. They are only usable on small graphs, which is the
point.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ledgergraph.graph import DirectedGraph


def adjacency(graph: DirectedGraph, undirected: bool = False) -> list[list[int]]:
    n = graph.node_count
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in graph.arcs():
        adj[a].add(b)
        if undirected:
            adj[b].add(a)
    return [sorted(s) for s in adj]


def bfs_distances(adj: list[list[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def weak_main_members(graph: DirectedGraph) -> set[int]:
    """Largest weakly connected component by flood fill (ties: lowest id)."""
    n = graph.node_count
    und = adjacency(graph, undirected=True)
    seen: set[int] = set()
    best: set[int] = set()
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in und[u]:
                if v not in comp:
                    comp.add(v)
                    queue.append(v)
        seen |= comp
        if len(comp) > len(best) or (len(comp) == len(best) and min(comp) < min(best)):
            best = comp
    return best


def strong_main_members(graph: DirectedGraph) -> set[int]:
    """Largest strongly connected component: the nodes that both reach and
    are reached from a node, by forward and backward flood fill (ties:
    lowest id)."""
    forward = adjacency(graph)
    backward: list[list[int]] = [[] for _ in range(graph.node_count)]
    for a, b in graph.arcs():
        backward[b].append(a)
    seen: set[int] = set()
    best: set[int] = set()
    for start in range(graph.node_count):  # `start` is the lowest id of its component
        if start in seen:
            continue
        comp = set(bfs_distances(forward, start)) & set(bfs_distances(backward, start))
        seen |= comp
        if len(comp) > len(best):
            best = comp
    return best


def exact_aspl(
    graph: DirectedGraph,
    undirected: bool = False,
    members: Optional[set[int]] = None,
    among: Optional[set[int]] = None,
) -> tuple[float, int]:
    """All-pairs ASPL over the weak main component, connected pairs only.

    `members` names another component; paths stay inside it. `among`
    keeps only the pairs with both ends in that node subset.
    """
    members = weak_main_members(graph) if members is None else members
    adj = [[v for v in row if v in members] for row in adjacency(graph, undirected=undirected)]
    ends = members if among is None else among
    total = 0
    pairs = 0
    for s in sorted(ends):
        dist = bfs_distances(adj, s)
        for t, d in dist.items():
            if t != s and t in ends:
                total += d
                pairs += 1
    return total / pairs, pairs


def average_clustering(graph: DirectedGraph) -> float:
    """Triangle-counting clustering on the undirected view, mean over all nodes."""
    n = graph.node_count
    und = [set(row) for row in adjacency(graph, undirected=True)]
    total = 0.0
    for v in range(n):
        nbrs = sorted(und[v] - {v})
        k = len(nbrs)
        if k < 2:
            continue
        closed = 0
        for i in range(k):
            for j in range(i + 1, k):
                if nbrs[j] in und[nbrs[i]]:
                    closed += 1
        total += closed / (k * (k - 1) / 2)
    return total / n if n else 0.0


def local_clustering(graph: DirectedGraph, directed: bool = False) -> list[float]:
    """Per-node clustering by scanning every ordered neighbor pair: linked
    pairs over k(k-1), where a pair is linked by an arc from the first to
    the second when `directed`, else by an arc either way."""
    und = [set(row) for row in adjacency(graph, undirected=True)]
    out = [set(row) for row in adjacency(graph)]
    values = []
    for v in range(graph.node_count):
        nbrs = sorted(und[v] - {v})
        k = len(nbrs)
        linked = sum(1 for a in nbrs for b in nbrs
                     if a != b and b in (out[a] if directed else und[a]))
        values.append(linked / (k * (k - 1)) if k >= 2 else 0.0)
    return values


def _all_shortest_paths(adj: list[list[int]], s: int, t: int) -> list[list[int]]:
    """Every shortest s->t path, by BFS layering then DFS enumeration."""
    dist = bfs_distances(adj, s)
    if t not in dist or s == t:
        return []
    preds: dict[int, list[int]] = {v: [] for v in dist}
    for u in dist:
        for v in adj[u]:
            if v in dist and dist[v] == dist[u] + 1:
                preds[v].append(u)
    paths: list[list[int]] = []
    stack = [(t, [t])]
    while stack:
        node, path = stack.pop()
        if node == s:
            paths.append(path[::-1])
            continue
        for p in preds[node]:
            stack.append((p, path + [p]))
    return paths


def load_centrality(graph: DirectedGraph) -> list[float]:
    """Exhaustive-path-enumeration load, normalized per weak component.

    For every ordered pair (s, t) the credit of an interior node is the
    fraction of the pair's shortest paths passing through it.
    """
    n = graph.node_count
    adj = adjacency(graph)
    und = adjacency(graph, undirected=True)
    comp_of: dict[int, frozenset[int]] = {}
    seen: set[int] = set()
    for start in range(n):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in und[u]:
                if v not in comp:
                    comp.add(v)
                    queue.append(v)
        seen |= comp
        frozen = frozenset(comp)
        for v in comp:
            comp_of[v] = frozen
    raw = [0.0] * n
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = _all_shortest_paths(adj, s, t)
            if not paths:
                continue
            share = 1.0 / len(paths)
            for path in paths:
                for interior in path[1:-1]:
                    raw[interior] += share
    out = []
    for v in range(n):
        cn = len(comp_of[v])
        out.append(raw[v] / ((cn - 1) * (cn - 2)) if cn >= 3 else 0.0)
    return out


def unnormalized_load_mass(graph: DirectedGraph) -> float:
    """Sum over pairs of (path length - 1): total interior-node credit."""
    adj = adjacency(graph)
    total = 0.0
    for s in range(graph.node_count):
        dist = bfs_distances(adj, s)
        for t, d in dist.items():
            if t != s:
                total += d - 1
    return total
