"""Seeded synthetic graphs used as test subjects and fixtures."""

from __future__ import annotations

import random

from ledgergraph.graph import DirectedGraph


def graph_from(arcs, n=None, labels=None) -> DirectedGraph:
    """The graph that submits each (src, dst) of `arcs` once; `n` defaults
    to one more than the highest node id."""
    arcs = list(arcs)
    n = n if n is not None else (max((max(a, b) for a, b in arcs), default=-1) + 1)
    return DirectedGraph(n, [a for a, _ in arcs], [b for _, b in arcs], labels)


def random_digraph(n: int, m: int, seed: int, labels: bool = False) -> DirectedGraph:
    """Uniform random simple digraph with exactly m arcs (needs m <= n(n-1))."""
    if m > n * (n - 1):
        raise ValueError("too many arcs requested")
    rng = random.Random(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b or (a, b) in chosen:
            continue
        chosen.add((a, b))
    names = [f"addr{v:05d}" for v in range(n)] if labels else None
    return graph_from(chosen, n, names)


def watts_strogatz(n: int, k: int, beta: float, seed: int) -> DirectedGraph:
    """Watts-Strogatz small world as a symmetric digraph.

    Ring of n nodes, each joined to its k nearest neighbors (k even,
    k/2 per side); every clockwise lattice edge is rewired to a uniform
    random target with probability beta, avoiding self-loops and duplicate
    edges. Every undirected edge is stored as two arcs.
    """
    if k % 2 or k < 2:
        raise ValueError("k must be even and >= 2")
    rng = random.Random(seed)
    edges: set[frozenset[int]] = set()
    for v in range(n):
        for off in range(1, k // 2 + 1):
            edges.add(frozenset((v, (v + off) % n)))
    for v in range(n):
        for off in range(1, k // 2 + 1):
            w = (v + off) % n
            e = frozenset((v, w))
            if e not in edges or rng.random() >= beta:
                continue
            for _ in range(100):
                t = rng.randrange(n)
                cand = frozenset((v, t))
                if t != v and cand not in edges:
                    edges.discard(e)
                    edges.add(cand)
                    break
    pairs = [tuple(sorted(e)) for e in edges]
    return graph_from(pairs + [(b, a) for a, b in pairs], n)


def multi_component_digraph(sizes=(397, 61, 19, 2, 1), seed=2021) -> DirectedGraph:
    """Seeded digraph made of weak components of the given sizes.

    Components occupy consecutive node ranges. Each is a random tree plus
    one extra arc per node, half of them aimed at the component's first 8
    nodes, so a few hubs form. Every fifth node of a component is a sink:
    its arcs all point into it, so its out-degree is 0. A link between two
    sinks is dropped, which splits a few sinks off as isolated nodes.
    """
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    lo = 0
    for size in sizes:

        def is_sink(v: int) -> bool:
            return (v - lo) % 5 == 4

        def link(u: int, v: int) -> None:
            if u == v or (is_sink(u) and is_sink(v)):
                return
            if is_sink(u) or (not is_sink(v) and rng.random() < 0.5):
                u, v = v, u
            pairs.append((u, v))

        for v in range(lo + 1, lo + size):
            link(lo + rng.randrange(v - lo), v)
        for _ in range(size):
            u = lo + rng.randrange(size)
            if rng.random() < 0.5:
                v = lo + rng.randrange(min(8, size))
            else:
                v = lo + rng.randrange(size)
            link(u, v)
        lo += size
    return graph_from(pairs, sum(sizes))


def ledger_day(n_tx: int, seed: int, hubs: int = 200) -> DirectedGraph:
    """Hub-heavy Ripple-style day, the benchmark's `ledger_day` recipe.

    Each endpoint of a payment is, with probability 0.3, a Zipf(1.8) draw
    over `hubs` hub addresses, and otherwise uniform over 2 other
    addresses per 5 payments. A few hubs then carry most of the arcs and
    most shortest paths run through them. Self-payments are dropped.
    """
    rng = random.Random(seed)
    others = max(1, 2 * n_tx // 5)
    weights = [k ** -1.8 for k in range(1, hubs + 1)]

    def endpoint() -> int:
        if rng.random() < 0.3:
            return rng.choices(range(hubs), weights)[0]
        return hubs + rng.randrange(others)

    pairs = [(endpoint(), endpoint()) for _ in range(n_tx)]
    return graph_from([(a, b) for a, b in pairs if a != b], hubs + others)
