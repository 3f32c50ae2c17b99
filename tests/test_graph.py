import random
from collections import Counter

import pytest

from ledgergraph.graph import (
    DirectedGraph,
    induced_subgraph,
    main_component,
    strongly_connected_components,
    undirected_projection,
    weakly_connected_components,
)

from synth import graph_from, multi_component_digraph, random_digraph


class TestComponents:
    def test_weak_single_chain(self):
        g = graph_from([(0, 1), (1, 2)])
        comps = weakly_connected_components(g)
        assert len(comps) == 1
        assert comps[0].members == frozenset({0, 1, 2})
        assert comps[0].is_main

    def test_strong_chain_is_singletons(self):
        g = graph_from([(0, 1), (1, 2)])
        comps = strongly_connected_components(g)
        assert sorted(len(c) for c in comps) == [1, 1, 1]

    def test_strong_cycle_plus_arc(self):
        g = graph_from([(0, 1), (1, 0), (2, 3)])
        comps = strongly_connected_components(g)
        members = sorted(sorted(c.members) for c in comps)
        assert members == [[0], [1], [2], [3]] or members == [[0, 1], [2], [3]]
        assert members == [[0, 1], [2], [3]]
        main = main_component(g, "strong")
        assert main.members == frozenset({0, 1})

    def test_main_tie_broken_by_lowest_node(self):
        # two weak components of equal size
        g = graph_from([(2, 3), (0, 1)])
        main = main_component(g, "weak")
        assert main.members == frozenset({0, 1})

    def test_partitions(self):
        for seed in range(10):
            g = random_digraph(60, 150, seed)
            for comps in (weakly_connected_components(g), strongly_connected_components(g)):
                covered = sorted(v for c in comps for v in c.members)
                assert covered == list(range(60))
                assert sum(c.is_main for c in comps) == 1
                assert len(comps[0]) == max(len(c) for c in comps)

    def test_strong_inside_weak(self):
        g = random_digraph(80, 200, 3)
        weak_of = {}
        for c in weakly_connected_components(g):
            for v in c.members:
                weak_of[v] = c.members
        for c in strongly_connected_components(g):
            homes = {frozenset(weak_of[v]) for v in c.members}
            assert len(homes) == 1

    def test_weak_components_match_projection(self):
        g = random_digraph(50, 90, 9)
        direct = {frozenset(c.members) for c in weakly_connected_components(g)}
        projected = {
            frozenset(c.members)
            for c in weakly_connected_components(undirected_projection(g))
        }
        assert direct == projected

    def test_strong_components_are_maximal_mutual_reachability(self):
        from collections import deque

        for seed in range(6):
            rng = random.Random(seed + 40)
            n = rng.randrange(5, 30)
            m = rng.randrange(n, min(4 * n, n * (n - 1)))
            g = random_digraph(n, m, seed)

            def reachable(start):
                seen = {start}
                queue = deque([start])
                while queue:
                    u = queue.popleft()
                    for v in g.successors(u):
                        if v not in seen:
                            seen.add(v)
                            queue.append(v)
                return seen

            reach = [reachable(v) for v in range(n)]
            comp_of = {}
            for c in strongly_connected_components(g):
                for v in c.members:
                    comp_of[v] = c
            for u in range(n):
                for v in range(n):
                    mutual = v in reach[u] and u in reach[v]
                    assert (comp_of[u] is comp_of[v]) == mutual

    def test_strong_components_iterative_on_long_chain(self):
        # a 5000-cycle would blow the recursion limit in a recursive Tarjan
        n = 5000
        g = graph_from([(i, (i + 1) % n) for i in range(n)])
        comps = strongly_connected_components(g)
        assert len(comps) == 1
        assert len(comps[0]) == n


    def test_partitions_match_networkx_at_scale(self):
        nx = pytest.importorskip("networkx")
        g = multi_component_digraph(sizes=(2500, 900, 300, 40, 7, 2, 1), seed=7)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(g.node_count))
        ref.add_edges_from(g.arcs())
        for ours, theirs in (
            (weakly_connected_components, nx.weakly_connected_components),
            (strongly_connected_components, nx.strongly_connected_components),
        ):
            comps = ours(g)
            assert {c.members for c in comps} == {frozenset(c) for c in theirs(ref)}
            assert [len(c) for c in comps] == sorted((len(c) for c in comps), reverse=True)
            assert len(comps) > 7 and len(comps[0]) > 1

class TestProjectionAndSubgraph:
    def test_projection_symmetric(self):
        g = graph_from([(0, 1)])
        p = undirected_projection(g)
        assert sorted(p.arcs()) == [(0, 1), (1, 0)]

    def test_projection_idempotent(self):
        g = graph_from([(0, 1), (1, 0), (1, 2)])
        once = undirected_projection(g)
        twice = undirected_projection(once)
        assert sorted(once.arcs()) == sorted(twice.arcs()) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_induced_subgraph_renumbers(self):
        g = graph_from([(0, 2), (2, 4), (4, 0), (1, 3)], n=5)
        sub, original = induced_subgraph(g, {0, 2, 4})
        assert original == [0, 2, 4]
        assert sub.node_count == 3
        assert sorted(sub.arcs()) == [(0, 1), (1, 2), (2, 0)]

    def test_induced_subgraph_keeps_labels(self):
        g = graph_from([(0, 1), (1, 2)], labels=["a", "b", "c"])
        sub, original = induced_subgraph(g, {1, 2})
        assert [sub.address_of(i) for i in range(2)] == ["b", "c"]


def same_as_counted(g, n, src, dst):
    """Check `g` against the submissions counted with a plain Counter: a
    self-loop is only counted, any other pair adds one to its arc."""
    loops = sum(a == b for a, b in zip(src, dst))
    counts = Counter((a, b) for a, b in zip(src, dst) if a != b)
    submitted = sum(counts.values())
    assert (g.node_count, g.arc_count, g.pair_submissions, g.self_loop_count) == (
        n, len(counts), submitted, loops)
    assert list(g.arcs()) == sorted(counts)
    assert [g.multiplicity(a, b) for a, b in g.arcs()] == [counts[arc] for arc in sorted(counts)]
    assert g.edge_reuse_ratio() == ((submitted - len(counts)) / submitted if submitted else 0.0)
    for v in range(n):
        assert g.successors(v) == {b for a, b in counts if a == v}
        assert g.predecessors(v) == {a for a, b in counts if b == v}


class TestBulkConstruction:
    @pytest.mark.parametrize("seed", range(4))
    def test_from_arcs_counts_as_add_arc_does(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 15)
        src = [rng.randrange(n) for _ in range(300)]
        dst = [rng.randrange(n) for _ in range(300)]
        same_as_counted(DirectedGraph.from_arcs(n, src, dst), n, src, dst)

    @pytest.mark.parametrize("n, arcs", [
        (2, [(0, 1)]),
        (2, [(0, 1), (0, 1)]),  # a repeat raises the multiplicity
        (3, [(2, 2)]),  # a self-loop is counted, not stored
        (3, [(2, 2), (0, 1), (1, 0), (0, 1), (2, 2), (2, 0)]),
        (4, []),
    ])
    def test_from_arcs_counts_small_inputs(self, n, arcs):
        src, dst = [a for a, _ in arcs], [b for _, b in arcs]
        same_as_counted(DirectedGraph.from_arcs(n, src, dst), n, src, dst)

    def test_from_arcs_keeps_labels(self):
        g = DirectedGraph.from_arcs(3, [0, 2], [1, 1], labels=["a", None, "c"])
        assert [g.address_of(v) for v in range(3)] == ["a", None, "c"]
        assert not g.has_labels() and DirectedGraph.from_arcs(1, [], [], ["a"]).has_labels()

    def test_from_arcs_rejects_ids_out_of_range(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_arcs(2, [0], [2])
        with pytest.raises(ValueError):
            DirectedGraph.from_arcs(2, [-1], [0])
        with pytest.raises(ValueError):
            DirectedGraph.from_arcs(-1, [], [])
        with pytest.raises(ValueError):
            DirectedGraph.from_arcs(2, [0], [1], labels=["a"])

    def test_bulk_graph_reads_its_arrays_without_a_buffer(self):
        g = DirectedGraph.from_arcs(4, [0, 0, 1, 3, 2], [1, 1, 2, 3, 0])
        assert sorted(g.arcs()) == [(0, 1), (1, 2), (2, 0)]
        assert g.multiplicity(0, 1) == 2 and g.multiplicity(1, 2) == 1
        assert g.multiplicity(2, 1) == 0
        assert g.successors(0) == {1} and g.predecessors(0) == {2}
        # the graph is its own Csr: forward arcs by (tail, head), reverse by (head, tail)
        assert (g.tails.tolist(), g.fwd_indices.tolist()) == ([0, 1, 2], [1, 2, 0])
        assert (g.fwd_indptr.tolist(), g.rev_indptr.tolist()) == ([0, 1, 2, 3, 3], [0, 1, 2, 3, 3])
        assert g.rev_indices.tolist() == [2, 0, 1]

    def test_projection_submits_each_arc_both_ways(self):
        p = undirected_projection(graph_from([(0, 1), (1, 0), (1, 2)]))
        assert [p.multiplicity(a, b) for a, b in p.arcs()] == [2, 2, 1, 1]
        assert (p.pair_submissions, p.edge_reuse_ratio()) == (6, 2 / 6)
