import random

import pytest

from ledgergraph.graph import (
    AddArcResult,
    DirectedGraph,
    compiled,
    induced_subgraph,
    main_component,
    strongly_connected_components,
    undirected_projection,
    weakly_connected_components,
)

from synth import multi_component_digraph, random_digraph


def graph_from(arcs, n=None):
    n = n if n is not None else (max((max(a, b) for a, b in arcs), default=-1) + 1)
    g = DirectedGraph.with_node_count(n)
    for a, b in arcs:
        g.add_arc(a, b)
    return g


class TestInterning:
    def test_first_insertion_gets_id_zero(self):
        g = DirectedGraph()
        assert g.intern_address("0xabc") == 0
        assert g.node_count == 1

    def test_idempotent(self):
        g = DirectedGraph()
        g.intern_address("0xabc")
        assert g.intern_address("0xabc") == 0
        assert g.node_count == 1

    def test_incremental_assignment(self):
        g = DirectedGraph()
        g.intern_address("0xabc")
        assert g.intern_address("rXYZ") == 1

    def test_empty_address_rejected(self):
        with pytest.raises(ValueError):
            DirectedGraph().intern_address("")

    def test_ids_follow_first_seen_order(self):
        rng = random.Random(5)
        addresses = [f"a{i}" for i in range(200)]
        rng.shuffle(addresses)
        g = DirectedGraph()
        for addr in addresses:
            g.intern_address(addr)
        for addr in addresses:
            g.intern_address(addr)  # idempotent second pass
        assert [g.address_of(i) for i in range(200)] == addresses
        assert g.node_count == 200


class TestAddArc:
    def test_insert(self):
        g = DirectedGraph.with_node_count(2)
        assert g.add_arc(0, 1) is AddArcResult.INSERTED
        assert g.arc_count == 1

    def test_duplicate_increments_multiplicity(self):
        g = DirectedGraph.with_node_count(2)
        g.add_arc(0, 1)
        assert g.add_arc(0, 1) is AddArcResult.DUPLICATED
        assert g.arc_count == 1
        assert g.multiplicity(0, 1) == 2

    def test_self_loop_discarded_but_counted(self):
        g = DirectedGraph.with_node_count(3)
        assert g.add_arc(2, 2) is AddArcResult.SELF_LOOP_DISCARDED
        assert g.arc_count == 0
        assert g.self_loop_count == 1

    def test_out_of_range_rejected(self):
        g = DirectedGraph.with_node_count(2)
        with pytest.raises(ValueError):
            g.add_arc(0, 2)
        with pytest.raises(ValueError):
            g.add_arc(-1, 0)

    def test_submission_accounting(self):
        rng = random.Random(11)
        g = DirectedGraph.with_node_count(10)
        submissions = 0
        loops = 0
        for _ in range(500):
            a, b = rng.randrange(10), rng.randrange(10)
            g.add_arc(a, b)
            if a == b:
                loops += 1
            else:
                submissions += 1
        assert g.pair_submissions == submissions
        assert g.self_loop_count == loops
        assert g.arc_count <= submissions
        total_multiplicity = sum(g.multiplicity(a, b) for a, b in g.arcs())
        assert total_multiplicity == submissions
        expected = (submissions - g.arc_count) / submissions
        assert g.edge_reuse_ratio() == pytest.approx(expected)


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
        g = DirectedGraph()
        g.add_interaction("a", "b")
        g.add_interaction("b", "c")
        sub, original = induced_subgraph(g, {1, 2})
        assert [sub.address_of(i) for i in range(2)] == ["b", "c"]


def one_at_a_time(n, src, dst):
    g = DirectedGraph.with_node_count(n)
    results = [g.add_arc(a, b) for a, b in zip(src, dst)]
    return g, results


def same_graph(a, b):
    assert (a.node_count, a.arc_count, a.pair_submissions, a.self_loop_count) == (
        b.node_count, b.arc_count, b.pair_submissions, b.self_loop_count)
    assert list(a.arcs()) == list(b.arcs())
    assert [a.multiplicity(s, d) for s, d in a.arcs()] == [b.multiplicity(s, d) for s, d in b.arcs()]
    assert a.edge_reuse_ratio() == b.edge_reuse_ratio()
    for v in range(a.node_count):
        assert a.successors(v) == b.successors(v) and a.predecessors(v) == b.predecessors(v)


class TestBulkConstruction:
    @pytest.mark.parametrize("seed", range(4))
    def test_from_arcs_counts_as_add_arc_does(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 15)
        src = [rng.randrange(n) for _ in range(300)]
        dst = [rng.randrange(n) for _ in range(300)]
        same_graph(DirectedGraph.from_arcs(n, src, dst), one_at_a_time(n, src, dst)[0])

    def test_from_arcs_keeps_labels(self):
        g = DirectedGraph.from_arcs(3, [0, 2], [1, 1], labels=["a", None, "c"])
        assert [g.address_of(v) for v in range(3)] == ["a", None, "c"]
        assert g.node_of("c") == 2 and not g.has_labels()

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
        held = compiled(g)
        assert sorted(g.arcs()) == [(0, 1), (1, 2), (2, 0)]
        assert g.multiplicity(0, 1) == 2 and g.has_arc(1, 2) and not g.has_arc(2, 1)
        assert g.successors(0) == {1} and g.predecessors(0) == {2}
        assert compiled(g) is held and g._pending == {}

    def test_add_after_read(self):
        g = DirectedGraph()
        assert g.add_interaction("a", "b") is AddArcResult.INSERTED
        assert list(g.arcs()) == [(0, 1)]
        assert g.add_interaction("b", "c") is AddArcResult.INSERTED  # a node new since the read
        assert g.add_interaction("a", "b") is AddArcResult.DUPLICATED
        assert g.add_interaction("c", "c") is AddArcResult.SELF_LOOP_DISCARDED
        assert (g.node_count, g.arc_count, g.multiplicity(0, 1)) == (3, 2, 2)
        assert g.successors(1) == {2} and g.edge_reuse_ratio() == 1 / 3
        g.intern_address("d")
        assert g.node_count == 4 and g.successors(3) == frozenset()

    def test_add_to_bulk_graph(self):
        g = DirectedGraph.from_arcs(3, [0, 0], [1, 1])
        assert g.add_arc(0, 1) is AddArcResult.DUPLICATED
        assert g.add_arc(2, 0) is AddArcResult.INSERTED
        same_graph(g, one_at_a_time(3, [0, 0, 0, 2], [1, 1, 1, 0])[0])

    def test_projection_submits_each_arc_both_ways(self):
        p = undirected_projection(graph_from([(0, 1), (1, 0), (1, 2)]))
        assert [p.multiplicity(a, b) for a, b in p.arcs()] == [2, 2, 1, 1]
        assert (p.pair_submissions, p.edge_reuse_ratio()) == (6, 2 / 6)
