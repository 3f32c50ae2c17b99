import hashlib
import itertools
from collections import Counter
import json
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest

from ledgergraph import graph as graph_module, metrics
from ledgergraph.graph import DirectedGraph
from ledgergraph.metrics import (
    SamplePlan,
    aspl,
    average_clustering,
    build_metrics_report,
    clustering_coefficient,
    degree_distribution,
    histogram_lines,
    load_centrality,
)

import oracles
from synth import graph_from, ledger_day, multi_component_digraph, random_digraph, watts_strogatz


def three_cycle():
    return graph_from([(0, 1), (1, 2), (2, 0)])


def digraph_with_dead_ends(seed):
    """A seeded random digraph with in-trees hanging into it and out-trees
    hanging off it: tree nodes lie on no path between two core nodes."""
    rng = random.Random(seed)
    core = rng.randrange(60, 120)
    arcs = list(random_digraph(core, 2 * core, seed).arcs())
    n = core
    for _ in range(rng.randrange(20, 60)):
        grow_in = rng.random() < 0.5
        anchor = rng.randrange(n)
        arcs.append((n, anchor) if grow_in else (anchor, n))
        n += 1
    return graph_from(arcs, n)


def hub_digraph(seed):
    """A seeded random digraph, three hubs with 40-59 in-arcs each, and ten
    source nodes (no in-arcs) pointing into it."""
    rng = random.Random(seed)
    arcs = list(random_digraph(120, 360, seed).arcs())
    for hub in range(3):
        arcs += [(v, hub) for v in rng.sample(range(3, 120), rng.randrange(40, 60))]
    arcs += [(120 + i, rng.randrange(120)) for i in range(10)]
    return graph_from(arcs, 130)


def utxo_digraph(seed, txs=120):
    """A seeded UTXO-shaped day: each transaction links every one of its
    1-3 inputs to every one of its 1-4 fresh outputs. Inputs are spent
    from the seed coins and earlier outputs, but only a quarter of the
    outputs are ever spendable, so most nodes only receive."""
    rng = random.Random(seed)
    spendable = list(range(4))
    n = 4
    arcs = []
    for _ in range(txs):
        inputs = rng.sample(spendable, min(len(spendable), rng.randint(1, 3)))
        outputs = range(n, n + rng.randint(1, 4))
        n += len(outputs)
        arcs += [(a, b) for a in inputs for b in outputs]
        spendable += [v for v in outputs if rng.random() < 0.25]
    return graph_from(arcs, n)


def record_batches(monkeypatch):
    """Spy on the ASPL kernel: (subgraph, batch, targets) of each call."""
    calls = []
    kernel = metrics._batch_pair_sums

    def recorded(csr, batch, targets, *args):
        calls.append((csr, batch, targets))
        return kernel(csr, batch, targets, *args)

    monkeypatch.setattr(metrics, "_batch_pair_sums", recorded)
    return calls


def sample_of(g, plan):
    """The node ids `aspl` samples from the weak main component."""
    members = sorted(oracles.weak_main_members(g))
    return {members[i] for i in metrics._sample_nodes(len(members), plan)}


# _PUSH_ALPHA = 0: every level pushes; 2**62: every level with arcs to follow pulls.
# A pull takes in-arc j of every node as a column while _MIN_COLUMN nodes have one:
# at 1 every in-arc is in a column, at 2**62 every in-arc is in the reduceat rest.
DIRECTIONS = pytest.mark.parametrize(
    "alpha, min_column",
    [(0, metrics._MIN_COLUMN), (1 << 62, metrics._MIN_COLUMN), (1 << 62, 1), (1 << 62, 1 << 62)],
    ids=["push", "pull", "pull-columns", "pull-reduceat"],
)


def bidirectional_star(leaves=4):
    return graph_from([arc for leaf in range(1, leaves + 1) for arc in ((0, leaf), (leaf, 0))])


class TestDegreeDistribution:
    def test_three_cycle(self):
        hist = degree_distribution(three_cycle())
        assert hist.in_degree == {1: 3}
        assert hist.out_degree == {1: 3}
        assert hist.total_degree == {2: 3}

    def test_negative_hub_count_rejected(self):
        # a negative slice bound would list all hubs but the last few
        with pytest.raises(ValueError, match="hub_count"):
            degree_distribution(three_cycle(), hub_count=-1)
        with pytest.raises(ValueError, match="hub_count"):
            build_metrics_report(three_cycle(), SamplePlan(fraction=1.0), hub_count=-3)

    def test_star_out_only(self):
        g = graph_from([(0, leaf) for leaf in range(1, 5)])
        hist = degree_distribution(g)
        assert hist.out_degree == {0: 4, 4: 1}
        assert hist.in_degree == {0: 1, 1: 4}
        assert hist.total_degree == {1: 4, 4: 1}
        assert hist.max_hubs[0] == (0, 4)

    def test_mutual_pair_counts_one_neighbor(self):
        g = graph_from([(0, 1), (1, 0)])
        hist = degree_distribution(g)
        assert hist.total_degree == {1: 2}

    @pytest.mark.parametrize("seed", range(8))
    def test_accounting_invariants(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 80)
        m = rng.randrange(0, n * (n - 1) + 1)
        g = random_digraph(n, m, seed)
        hist = degree_distribution(g)
        for table in (hist.in_degree, hist.out_degree, hist.total_degree):
            assert sum(table.values()) == n
        assert sum(d * c for d, c in hist.in_degree.items()) == g.arc_count
        assert sum(d * c for d, c in hist.out_degree.items()) == g.arc_count

    def test_hub_list_sorted_and_capped(self):
        g = random_digraph(40, 200, 1)
        hist = degree_distribution(g, hub_count=5)
        assert len(hist.max_hubs) == 5
        degrees = [d for _, d in hist.max_hubs]
        assert degrees == sorted(degrees, reverse=True)

    def test_histogram_lines_format(self):
        assert histogram_lines({2: 3, 0: 1}) == "0 1\n2 3\n"


class TestClustering:
    def test_triangle(self):
        g = graph_from(list(itertools.permutations(range(3), 2)))
        assert average_clustering(g) == 1.0
        assert clustering_coefficient(g, 0) == 1.0

    def test_path_has_zero(self):
        g = graph_from([(0, 1), (1, 2)])
        assert clustering_coefficient(g, 1) == 0.0
        assert average_clustering(g) == 0.0

    def test_four_clique_minus_edge(self):
        arcs = [(a, b) for a, b in itertools.permutations(range(4), 2) if {a, b} != {2, 3}]
        g = graph_from(arcs)
        assert clustering_coefficient(g, 0) == pytest.approx(2 / 3)
        assert clustering_coefficient(g, 2) == 1.0
        assert average_clustering(g) == pytest.approx(5 / 6, rel=1e-12)

    def test_orientation_does_not_matter_by_default(self):
        # a one-way triangle clusters like a mutual one
        assert average_clustering(three_cycle()) == 1.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_triangle_counting_oracle(self, seed):
        rng = random.Random(seed + 100)
        n = rng.randrange(3, 120)
        m = rng.randrange(0, min(3 * n, n * (n - 1)))
        g = random_digraph(n, m, seed)
        assert average_clustering(g) == pytest.approx(
            oracles.average_clustering(g), rel=1e-12, abs=1e-15
        )

    def test_subset_average(self):
        g = graph_from([(0, 1), (1, 2), (2, 0), (3, 4)])
        assert average_clustering(g, nodes=[0, 1, 2]) == 1.0

    @pytest.mark.parametrize("node", [-1, 4])
    def test_id_outside_the_graph_is_rejected(self, node):
        # -1 must not wrap around to node 3, whose clustering differs from node 0's
        g = DirectedGraph(4, [0, 1, 2, 2], [1, 2, 0, 3])
        message = rf"^node id {node} is outside \[0, 4\)$"
        with pytest.raises(ValueError, match=message):
            clustering_coefficient(g, node)
        with pytest.raises(ValueError, match=message):
            average_clustering(g, [0, node])


    @pytest.mark.parametrize("seed", range(6))
    def test_equals_pair_scan_oracle_bit_for_bit(self, monkeypatch, seed):
        rng = random.Random(seed + 300)
        n = rng.randrange(3, 90)
        g = random_digraph(n, rng.randrange(0, min(4 * n, n * (n - 1))), seed)
        monkeypatch.setattr(metrics, "_WEDGE_CHUNK", 7)  # many wedge chunks
        expected = oracles.local_clustering(g)
        assert [clustering_coefficient(g, v) for v in range(n)] == expected
        total = 0.0
        for value in expected:  # left to right, as the removed loop added
            total += value
        assert average_clustering(g) == total / n

    @pytest.mark.parametrize("make", [
        multi_component_digraph,
        # a mutual triangle whose nodes also close triangles with 3 and 4,
        # which it reaches or is reached from but not both
        lambda: graph_from([(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2),
                            (0, 3), (1, 3), (4, 1), (4, 2), (3, 5), (5, 3)]),
        lambda: graph_from([(0, 1), (1, 2), (0, 2), (2, 3)]),  # every strong component is one node
        *(lambda seed=seed: random_digraph(150, 260, seed) for seed in range(4)),
        *(lambda seed=seed: digraph_with_dead_ends(seed) for seed in range(2)),
    ], ids=["multi_component", "neighbours_outside", "one_node",
            *(f"random{seed}" for seed in range(4)), *(f"dead_ends{seed}" for seed in range(2))])
    def test_strong_main_clustering_through_its_mask_equals_the_cut(self, monkeypatch, make):
        monkeypatch.setattr(metrics, "_WEDGE_CHUNK", 5)  # many wedge chunks
        g = make()
        main = g.labels("strong") == g.main_label("strong")
        through_mask = metrics._local_clustering(g, main)
        cut = metrics._local_clustering(g.component("strong")[0])
        assert through_mask[main].tobytes() == cut.tobytes()
        assert not through_mask[~main].any()
        if main.sum() >= 2:
            report = build_metrics_report(g, SamplePlan(1.0, component="strong_main"), hub_count=0)
            assert report.main_component_acc == metrics._ordered_mean(cut)

    def test_traced_peak_is_under_7_times_the_edge_keys(self):
        # one sorted key per edge orients it: 5.9x, and 6.6x through the strong
        # main mask (an argsort and gathers of low and high ends: 9.5x, 9.8x)
        g = random_digraph(100_000, 300_000, 1)
        keys = g.undirected_edges[0].nbytes  # the projection is listed once per graph
        main = g.labels("strong") == g.main_label("strong")

        def peak_of(mask):
            tracemalloc.start()
            try:
                metrics._local_clustering(g, mask)
                return tracemalloc.get_traced_memory()[1] / keys
            finally:
                tracemalloc.stop()

        assert peak_of(None) < 7.0
        assert peak_of(main) < 7.5

    def test_matches_networkx_at_scale(self):
        nx = pytest.importorskip("networkx")
        g = multi_component_digraph(sizes=(2500, 900, 300, 40, 7, 2, 1), seed=7)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(g.node_count))
        ref.add_edges_from(g.arcs())
        assert abs(average_clustering(g) - nx.average_clustering(ref.to_undirected())) <= 1e-12
        hist = degree_distribution(g)
        assert hist.in_degree == Counter(d for _, d in ref.in_degree())
        assert hist.out_degree == Counter(d for _, d in ref.out_degree())
        assert hist.total_degree == Counter(d for _, d in ref.to_undirected().degree())

class TestAspl:
    def test_directed_three_cycle(self):
        value, pairs = aspl(three_cycle(), SamplePlan(fraction=1.0))
        assert value == 1.5
        assert pairs == 6

    def test_path_skips_unreachable_pairs(self):
        g = graph_from([(0, 1), (1, 2)])
        value, pairs = aspl(g, SamplePlan(fraction=1.0))
        assert value == pytest.approx(4 / 3)
        assert pairs == 3

    def test_undirected_flag(self):
        g = graph_from([(0, 1), (1, 2)])
        value, pairs = aspl(g, SamplePlan(fraction=1.0, treat_as_undirected=True))
        assert value == pytest.approx(8 / 6)
        assert pairs == 6

    def test_strong_component_selection(self):
        g = graph_from([(0, 1), (1, 0), (1, 2)])
        value, pairs = aspl(g, SamplePlan(fraction=1.0, component="strong_main"))
        assert value == 1.0
        assert pairs == 2

    @pytest.mark.parametrize("seed", range(15))
    def test_fraction_one_equals_bruteforce(self, seed):
        rng = random.Random(seed + 50)
        n = rng.randrange(4, 150)
        m = rng.randrange(n, min(4 * n, n * (n - 1)))
        g = random_digraph(n, m, seed)
        expect_value, expect_pairs = oracles.exact_aspl(g)
        value, pairs = aspl(g, SamplePlan(fraction=1.0))
        assert pairs == expect_pairs
        assert value == expect_value  # integer sums divide identically

    @DIRECTIONS
    @pytest.mark.parametrize("component", ["weak_main", "strong_main"])
    @pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
    @pytest.mark.parametrize(
        "make",
        [multi_component_digraph, lambda: random_digraph(150, 450, 4)],
        ids=["multi", "random"],
    )
    def test_each_direction_equals_bruteforce(
        self, monkeypatch, alpha, min_column, component, undirected, make
    ):
        g = make()
        if component == "weak_main":
            members = oracles.weak_main_members(g)
        else:
            members = oracles.strong_main_members(g)
        expected = oracles.exact_aspl(g, undirected, members)
        monkeypatch.setattr(metrics, "_PUSH_ALPHA", alpha)
        monkeypatch.setattr(metrics, "_MIN_COLUMN", min_column)
        plan = SamplePlan(fraction=1.0, component=component, treat_as_undirected=undirected)
        assert aspl(g, plan) == expected

    @DIRECTIONS
    def test_each_direction_equals_bruteforce_on_a_sample(self, monkeypatch, alpha, min_column):
        g = multi_component_digraph()
        members = oracles.weak_main_members(g)
        # ids in the main component
        picked = metrics._sample_nodes(len(members), SamplePlan(fraction=0.5, seed=3))
        # 197 sampled nodes: 69 sinks, and 128 sources swept in two batches
        assert len(picked) % metrics._BITS == 5
        among = {sorted(members)[i] for i in picked}
        expected = oracles.exact_aspl(g, members=members, among=among)
        monkeypatch.setattr(metrics, "_PUSH_ALPHA", alpha)
        monkeypatch.setattr(metrics, "_MIN_COLUMN", min_column)
        assert aspl(g, SamplePlan(fraction=0.5, seed=3)) == expected

    @DIRECTIONS
    @pytest.mark.parametrize("seed", range(10))
    def test_pruned_sample_equals_bruteforce(self, monkeypatch, alpha, min_column, seed):
        g = digraph_with_dead_ends(seed)
        monkeypatch.setattr(metrics, "_PUSH_ALPHA", alpha)
        monkeypatch.setattr(metrics, "_MIN_COLUMN", min_column)
        measured = record_batches(monkeypatch)
        weak, strong = oracles.weak_main_members(g), oracles.strong_main_members(g)
        for fraction, component, undirected in itertools.product(
            (0.1, 0.3), ("weak_main", "strong_main"), (False, True)
        ):
            members = weak if component == "weak_main" else strong
            picked = metrics._sample_nodes(len(members), SamplePlan(fraction, seed))
            among = {sorted(members)[i] for i in picked}
            expected = oracles.exact_aspl(g, undirected, members, among=among)
            measured.clear()
            plan = SamplePlan(fraction, seed, component, undirected)
            assert aspl(g, plan) == expected
            if component == "weak_main" and not undirected:
                assert measured[0][0].n < len(members)  # the dead ends were pruned
            else:
                assert measured[0][0].n == len(members)  # strongly connected: nothing to prune

    @DIRECTIONS
    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    @pytest.mark.parametrize("seed", range(3))
    def test_hubs_and_sources_equal_bruteforce(self, monkeypatch, alpha, min_column, fraction, seed):
        g = hub_digraph(seed)
        members = oracles.weak_main_members(g)
        picked = metrics._sample_nodes(len(members), SamplePlan(fraction, seed))
        among = {sorted(members)[i] for i in picked}
        expected = oracles.exact_aspl(g, members=members, among=among)
        monkeypatch.setattr(metrics, "_PUSH_ALPHA", alpha)
        monkeypatch.setattr(metrics, "_MIN_COLUMN", min_column)
        measured = record_batches(monkeypatch)
        assert aspl(g, SamplePlan(fraction, seed)) == expected
        csr = measured[0][0]
        in_deg = np.diff(csr.rev_indptr)
        # at the default _MIN_COLUMN a pull has columns and a hub rest
        assert np.count_nonzero(in_deg) >= 32 and in_deg.max() > 32
        if fraction == 1.0:  # the sources are sampled and kept
            sampled = np.concatenate([batch for _, batch, _ in measured])
            assert (in_deg[sampled] == 0).sum() >= 10

    def test_matches_networkx_at_scale(self):
        nx = pytest.importorskip("networkx")
        g = multi_component_digraph(sizes=(2200, 300, 40, 7, 2, 1), seed=7)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(g.node_count))
        ref.add_edges_from(g.arcs())
        main = max(nx.weakly_connected_components(ref), key=len)
        total = pairs = 0
        for _, dist in nx.all_pairs_shortest_path_length(ref.subgraph(main)):
            total += sum(dist.values())
            pairs += len(dist) - 1  # the source itself, at distance 0
        value, got_pairs = aspl(g, SamplePlan(fraction=1.0))
        assert len(main) > 2000
        assert got_pairs == pairs
        assert value == total / pairs

    def test_deterministic_given_seed(self):
        g = random_digraph(400, 1600, 2)
        a = aspl(g, SamplePlan(fraction=0.3, seed=11))
        b = aspl(g, SamplePlan(fraction=0.3, seed=11))
        c = aspl(g, SamplePlan(fraction=0.3, seed=12))
        assert a == b
        assert a != c  # different sample, almost surely

    def test_workers_do_not_change_the_answer(self):
        g = random_digraph(500, 2500, 3)
        single = aspl(g, SamplePlan(fraction=1.0), workers=1)
        multi = aspl(g, SamplePlan(fraction=1.0), workers=8)
        assert single == multi

    @DIRECTIONS
    @pytest.mark.parametrize("fraction", [0.3, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_sink_heavy_sample_equals_bruteforce(self, monkeypatch, alpha, min_column,
                                                 fraction, seed):
        g = utxo_digraph(seed)
        plan = SamplePlan(fraction, seed)
        among = sample_of(g, plan)
        out_deg = np.diff(g.fwd_indptr)
        assert (out_deg[sorted(among)] == 0).sum() > len(among) / 2  # mostly receive-only
        monkeypatch.setattr(metrics, "_PUSH_ALPHA", alpha)
        monkeypatch.setattr(metrics, "_MIN_COLUMN", min_column)
        assert aspl(g, plan) == oracles.exact_aspl(g, among=among)

    @DIRECTIONS
    def test_out_star_equals_bruteforce(self, monkeypatch, alpha, min_column):
        g = graph_from([(0, leaf) for leaf in range(1, 100)])
        monkeypatch.setattr(metrics, "_PUSH_ALPHA", alpha)
        monkeypatch.setattr(metrics, "_MIN_COLUMN", min_column)
        assert aspl(g, SamplePlan(fraction=1.0)) == oracles.exact_aspl(g) == (1.0, 99)

    @DIRECTIONS
    def test_one_source_among_sampled_sinks(self, monkeypatch, alpha, min_column):
        # the sample's one node with an out-arc heads an unsampled relay
        # chain that feeds every other sampled node, each a sink
        plan = SamplePlan(fraction=0.3, seed=5)
        picked = metrics._sample_nodes(60, plan).tolist()
        source, sinks = picked[0], picked[1:]
        relays = sorted(set(range(60)) - set(picked))
        arcs = [(source, relays[0])] + list(zip(relays, relays[1:]))
        arcs += [(relays[5 * i % len(relays)], t) for i, t in enumerate(sinks)]
        g = graph_from(arcs, 60)
        monkeypatch.setattr(metrics, "_PUSH_ALPHA", alpha)
        monkeypatch.setattr(metrics, "_MIN_COLUMN", min_column)
        calls = record_batches(monkeypatch)
        expected = oracles.exact_aspl(g, among=set(picked))
        assert expected[1] == len(sinks)
        assert aspl(g, plan) == expected
        assert [len(batch) for _, batch, _ in calls] == [1]

    def test_all_sink_sample_has_no_pair(self, monkeypatch):
        # every sampled node only receives, from unsampled nodes
        plan = SamplePlan(fraction=0.3, seed=5)
        picked = metrics._sample_nodes(60, plan).tolist()
        rest = sorted(set(range(60)) - set(picked))
        g = graph_from([(u, v) for u in rest for v in picked], 60)
        calls = record_batches(monkeypatch)
        with pytest.raises(ValueError, match="^no ordered pair in the sample is connected$"):
            aspl(g, plan)
        assert calls == []

    @pytest.mark.parametrize("seed", range(3))
    def test_batches_hold_only_sources_with_an_out_arc(self, monkeypatch, seed):
        g = utxo_digraph(seed, txs=600)
        calls = record_batches(monkeypatch)
        plan = SamplePlan(fraction=0.3, seed=seed)
        assert aspl(g, plan) == oracles.exact_aspl(g, among=sample_of(g, plan))
        csr, _, targets = calls[0]
        out_deg = np.diff(csr.fwd_indptr)
        assert (out_deg[targets] == 0).sum() > len(targets) / 2
        for _, batch, _ in calls:
            assert 0 < len(batch) <= metrics._BITS
            assert (out_deg[batch] > 0).all()  # no sink's lane is swept
        swept = np.concatenate([batch for _, batch, _ in calls])
        # every sampled node with an out-arc is swept, once
        assert sorted(swept.tolist()) == sorted(targets[out_deg[targets] > 0].tolist())

    def test_sample_too_small_rejected(self):
        g = graph_from([(0, 1), (1, 2), (2, 0)] + [(3, 4)])
        with pytest.raises(ValueError):
            aspl(g, SamplePlan(fraction=0.01))

    def test_tiny_component_rejected(self):
        g = graph_from([(0, 1)])
        # weak main has two nodes: fine
        value, _ = aspl(g, SamplePlan(fraction=1.0))
        assert value == 1.0
        # strong main is a singleton: no pairs to average
        with pytest.raises(ValueError):
            aspl(g, SamplePlan(fraction=1.0, component="strong_main"))

    def test_invalid_plan(self):
        with pytest.raises(ValueError):
            SamplePlan(fraction=0.0)
        with pytest.raises(ValueError):
            SamplePlan(fraction=1.5)
        with pytest.raises(ValueError):
            SamplePlan(component="both")

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            SamplePlan(seed=-1)

    @pytest.mark.parametrize("fraction, n, size", [
        (0.07, 100, 7),  # 0.07 * 100 is 7.000000000000001
        (0.07, 101, 8), (0.07, 1, 1), (0.1, 10, 1), (0.1, 11, 2), (0.01, 100, 1),
        (0.25, 4, 1), (0.5, 3, 2), (1.0, 7, 7), (0.3, 10, 3), (0.2, 5, 1)])
    def test_size_is_the_ceiling_of_the_decimal_product(self, fraction, n, size):
        assert SamplePlan(fraction).size(n) == size

    def test_size_matches_exact_decimal_arithmetic(self):
        from fractions import Fraction
        for fraction in (0.07, 0.01, 0.1, 0.3, 0.123, 0.5, 1.0):
            exact = Fraction(repr(fraction))
            plan = SamplePlan(fraction)
            assert all(plan.size(n) == -(-exact.numerator * n // exact.denominator)
                       for n in range(1, 20_000))

    def test_sampled_estimate_is_close_on_small_world(self):
        g = watts_strogatz(1500, 8, 0.1, seed=4)
        exact, _ = aspl(g, SamplePlan(fraction=1.0))
        sampled, _ = aspl(g, SamplePlan(fraction=0.25, seed=1))
        assert abs(sampled - exact) / exact < 0.05

    @pytest.mark.parametrize("component", ["weak_main", "strong_main"])
    @pytest.mark.parametrize("undirected", [False, True], ids=["directed", "undirected"])
    def test_prunes_through_the_mask_into_one_cut(self, monkeypatch, component, undirected):
        g = multi_component_digraph()
        plan = SamplePlan(0.5, seed=3, component=component, treat_as_undirected=undirected)
        g.labels(plan.kind)  # labels are kept on the graph: a report computes them first
        built, cuts = [], []
        init, cut = DirectedGraph.__init__, DirectedGraph.component

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counted_cut(self, *args, **kwargs):
            cuts.append(args)
            return cut(self, *args, **kwargs)

        monkeypatch.setattr(DirectedGraph, "__init__", counted_init)
        monkeypatch.setattr(DirectedGraph, "component", counted_cut)
        aspl(g, plan)
        # the pruned cut, and with --undirected the symmetric closure before it
        assert len(built) == 1 + undirected
        assert cuts == []

    def test_traced_peak_is_under_3_times_the_graph(self):
        # the prune runs on the graph itself, so its only copy is the pruned
        # cut, ranked in int32: 2.2x weak and 2.0x strong (int64 ranks: 2.7x
        # and 2.5x; a component copy first: 3.7x, 3.5x)
        g = random_digraph(100_000, 300_000, 1)
        arrays = sum(getattr(g, name).nbytes for name in
                     ("tails", "fwd_indptr", "fwd_indices", "rev_indptr", "rev_indices"))

        def peak_of(plan):
            tracemalloc.start()
            try:
                aspl(g, plan)
                return tracemalloc.get_traced_memory()[1] / arrays
            finally:
                tracemalloc.stop()

        assert peak_of(SamplePlan(0.01, seed=1)) < 2.3
        assert peak_of(SamplePlan(0.01, seed=1, component="strong_main")) < 2.3


class TestLoadCentrality:
    def test_star_center_is_one(self):
        g = bidirectional_star()
        loads = load_centrality(g, [0])
        assert loads == [1.0]

    def test_star_leaf_is_zero(self):
        g = bidirectional_star()
        assert load_centrality(g, [1]) == [0.0]

    def test_directed_three_cycle_is_half(self):
        loads = load_centrality(three_cycle(), [0, 1, 2])
        assert loads == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("node", [-2, 5])
    def test_id_outside_the_graph_is_rejected(self, node):
        # -2 must not wrap around to node 3, whose load is 0.25
        path = graph_from([(0, 1), (1, 2), (2, 3), (3, 4)])
        assert load_centrality(path, [3]) == [0.25]
        with pytest.raises(ValueError, match=rf"^node id {node} is outside \[0, 5\)$"):
            load_centrality(path, [3, node])

    def test_equal_split_on_diamond(self):
        # two shortest 0->3 paths; each interior node carries half
        g = graph_from([(0, 1), (0, 2), (1, 3), (2, 3)])
        norm = (4 - 1) * (4 - 2)
        loads = load_centrality(g, [1, 2])
        assert loads[0] == pytest.approx(0.5 / norm)
        assert loads[1] == pytest.approx(0.5 / norm)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_path_enumeration_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(5, 45)
        m = rng.randrange(n, min(4 * n, n * (n - 1)))
        g = random_digraph(n, m, seed)
        expected = oracles.load_centrality(g)
        got = load_centrality(g, list(range(n)))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_range_and_mass(self):
        g = random_digraph(30, 90, 77)
        loads = load_centrality(g, list(range(30)))
        assert all(0.0 <= x <= 1.0 for x in loads)
        comp_size = {}
        from ledgergraph.graph import weakly_connected_components
        for comp in weakly_connected_components(g):
            for v in comp.members:
                comp_size[v] = len(comp)
        mass = sum(
            x * (comp_size[v] - 1) * (comp_size[v] - 2) for v, x in enumerate(loads)
        )
        assert mass == pytest.approx(oracles.unnormalized_load_mass(g), abs=1e-6)

    def test_workers_bit_identical(self):
        g = random_digraph(600, 2000, 5)
        ids = list(range(0, 600, 7))
        assert load_centrality(g, ids, workers=1) == load_centrality(g, ids, workers=8)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pinned_values_on_multi_component_digraph(self, workers):
        # Exact floats from the per-source kernel. The 394-node main
        # component spans two 256-source chunks (95 non-sink sources in the
        # second, so its last 16-source batch is partial), 135 nodes are
        # sinks, and the graph has nine weak components; the digest covers
        # every node.
        g = multi_component_digraph()
        assert (g.node_count, g.arc_count) == (480, 910)
        loads = load_centrality(g, list(range(480)), workers=workers)
        picks = [0, 1, 2, 3, 4, 5, 6, 397, 398, 400, 458, 459, 476, 477, 479]
        assert [loads[v] for v in picks] == [
            0.08491181309718074, 0.08328944995433156, 0.046013130352104484,
            0.10704531587457276, 0.0, 0.09506632125858248, 0.058711870381815065,
            0.06896551724137931, 0.11616014026884863, 0.13822326125073056,
            0.017973856209150325, 0.14052287581699346, 0.0, 0.0, 0.0,
        ]
        digest = hashlib.sha256(np.array(loads, dtype=np.float64).tobytes()).hexdigest()
        assert digest == "4cab27ffd02803f152fd712250cb4ace79f1e945dd374db02d23b899bd8279ed"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batching_changes_no_bit(self, monkeypatch, workers):
        # Zipf hubs put most shortest paths, and many equal-length
        # alternatives, through a few nodes: dependency sums there are
        # long and fractional, so any change in their order shows
        sub, _ = ledger_day(1500, 3).component("weak")
        assert sub.n > 2 * metrics._BRANDES_CHUNK  # more than two chunks for the workers
        batched, sources, chunks, levels = metrics._betweenness(sub, workers)
        monkeypatch.setattr(metrics, "_BRANDES_BATCH", 1)
        single, *counters = metrics._betweenness(sub, workers)
        assert np.array_equal(batched, single)
        assert counters[:2] == [sources, chunks] and counters[2] > levels
        assert 0 < sources < sub.n  # some sinks were skipped

    def test_logs_one_line_per_measured_component(self, caplog):
        g = multi_component_digraph()
        sizes = sorted((c for c in np.bincount(g.labels("weak")).tolist() if c), reverse=True)
        with caplog.at_level("INFO", logger="ledgergraph"):
            load_centrality(g, list(range(g.node_count)))
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("load centrality: ")]
        assert len(lines) == len(sizes)
        assert sorted((int(line.split()[2].split("-")[0]) for line in lines),
                      reverse=True) == sizes
        assert "394-node component, 287 sources in 2 chunks" in "\n".join(lines)

    def test_logs_width_and_skipped_sources(self, caplog):
        # 1 and 3 lead only to the sink 2, so only 0 has a nonzero dependency
        g = graph_from([(0, 1), (1, 2), (3, 2)])
        with caplog.at_level("INFO", logger="ledgergraph"):
            assert load_centrality(g, [1]) == [1 / 6]
        assert ("load centrality: 4-node component, 3 sources in 1 chunks, 2 BFS levels, "
                "batches of 64 (0 at 64 after thin levels), 2 zero-dependency sources skipped"
                ) in caplog.text

    def test_thin_levels_widen_the_batch_and_change_no_bit(self, monkeypatch, caplog):
        # a 300-node cycle with 30 chords: its BFS levels hold a few nodes
        # each, so after the first batch of 16 the rest run 32 wide: 8 in
        # the 256-source chunk, 1 in the 44-source one
        rng = random.Random(5)
        arcs = [(v, (v + 1) % 300) for v in range(300)]
        arcs += [(a, b) for a, b in ((rng.randrange(300), rng.randrange(300))
                                     for _ in range(30)) if a != b]
        g = graph_from(arcs, 300)
        monkeypatch.setattr(metrics, "_BRANDES_STATE", 8 * 300 * 16)
        with caplog.at_level("INFO", logger="ledgergraph"):
            cb, _, _, levels = metrics._betweenness(g, 1)
        assert "batches of 16 (9 at 32 after thin levels)" in caplog.text
        monkeypatch.setattr(metrics, "_BRANDES_BATCH", 1)
        single, *counters = metrics._betweenness(g, 1)
        assert np.array_equal(cb, single) and counters[2] > levels

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_batch_width_gives_the_same_bits(self, monkeypatch, caplog, workers):
        # one source at a time, 24 (which does not divide a 256-source
        # chunk), the width the budget picks here, and the widest a word holds
        sub, _ = ledger_day(1500, 3).component("weak")

        def run(**constants):
            with monkeypatch.context() as patch:
                for name, value in constants.items():
                    patch.setattr(metrics, name, value)
                caplog.clear()
                with caplog.at_level("INFO", logger="ledgergraph"):
                    cb = metrics._betweenness(sub, workers)[0]
            return cb, int(re.search(r"batches of (\d+)", caplog.text).group(1))

        default, width = run()
        assert metrics._BRANDES_MIN_BATCH < width < metrics._BRANDES_BATCH
        for constants, expected in (({"_BRANDES_BATCH": 1}, 1), ({"_BRANDES_BATCH": 24}, 24),
                                    ({"_BRANDES_STATE": 1 << 40}, 64)):
            cb, used = run(**constants)
            assert used == expected and np.array_equal(cb, default)

    def test_peak_memory_on_a_day_component(self):
        # The batch width comes from a memory budget. The bound sits just
        # above what the 16-wide kernel with int32 distances and sorted
        # frontiers peaked at here (1.023 MiB); a sparse layout of that
        # kind at width 64, with a bool visited array and an int64 owner
        # array for its dedup, peaks at 4.0 MiB.
        sub, _ = ledger_day(2500, 1).component("weak")
        tracemalloc.start()
        try:
            metrics._betweenness(sub, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * 2**20

    def test_chunk_partials_are_added_as_they_arrive(self, monkeypatch):
        # 200 chunks of 16 sources on a 3,198-node component: keeping every
        # chunk's partial (25 KiB each) until the last chunk is done peaked
        # at 6.2 MiB here; adding each to the running total as it arrives
        # holds one at a time and peaked at 1.5 MiB
        sub, _ = ledger_day(8000, 1).component("weak")
        monkeypatch.setattr(metrics, "_BRANDES_CHUNK", 16)
        tracemalloc.start()
        try:
            chunks = metrics._betweenness(sub, 1)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunks == 200
        assert peak < 3 * 2**20

    def test_matches_networkx_betweenness_at_scale(self):
        # "Load" here is normalized shortest-path betweenness, so it must
        # agree with networkx's Brandes at sizes the oracles cannot reach.
        nx = pytest.importorskip("networkx")
        rng = random.Random(11)
        n = 1000
        arcs = []
        for v in range(1, n):  # randomly oriented tree: weakly connected
            u = rng.randrange(v)
            arcs.append((u, v) if rng.random() < 0.5 else (v, u))
        for _ in range(2 * n):  # extra arcs, 40% of them into 20 hubs
            u = rng.randrange(n)
            v = rng.randrange(20) if rng.random() < 0.4 else rng.randrange(n)
            if u != v:
                arcs.append((u, v))
        g = graph_from(arcs, n)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.arcs())
        expected = nx.betweenness_centrality(ref, normalized=True)
        got = load_centrality(g, list(range(n)))
        assert max(abs(got[v] - expected[v]) for v in range(n)) <= 1e-12


class TestMetricsReport:
    def test_fixed_json_fields(self):
        g = random_digraph(50, 160, 8)
        report = build_metrics_report(g, SamplePlan(fraction=1.0))
        doc = report.to_json_dict()
        assert set(doc) == {
            "graph_acc", "main_component_aspl", "main_component_acc",
            "component_sizes", "hub_load", "edge_reuse_ratio", "sample",
        }
        assert doc["component_sizes"]["nodes"] == 50
        assert 0.0 <= doc["graph_acc"] <= 1.0
        assert doc["main_component_aspl"] >= 1.0
        assert len(doc["hub_load"]) == 10
        json.dumps(doc)  # serializable

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            build_metrics_report(DirectedGraph(), SamplePlan())

    def test_worker_determinism_end_to_end(self):
        g = random_digraph(300, 900, 13)
        plan = SamplePlan(fraction=0.5, seed=3)
        doc1 = build_metrics_report(g, plan, workers=1).to_json_dict()
        doc8 = build_metrics_report(g, plan, workers=8).to_json_dict()
        assert json.dumps(doc1, sort_keys=True) == json.dumps(doc8, sort_keys=True)

    def test_main_component_acc_uses_component_nodes(self):
        # triangle plus isolated chain: graph ACC is diluted, component ACC is 1
        g = graph_from([(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0), (3, 4)])
        report = build_metrics_report(g, SamplePlan(fraction=1.0))
        assert report.main_component_acc == 1.0
        assert report.graph_acc == pytest.approx(3 / 5)

    @pytest.mark.parametrize("component", ["weak_main", "strong_main"])
    def test_each_component_kind_found_once(self, monkeypatch, component):
        calls = Counter()
        for name in ("_weak_labels", "_strong_labels", "induced_subgraph"):
            original = getattr(graph_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(graph_module, name, counted)
        plan = SamplePlan(fraction=1.0, component=component, treat_as_undirected=True)
        build_metrics_report(multi_component_digraph(), plan)
        assert calls == {"_weak_labels": 1, "_strong_labels": 1}

    @pytest.mark.parametrize("component", ["weak_main", "strong_main"])
    def test_each_measured_graph_lists_its_projection_once(self, monkeypatch, component):
        # degrees and clustering share one sort of the undirected edge keys
        # min*n + max; before, the real graph's keys were sorted twice, and
        # a strong plan sorted its main component's cut's keys as well
        sorted_keys, projections = [], []

        def counted(values):
            sorted_keys.append(values.copy())
            if sys._getframe(1).f_code.co_name == "undirected_edges":
                projections.append(sorted_keys[-1])
            return distinct(values)

        distinct = graph_module._distinct
        for module in (graph_module, metrics):  # wherever a caller looks it up
            monkeypatch.setattr(module, "_distinct", counted, raising=False)
        g = multi_component_digraph()
        plan = SamplePlan(fraction=1.0, component=component)
        build_metrics_report(g, plan)
        heads = g.fwd_indices.astype(np.int64)
        keys = np.minimum(g.tails, heads) * g.n + np.maximum(g.tails, heads)
        assert sum(np.array_equal(s, keys) for s in sorted_keys) == 1
        assert len(projections) == 1 and np.array_equal(projections[0], keys)

    def test_strong_plan(self):
        g = graph_from([(0, 1), (1, 0), (1, 2)])
        report = build_metrics_report(g, SamplePlan(fraction=1.0, component="strong_main"))
        assert report.component_sizes["strong_main"]["size"] == 2
        assert report.main_component_aspl == 1.0

    def test_a_report_keeps_no_component_cut_on_its_graph(self):
        # the graph keeps its component labels and undirected edge list
        # (0.87 of its arrays here) but no main component subgraph, which
        # would hold about as many bytes again
        g = random_digraph(100_000, 300_000, 1)
        arrays = sum(getattr(g, name).nbytes for name in
                     ("tails", "fwd_indptr", "fwd_indices", "rev_indptr", "rev_indices"))

        def held_after(plan):
            tracemalloc.start()
            try:
                report = build_metrics_report(g, plan, hub_count=0)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert report.sample_size > 0  # the report stays alive until measured
            return held / arrays

        assert held_after(SamplePlan(0.01, seed=1)) < 1.0
        # the labels and the edge list are there already: nothing more stays
        assert held_after(SamplePlan(0.01, seed=1, component="strong_main")) < 0.1
