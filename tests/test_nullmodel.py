import json
import math
import random
import weakref
from contextlib import nullcontext

import pytest

from ledgergraph.graph import DirectedGraph
from ledgergraph.metrics import SamplePlan, build_metrics_report
from ledgergraph.nullmodel import (
    RandomGraphSpec,
    erdos_renyi,
    ratios_and_sigma,
    small_world_compare,
)

from synth import watts_strogatz


class TestSpecValidation:
    def test_requires_one_target(self):
        with pytest.raises(ValueError):
            RandomGraphSpec(node_count=5)
        with pytest.raises(ValueError):
            RandomGraphSpec(node_count=5, edge_count=3, edge_probability=0.5)

    def test_edge_count_bound(self):
        with pytest.raises(ValueError):
            RandomGraphSpec(node_count=3, edge_count=7)
        RandomGraphSpec(node_count=3, edge_count=6)  # saturation is fine

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            RandomGraphSpec(node_count=3, edge_probability=1.5)

    def test_negative_seed_is_named(self):
        for spec in ({"edge_count": 2}, {"edge_probability": 0.5}):
            with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
                RandomGraphSpec(node_count=3, seed=-1, **spec)


class TestGnm:
    def test_saturated_graph_is_complete(self):
        g = erdos_renyi(RandomGraphSpec(node_count=3, edge_count=6, seed=0))
        assert sorted(g.arcs()) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    def test_zero_edges(self):
        g = erdos_renyi(RandomGraphSpec(node_count=100, edge_count=0, seed=0))
        assert g.arc_count == 0
        assert g.node_count == 100

    @pytest.mark.parametrize("seed", range(25))
    def test_exact_count_no_loops_no_duplicates(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 60)
        m = rng.randrange(0, n * (n - 1) + 1)
        g = erdos_renyi(RandomGraphSpec(node_count=n, edge_count=m, seed=seed))
        arcs = list(g.arcs())
        assert len(arcs) == m == g.arc_count
        assert len(set(arcs)) == m
        assert all(a != b for a, b in arcs)

    def test_deterministic_per_seed(self):
        spec = RandomGraphSpec(node_count=40, edge_count=120, seed=9)
        a = sorted(erdos_renyi(spec).arcs())
        b = sorted(erdos_renyi(spec).arcs())
        assert a == b
        c = sorted(erdos_renyi(RandomGraphSpec(node_count=40, edge_count=120, seed=10)).arcs())
        assert a != c


class TestGnp:
    def test_concentration(self):
        # arc counts should hug the binomial mean
        n, p = 1000, 0.01
        mean = p * n * (n - 1)
        sd = math.sqrt(n * (n - 1) * p * (1 - p))
        for seed in range(6):
            g = erdos_renyi(RandomGraphSpec(node_count=n, edge_probability=p, seed=seed))
            assert abs(g.arc_count - mean) < 4 * sd
            arcs = list(g.arcs())
            assert len(set(arcs)) == len(arcs)
            assert all(a != b for a, b in arcs)

    def test_extremes(self):
        g = erdos_renyi(RandomGraphSpec(node_count=20, edge_probability=0.0, seed=0))
        assert g.arc_count == 0
        g = erdos_renyi(RandomGraphSpec(node_count=20, edge_probability=1.0, seed=0))
        assert g.arc_count == 20 * 19


class TestSigmaArithmetic:
    def test_published_ripple_day_values(self):
        acc_ratio, aspl_ratio, sigma, undefined = ratios_and_sigma(
            0.0516, 0.000089, 4.4116, 16.1623
        )
        assert undefined == {}
        assert round(acc_ratio) == 580
        assert round(aspl_ratio, 3) == 0.273
        assert sigma == pytest.approx(acc_ratio / aspl_ratio)

    def test_identity_holds(self):
        rng = random.Random(0)
        for _ in range(200):
            c, cr = rng.uniform(1e-6, 1), rng.uniform(1e-6, 1)
            l, lr = rng.uniform(1, 20), rng.uniform(1, 20)
            acc_ratio, aspl_ratio, sigma, _ = ratios_and_sigma(c, cr, l, lr)
            assert abs(sigma * aspl_ratio - acc_ratio) <= 1e-12 * abs(acc_ratio)

    def test_zero_random_acc_flagged(self):
        acc_ratio, aspl_ratio, sigma, undefined = ratios_and_sigma(0.5, 0.0, 3.0, 4.0)
        assert acc_ratio is None and sigma is None
        assert aspl_ratio == pytest.approx(0.75)
        assert "acc_ratio" in undefined and "sigma" in undefined


class TestCompare:
    def test_sizes_match(self):
        g = watts_strogatz(300, 6, 0.1, seed=2)
        report = small_world_compare(g, SamplePlan(fraction=1.0), seed=5)
        random_doc = report.random_metrics.to_json_dict()
        assert random_doc["component_sizes"]["nodes"] == g.node_count
        # arc counts match exactly: read them back out of the degree tables
        twin_hist = report.random_metrics.degree_histogram
        twin_arcs = sum(d * c for d, c in twin_hist.in_degree.items())
        assert twin_arcs == g.arc_count
        assert report.seeds == {"random_graph": 5, "sample": 0}

    def test_twin_gets_no_hub_load(self):
        g = watts_strogatz(300, 6, 0.1, seed=2)
        plan = SamplePlan(fraction=1.0)
        report = small_world_compare(g, plan, seed=5)
        assert len(report.real_metrics.hub_load) == 10
        twin_doc = report.random_metrics.to_json_dict()
        assert twin_doc["hub_load"] == []
        # everything else matches a full measurement of the same twin
        spec = RandomGraphSpec(node_count=g.node_count, edge_count=g.arc_count, seed=5)
        full_doc = build_metrics_report(erdos_renyi(spec), plan).to_json_dict()
        assert len(full_doc.pop("hub_load")) == 10
        twin_doc.pop("hub_load")
        assert json.dumps(twin_doc, sort_keys=True) == json.dumps(full_doc, sort_keys=True)

    def test_twin_is_drawn_by_erdos_renyi_once(self, monkeypatch):
        from ledgergraph import nullmodel
        specs, twins = [], []

        def spy(spec):
            specs.append(spec)
            twins.append(erdos_renyi(spec))
            return twins[-1]

        monkeypatch.setattr(nullmodel, "erdos_renyi", spy)
        g = watts_strogatz(200, 4, 0.1, seed=2)
        report = small_world_compare(g, SamplePlan(fraction=1.0), seed=5)
        assert specs == [RandomGraphSpec(node_count=200, edge_count=g.arc_count, seed=5)]
        # the drawn graph is the one measured, reuse ratio included
        assert report.random_metrics.edge_reuse_ratio == twins[0].edge_reuse_ratio() == 0.0
        assert report.random_metrics.graph_acc == build_metrics_report(
            twins[0], SamplePlan(fraction=1.0), hub_count=0).graph_acc

    def test_one_graph_is_measured_at_a_time(self, monkeypatch):
        # the twin is measured before the real graph has any analysis state,
        # and is gone before the real graph is measured
        from ledgergraph import nullmodel
        g = watts_strogatz(200, 4, 0.1, seed=2)
        measured = []

        def spy(graph, *args, **kwargs):
            if not measured:  # the twin
                assert graph is not g
                assert g._labels == {} and "undirected_edges" not in vars(g)
            else:
                assert graph is g and measured[0]() is None
            measured.append(weakref.ref(graph))
            return build_metrics_report(graph, *args, **kwargs)

        monkeypatch.setattr(nullmodel, "build_metrics_report", spy)
        plan = SamplePlan(fraction=0.5, seed=1)
        report = small_world_compare(g, plan, seed=5)
        assert len(measured) == 2
        # the same numbers as each graph measured on its own
        twin = erdos_renyi(RandomGraphSpec(node_count=200, edge_count=g.arc_count, seed=5))
        for got, graph, hubs in ((report.random_metrics, twin, 0), (report.real_metrics, g, 10)):
            assert got.to_json_dict() == build_metrics_report(graph, plan, hubs).to_json_dict()

    def test_a_real_graph_that_cannot_be_measured_fails_after_its_twin(self, monkeypatch):
        from ledgergraph import nullmodel
        stages = []
        monkeypatch.setattr(nullmodel, "_stage", lambda name: stages.append(name) or nullcontext())
        g = DirectedGraph(3, [0, 1], [1, 2])  # a path: its strong main component is one node
        with pytest.raises(ValueError, match="strong_main has 1 node"):
            small_world_compare(g, SamplePlan(fraction=1.0, component="strong_main"))
        assert stages == ["random generation", "random metrics", "real metrics"]

    def test_small_world_graph_scores_high(self):
        g = watts_strogatz(1000, 10, 0.1, seed=3)
        report = small_world_compare(g, SamplePlan(fraction=0.5, seed=1), seed=7)
        assert report.sigma is not None and report.sigma > 5

    def test_er_self_comparison_near_one(self):
        from ledgergraph.nullmodel import erdos_renyi as er
        g = er(RandomGraphSpec(node_count=1200, edge_count=6000, seed=31))
        report = small_world_compare(g, SamplePlan(fraction=0.5, seed=2), seed=8)
        assert report.sigma is not None
        assert 0.5 <= report.sigma <= 2.0

    def test_degenerate_random_twin_is_flagged_not_fatal(self):
        # 2 nodes, 1 arc: the random twin may be a single arc with C_r = 0
        g = DirectedGraph(2, [0], [1])
        report = small_world_compare(g, SamplePlan(fraction=1.0), seed=0)
        assert report.sigma is None
        assert "sigma" in report.undefined
        doc = report.to_json_dict()
        assert doc["sigma"] is None
        json.dumps(doc)
