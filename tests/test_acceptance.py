"""Acceptance suite.

One test per criterion; each reports `ACCEPTANCE <nn> <name>: PASS|FAIL`
(echoed live with -s, and always in the terminal summary). The
long-running criteria carry their stated wall-clock budgets as
assertions.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import record_criterion

from ledgergraph.cli import main as cli_main
from ledgergraph.fetch import BackoffPolicy, FetchError, FetchJob, RetryingClient, fetch_transactions
from ledgergraph.graph import DirectedGraph
from ledgergraph.metrics import SamplePlan, aspl, average_clustering, degree_distribution, load_centrality
from ledgergraph.nullmodel import RandomGraphSpec, erdos_renyi, ratios_and_sigma, small_world_compare
from ledgergraph.pajek import dumps as pajek_dumps, loads as pajek_loads
from ledgergraph.records import TransactionRecord, build_graph, map_to_edges

import oracles
from fixture_server import FixtureServer, flaky, interval_responder
from synth import graph_from, random_digraph, watts_strogatz


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        record_criterion(label, False)
        print(f"\nACCEPTANCE {label}: FAIL")
        raise
    record_criterion(label, True)
    print(f"\nACCEPTANCE {label}: PASS")


def er_corpus(count=50, max_n=200):
    """Seeded ER graphs for the oracle-equivalence criteria."""
    graphs = []
    for seed in range(count):
        rng = random.Random(seed * 977 + 11)
        n = rng.randrange(10, max_n + 1)
        m = rng.randrange(n, min(5 * n, n * (n - 1)) + 1)
        graphs.append(erdos_renyi(RandomGraphSpec(node_count=n, edge_count=m, seed=seed)))
    return graphs


def test_01_aspl_oracle_equivalence():
    with criterion("01 ASPL oracle equivalence"):
        t0 = time.perf_counter()
        for g in er_corpus():
            expected_value, expected_pairs = oracles.exact_aspl(g)
            value, pairs = aspl(g, SamplePlan(fraction=1.0))
            assert pairs == expected_pairs
            assert value == expected_value  # zero tolerance
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"criterion budget exceeded: {elapsed:.1f}s"


def test_02_clustering_oracle_equivalence():
    with criterion("02 clustering oracle equivalence"):
        for g in er_corpus():
            assert average_clustering(g) == pytest.approx(
                oracles.average_clustering(g), rel=1e-12, abs=1e-15
            )


def test_03_sampling_error_analogue():
    with criterion("03 sampled-ASPL accuracy at 10% and 25%"):
        t0 = time.perf_counter()
        trials = []
        for seed in range(10):
            trials.append(erdos_renyi(
                RandomGraphSpec(node_count=12_000, edge_count=36_000, seed=seed)))
        for seed in range(10):
            trials.append(watts_strogatz(10_000, 10, 0.1, seed=seed))
        ok10 = ok25 = 0
        for i, g in enumerate(trials):
            from ledgergraph.graph import main_component
            assert len(main_component(g, "weak")) >= 10_000
            exact, _ = aspl(g, SamplePlan(fraction=1.0))
            s10, _ = aspl(g, SamplePlan(fraction=0.10, seed=i))
            s25, _ = aspl(g, SamplePlan(fraction=0.25, seed=i))
            if abs(s10 - exact) / exact < 0.03:
                ok10 += 1
            if abs(s25 - exact) / exact < 0.015:
                ok25 += 1
        assert ok10 >= 18, f"10% sample within 3% in only {ok10}/20 trials"
        assert ok25 >= 18, f"25% sample within 1.5% in only {ok25}/20 trials"
        elapsed = time.perf_counter() - t0
        assert elapsed < 900, f"criterion budget exceeded: {elapsed:.1f}s"


def test_04_sigma_arithmetic_on_published_values():
    with criterion("04 sigma arithmetic on published one-day values"):
        acc_ratio, aspl_ratio, sigma, undefined = ratios_and_sigma(
            0.0516, 0.000089, 4.4116, 16.1623
        )
        assert undefined == {}
        assert 579 <= acc_ratio <= 581        # "almost 600 times greater"
        assert 0.272 <= aspl_ratio <= 0.274   # reported as 0.27-0.28
        assert sigma == pytest.approx(acc_ratio / aspl_ratio, rel=1e-12)


def test_05_small_world_discrimination():
    with criterion("05 small-world discrimination"):
        t0 = time.perf_counter()
        for seed in range(20):
            ws = watts_strogatz(2000, 10, 0.1, seed=seed)
            report = small_world_compare(ws, SamplePlan(fraction=0.25, seed=seed), seed=seed)
            assert report.sigma is not None and report.sigma > 5, (
                f"WS seed {seed}: sigma {report.sigma}"
            )
        for seed in range(20):
            er = erdos_renyi(RandomGraphSpec(node_count=2000, edge_count=10_000, seed=seed))
            report = small_world_compare(er, SamplePlan(fraction=0.5, seed=seed), seed=seed + 1000)
            assert report.sigma is not None and 0.5 <= report.sigma <= 2.0, (
                f"ER seed {seed}: sigma {report.sigma}"
            )
        elapsed = time.perf_counter() - t0
        assert elapsed < 600, f"criterion budget exceeded: {elapsed:.1f}s"


def test_06_cross_product_mapping():
    with criterion("06 UTXO cross-product mapping"):
        record = TransactionRecord(
            ledger="dogecoin",
            senders=tuple(f"in{i}" for i in range(167)),
            recipients=tuple(f"out{i}" for i in range(1141)),
            timestamp=0,
            tx_kind="transfer",
        )
        assert len(map_to_edges(record)) == 190_547
        small = TransactionRecord(
            ledger="bitcoin", senders=("a", "b"), recipients=("c", "d", "e"),
            timestamp=0, tx_kind="transfer",
        )
        assert len(map_to_edges(small)) == 6


def test_07_pajek_roundtrip():
    with criterion("07 Pajek roundtrip"):
        cases = [DirectedGraph(), DirectedGraph(1)]
        complete = graph_from([(a, b) for a in range(5) for b in range(5) if a != b])
        cases.append(complete)
        rng = random.Random(123)
        while len(cases) < 100:
            n = rng.randrange(0, 50)
            m = rng.randrange(0, n * (n - 1) + 1) if n > 1 else 0
            cases.append(random_digraph(n, m, rng.randrange(10_000),
                                        labels=rng.random() < 0.5))
        for g in cases:
            labeled = g.has_labels() and g.node_count > 0
            text = pajek_dumps(g, include_labels=labeled)
            back = pajek_loads(text)
            assert back.node_count == g.node_count
            assert sorted(back.arcs()) == sorted(g.arcs())
            if labeled:
                assert [back.address_of(i) for i in range(g.node_count)] == [
                    g.address_of(i) for i in range(g.node_count)
                ]
        golden = DirectedGraph(2, [0], [1], labels=["a", "b"])
        assert pajek_dumps(golden, include_labels=True) == \
            '*Vertices 2\n1 "a"\n2 "b"\n*Arcs\n1 2\n'


def test_08_er_generator_exactness():
    with criterion("08 ER generator exactness"):
        rng = random.Random(7)
        for draw in range(1000):
            n = rng.randrange(2, 40)
            m = rng.randrange(0, n * (n - 1) + 1)
            g = erdos_renyi(RandomGraphSpec(node_count=n, edge_count=m, seed=draw))
            arcs = list(g.arcs())
            assert len(arcs) == m
            assert len(set(arcs)) == m
            assert all(a != b for a, b in arcs)
        n, p = 1000, 0.01
        mean = p * n * (n - 1)
        sd = math.sqrt(n * (n - 1) * p * (1 - p))
        for seed in range(10):
            g = erdos_renyi(RandomGraphSpec(node_count=n, edge_probability=p, seed=seed))
            assert abs(g.arc_count - mean) < 4 * sd, (
                f"G(n,p) seed {seed}: {g.arc_count} arcs vs mean {mean:.0f}"
            )


def test_09_degree_accounting():
    with criterion("09 degree accounting"):
        corpus = [
            erdos_renyi(RandomGraphSpec(node_count=500, edge_count=2000, seed=s))
            for s in range(5)
        ]
        corpus.append(watts_strogatz(500, 6, 0.1, seed=1))
        rng = random.Random(5)
        records = [
            TransactionRecord(
                "dogecoin",
                tuple(f"a{rng.randrange(40)}" for _ in range(rng.randrange(1, 5))),
                tuple(f"a{rng.randrange(40)}" for _ in range(rng.randrange(1, 5))),
                timestamp=i, tx_kind="transfer",
            )
            for i in range(300)
        ]
        ingested, _ = build_graph(records)
        corpus.append(ingested)
        corpus.append(pajek_loads(pajek_dumps(ingested)))
        for g in corpus:
            hist = degree_distribution(g)
            assert sum(d * c for d, c in hist.in_degree.items()) == g.arc_count
            assert sum(d * c for d, c in hist.out_degree.items()) == g.arc_count
            for table in (hist.in_degree, hist.out_degree, hist.total_degree):
                assert sum(table.values()) == g.node_count


def test_10_determinism_under_parallelism(tmp_path):
    with criterion("10 worker-count determinism on a 50k-node fixture"):
        g = erdos_renyi(RandomGraphSpec(node_count=50_000, edge_count=30_000, seed=424))
        net = tmp_path / "fixture50k.net"
        net.write_text(pajek_dumps(g))
        outputs = {}
        for workers in ("1", "8"):
            rpt = tmp_path / f"analyze-w{workers}.json"
            cmp_path = tmp_path / f"compare-w{workers}.json"
            assert cli_main(["analyze", "--in", str(net), "--out", str(rpt),
                             "--sample", "0.1", "--seed", "5",
                             "--workers", workers]) == 0
            assert cli_main(["compare", "--in", str(net), "--out", str(cmp_path),
                             "--sample", "0.1", "--seed", "5",
                             "--workers", workers]) == 0
            outputs[workers] = (rpt.read_bytes(), cmp_path.read_bytes())
        assert outputs["1"][0] == outputs["8"][0], "analyze reports differ"
        assert outputs["1"][1] == outputs["8"][1], "compare reports differ"


def test_11_rate_limit_backoff():
    with criterion("11 rate-limit handling and backoff schedule"):
        txs = [
            {"hash": f"H{i}", "date": 1_598_918_400 + i,
             "tx": {"TransactionType": "Payment", "Account": f"r{i % 7}",
                    "Destination": f"r{(i + 3) % 11}"}}
            for i in range(230)
        ]
        pauses = []
        with FixtureServer(flaky(interval_responder(txs), fail_first=1)) as server:
            job = FetchJob(ledger="ripple", start=1_598_918_400,
                           end=1_598_918_400 + 86_400, source=server.url)
            result = fetch_transactions(job, sleep=pauses.append)
        assert len(result.records) == 230, "record set incomplete after 429"
        assert pauses == [5.0], f"expected one 5s pause, saw {pauses}"
        # consecutive 429s must follow the documented doubling-to-cap schedule
        pauses = []
        with FixtureServer(lambda path, q: (429, {})) as server:
            client = RetryingClient(BackoffPolicy(), sleep=pauses.append)
            with pytest.raises(FetchError):
                client.get_json(server.url + "/v2/transactions")
        assert pauses == [5.0, 10.0, 20.0, 40.0, 60.0, 60.0, 60.0, 60.0]


def test_12_load_centrality_oracles():
    with criterion("12 load centrality oracles"):
        star = graph_from([arc for leaf in range(1, 5) for arc in ((0, leaf), (leaf, 0))])
        assert load_centrality(star, [0]) == [1.0]
        cycle = graph_from([(0, 1), (1, 2), (2, 0)])
        assert load_centrality(cycle, [0, 1, 2]) == [0.5, 0.5, 0.5]
        rng = random.Random(3)
        for seed in range(6):
            n = rng.randrange(8, 51)
            m = rng.randrange(n, min(4 * n, n * (n - 1)))
            g = random_digraph(n, m, seed + 300)
            expected = oracles.load_centrality(g)
            got = load_centrality(g, list(range(n)))
            assert got == pytest.approx(expected, abs=1e-9)
