"""Byte-level pins of `build`, `analyze` and `compare` outputs, of what
`read_pajek` returns for unusual documents, and of the G(n, m) draw; and
the check that `compare` writes what `analyze` writes for the real graph.

The digests were written against the set-based graph and analysis and must
survive any change to how the graph is stored or the metrics are
computed: every sum in the reports runs in a fixed order, so a faster
kernel that computes the same numbers writes the same bytes.
"""

import hashlib
import json
import random

import pytest

from ledgergraph.cli import main
from ledgergraph.graph import DirectedGraph
from ledgergraph.nullmodel import RandomGraphSpec, erdos_renyi
from ledgergraph.pajek import dumps as pajek_dumps
from ledgergraph.pajek import loads as pajek_loads
from ledgergraph.records import TransactionRecord, build_graph, read_dump_lenient, write_dump

from synth import graph_from, multi_component_digraph, watts_strogatz


def hub_heavy_digraph(n=900, seed=5) -> DirectedGraph:
    """Weakly connected random-tree digraph plus 2n arcs, 40% into 12 hubs."""
    rng = random.Random(seed)
    arcs = []
    for v in range(1, n):
        u = rng.randrange(v)
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    for _ in range(2 * n):
        u = rng.randrange(n)
        v = rng.randrange(12) if rng.random() < 0.4 else rng.randrange(n)
        if u != v:
            arcs.append((u, v))
    return graph_from(arcs, n)


GRAPHS = {
    "multi": multi_component_digraph,
    "hubs": hub_heavy_digraph,
    "ws": lambda: watts_strogatz(400, 6, 0.1, seed=2),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_graph(tmp_path, name):
    net = tmp_path / f"{name}.net"
    net.write_text(pajek_dumps(GRAPHS[name]()))
    return net


# degree histograms (in, out, total) depend only on the graph
MULTI_IN = "5361bbd3d8532bbecf136db2782a7bd93d7eec910ab472280ef951c3cf2a5a6a"
MULTI_OUT = "c48ef66f8f9703c0a3f1cea45a5d5e97dfe6b461620fe3da4af898fe515f0bac"
MULTI_TOTAL = "1c1c70224318e1da5a70e4ea215c88dae7f9a1e9ee7392337533c3a6ab9702c2"
HUBS_IN = "01917a1f22ce4048dbb076b510ef954f77fee402692f4eb45cc1ec8b78d0c1c6"
HUBS_OUT = "b6b2e70a1d9f9cefcce13aaf2bb7454512425a42a3abbc48c899a4ce7209cc58"
HUBS_TOTAL = "d4ac6846d86b52a7bbefdc26b7145e52b869c7cea57d48e7706472ff4a1ac4db"
WS_DEG = "3df46f7d92dc63b5615016605bcd69bfde061b8bf571e5315efbb2cb34ee273a"

ANALYZE_CASES = [
    ("multi", ["--sample", "1.0"], [
        "3d18fb22ba4fa404187c3e225a67df759eb252bc6154173b87d006371704a25b", MULTI_IN, MULTI_OUT,
        MULTI_TOTAL]),
    ("multi", ["--sample", "1.0", "--component", "strong"], [
        "04f359aca84d783b30239fbb230c07dd6c23a8acd496e0f5273650a8f33ec0ae", MULTI_IN, MULTI_OUT,
        MULTI_TOTAL]),
    ("multi", ["--sample", "1.0", "--undirected", "--hubs", "10"], [
        "d364e397adadb91250ca009465008cd0b5142ca48c7e1992e6c0ae6efe10b8b4", MULTI_IN, MULTI_OUT,
        MULTI_TOTAL]),
    ("hubs", ["--sample", "0.3", "--seed", "4", "--hubs", "10"], [
        "a7d84c3fbcf240d0b8f6d724830869932ff3e386323ad2eebeb7f94b019cb2f0", HUBS_IN, HUBS_OUT,
        HUBS_TOTAL]),
    ("hubs", ["--sample", "1.0", "--component", "strong", "--undirected", "--hubs", "3"], [
        "250614615e9a63d14516ab043083502a2a8873f780a4c66d1f7a87ae337e7b22", HUBS_IN, HUBS_OUT,
        HUBS_TOTAL]),
    ("ws", ["--sample", "0.5", "--seed", "1", "--hubs", "0"], [
        "94ae25f3503b2597785cf5b80a83f70639526aa3013927c9d4d927a377bc38aa", WS_DEG, WS_DEG,
        WS_DEG]),
]


@pytest.mark.parametrize("name,flags,expected", ANALYZE_CASES)
def test_analyze_outputs_pinned(tmp_path, name, flags, expected):
    net = _write_graph(tmp_path, name)
    out = tmp_path / "r.json"
    assert main(["analyze", "--in", str(net), "--out", str(out), *flags]) == 0
    got = [_sha(out)] + [_sha(tmp_path / f"r.degree_{kind}.txt")
                         for kind in ("in", "out", "total")]
    assert got == expected


@pytest.mark.parametrize("name,flags", [(name, flags) for name, flags, _ in ANALYZE_CASES])
def test_compare_writes_what_analyze_writes(tmp_path, name, flags):
    net = _write_graph(tmp_path, name)
    assert main(["analyze", "--in", str(net), "--out", str(tmp_path / "r.json"), *flags]) == 0
    assert main(["compare", "--in", str(net), "--out", str(tmp_path / "c.json"), *flags]) == 0
    for kind in ("in", "out", "total"):
        table = f"degree_{kind}.txt"
        assert (tmp_path / f"c.{table}").read_bytes() == (tmp_path / f"r.{table}").read_bytes()
    real = json.loads((tmp_path / "c.json").read_text())["real"]
    assert real == json.loads((tmp_path / "r.json").read_text())


COMPARE_CASES = [
    ("multi", ["--sample", "1.0", "--seed", "3"],
     "36e4cdc6c08d4114d38f45364d375970944c012ac51e8a76699d04fd5717c71f"),
    ("multi", ["--sample", "1.0", "--component", "strong", "--seed", "2"],
     "bf10512ffd6df3f8a179dfa23c01ebf0ddcb404ded3f4d62623ce67d6655dfd9"),
    ("hubs", ["--sample", "0.5", "--seed", "9", "--undirected"],
     "9f6ac82d5aed51c6a9d3f19664429cc3a8d237246fb317e46280274665972c06"),
    ("ws", ["--sample", "1.0", "--seed", "5", "--hubs", "10"],
     "68f7f536b901d3cd77459f40195ca63e4fb566e1b57e6c0461bfc86cf5b0ddfb"),
]


@pytest.mark.parametrize("name,flags,expected", COMPARE_CASES)
def test_compare_output_pinned(tmp_path, name, flags, expected):
    net = _write_graph(tmp_path, name)
    out = tmp_path / "c.json"
    assert main(["compare", "--in", str(net), "--out", str(out), *flags]) == 0
    assert _sha(out) == expected


GNM_CASES = [
    # (n, m, seed): saturated, collision-heavy and sparse draws
    ((3, 6, 1), "ef68772eec6b455c231e88fa7e3c9b439ce54d0ae386546c01770379f815633f"),
    ((40, 1500, 2), "360901a5e9d37b2c5cb2f4121e867d24ee23f3206527d2f5f1017180d1739574"),
    ((500, 2000, 3), "e8e19668b5d9d3945fb715dc037f789410b35f628bd825dac9a7977afbaa2b35"),
]


@pytest.mark.parametrize("case,expected", GNM_CASES)
def test_gnm_arcs_pinned(case, expected):
    n, m, seed = case
    spec = RandomGraphSpec(node_count=n, edge_count=m, seed=seed)
    arcs = sorted(erdos_renyi(spec).arcs())
    assert len(arcs) == m
    assert hashlib.sha256(repr(arcs).encode()).hexdigest() == expected


T0 = 1_598_918_400  # 2020-09-01T00:00:00Z


def mixed_dump(path, count, pool_size, seed, garbage=False):
    """Seeded dump that mixes every case `build` maps differently.

    UTXO cross products draw their sides with replacement from one pool,
    so addresses repeat within a side, and some records name a sender as
    a recipient too (a self-pair). Ripple records include non-payments,
    account-ledger pairs can be self-pairs, and about one record in ten
    is written twice.
    """
    rng = random.Random(seed)
    pool = [f"addr{i:04d}" for i in range(pool_size)]
    records = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.5:
            senders = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            recipients = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
            if rng.random() < 0.2:
                recipients += (senders[-1],)
            rec = TransactionRecord("bitcoin", senders, recipients, T0 + i, "transfer")
        elif roll < 0.8:
            kind = "Payment" if rng.random() < 0.7 else rng.choice(["OfferCreate", "TrustSet"])
            rec = TransactionRecord("ripple", (rng.choice(pool),), (rng.choice(pool),),
                                    T0 + i, kind)
        else:
            rec = TransactionRecord("ethereum", (rng.choice(pool),), (rng.choice(pool),),
                                    T0 + i, "call")
        records.append(rec)
        if rng.random() < 0.1:
            records.append(rec)
    with open(path, "w") as fh:
        write_dump(records, fh)
        if garbage:
            fh.write("{truncated\n")


BUILD_CASES = [
    # (count, pool, seed, garbage): sha256 of the Pajek file, the labeled
    # Pajek file, and the stats sidecar
    ((300, 40, 1, False), [
        "ab932b9bde57d5d80ac4c9123bd67a2e4a12eb1426fdc5db6e36ec37f994a180",
        "841110d604ea64d9e3e8b7eaecbb343c7a34d5cf97e0f0814858b054c4b82ae8",
        "fc9c036c0b4a68c2c256271e0d139ae52d1487e4c3cbdc2e17f19f03033099bd"]),
    ((2000, 400, 2, True), [
        "f4f81685728a50920782dddd34a5c230f2b6fe91d99b4523bfb64e290d886b50",
        "e765b4e5c6d08ec7f08fb32d3e8a05e810bb563ecb26a0cfcc348bbd8f371215",
        "102f8e76f4fe7f6a1efd9dbef9ba89eb9cfb72694ce86755ad4fe2e8bf769b8e"]),
]


@pytest.mark.parametrize("case,expected", BUILD_CASES)
def test_build_outputs_pinned(tmp_path, case, expected):
    count, pool, seed, garbage = case
    dump = tmp_path / "dump.ndjson"
    mixed_dump(dump, count, pool, seed, garbage)
    got = []
    for name, flags in (("bare.net", []), ("labeled.net", ["--labels"])):
        net = tmp_path / name
        assert main(["build", "--in", str(dump), "--out", str(net), *flags]) == 0
        got.append(_sha(net))
    stats = [(tmp_path / f"{name}.stats.json").read_bytes() for name in ("bare.net", "labeled.net")]
    assert stats[0] == stats[1]
    got.append(hashlib.sha256(stats[0]).hexdigest())
    assert got == expected


@pytest.mark.parametrize("case", [case for case, _ in BUILD_CASES])
@pytest.mark.parametrize("labels", [False, True])
def test_build_writes_what_build_graph_builds(tmp_path, case, labels):
    dump, net = tmp_path / "dump.ndjson", tmp_path / "g.net"
    mixed_dump(dump, *case)
    assert main(["build", "--in", str(dump), "--out", str(net),
                 *(["--labels"] if labels else [])]) == 0
    with open(dump) as fh:
        graph, stats = build_graph(*read_dump_lenient(fh))
    assert net.read_text() == pajek_dumps(graph, include_labels=labels)
    written = (tmp_path / "g.net.stats.json").read_text()
    assert written == json.dumps(stats.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert graph.edge_reuse_ratio() == json.loads(written)["edge_reuse_ratio"]
    assert graph.self_loop_count == stats.self_loops


NO3, NO4 = [None] * 3, [None] * 4
READ_CASES = [
    # (document, node_count, sorted arcs, labels, edge_reuse_ratio, self_loop_count)
    ("*Vertices 3\r\n*Arcs\r\n1 2\r\n2 3\r\n3 1\r\n",
     3, [(0, 1), (1, 2), (2, 0)], NO3, 0.0, 0),
    ('*Vertices 2\r\n1 "a"\r\n2 "b"\r\n*Arcs\r\n1 2\r\n2 1\r\n',
     2, [(0, 1), (1, 0)], ["a", "b"], 0.0, 0),
    ("*Vertices 4\n\n*Arcs\n\n1 2\n   \n2 3\n\t\n3 4\n\n",
     4, [(0, 1), (1, 2), (2, 3)], NO4, 0.0, 0),
    ("*Vertices 3\n*edges\n1 2\n2 3\n",
     3, [(0, 1), (1, 0), (1, 2), (2, 1)], NO3, 0.0, 0),
    ("*Vertices 4\n*Arcs\n1 2\n*Edges\n2 3\n3 4\n1 2\n",
     4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)], NO4, 0.14285714285714285, 0),
    ("*Vertices 3\n*Arcs\n1 2\n1 2\n2 3\n1 2\n3 1\n",
     3, [(0, 1), (1, 2), (2, 0)], NO3, 0.4, 0),
    ("*Vertices 3\n*Arcs\n3 3\n1 2\n3 3\n2 1\n",
     3, [(0, 1), (1, 0)], NO3, 0.0, 2),
    ("*Vertices 3\n*Edges\n2 2\n1 2\n2 1\n",
     3, [(0, 1), (1, 0)], NO3, 0.5, 1),
    ('*Vertices 3\n2   "b c"\n1 a\n3 "x"\n*Arcs\n2 1\n3 3\n',
     3, [(1, 0)], ["a", "b c", "x"], 0.0, 1),
    ("*Vertices 3\n*Arcs\n  1   2  \n2 3\n",
     3, [(0, 1), (1, 2)], NO3, 0.0, 0),
    ("*Vertices 2\n*Arcs\n1 2", 2, [(0, 1)], [None, None], 0.0, 0),
    ("*vertices 2\n*arcs\n2 1\n", 2, [(1, 0)], [None, None], 0.0, 0),
]


@pytest.mark.parametrize("text,nodes,arcs,labels,reuse,loops", READ_CASES)
def test_read_pajek_pinned(text, nodes, arcs, labels, reuse, loops):
    g = pajek_loads(text)
    got = (g.node_count, sorted(g.arcs()), [g.address_of(v) for v in range(g.node_count)],
           g.edge_reuse_ratio(), g.self_loop_count)
    assert got == (nodes, arcs, labels, reuse, loops)
