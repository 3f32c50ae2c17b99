import argparse
import json
import os
import re
import subprocess
import sys

import pytest

import ledgergraph
from ledgergraph.cli import build_arg_parser, main
from ledgergraph.pajek import dumps as pajek_dumps
from ledgergraph.records import TransactionRecord, read_dump, write_dump

from fixture_server import FixtureServer, flaky, interval_responder
from synth import random_digraph, watts_strogatz

T0 = 1_598_918_400  # 2020-09-01T00:00:00Z
DAY = 86_400


def write_fixture_dump(path, count=60, seed=3):
    import random
    rng = random.Random(seed)
    records = [
        TransactionRecord("ripple", (f"r{rng.randrange(15)}",),
                          (f"r{rng.randrange(15)}",), T0 + i, "Payment")
        for i in range(count)
    ]
    with open(path, "w") as fh:
        write_dump(records, fh)
    return records


def test_readme_documents_every_subcommand_option():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    parser = build_arg_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [
        f"{name} {option}"
        for name, sub in commands.choices.items()
        for action in sub._actions if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--") and not re.search(re.escape(option) + r"(?![\w-])", text)
    ]
    assert missing == []


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing required flags
    assert exc.value.code == 1


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_stage_logs_one_line_per_completed_block(caplog):
    with caplog.at_level("INFO", logger="ledgergraph"):
        with ledgergraph._stage("first"):
            pass
        with pytest.raises(KeyError):
            with ledgergraph._stage("failed"):
                raise KeyError("x")
        with ledgergraph._stage("second"):
            pass
    lines = [r.getMessage() for r in caplog.records if r.name == "ledgergraph"]
    assert [line.split(" took ")[0] for line in lines] == ["first", "second"]
    assert all(re.fullmatch(r"\w+ took \d+\.\d\ds", line) for line in lines)


def test_compare_logs_each_stage_once(tmp_path, caplog):
    net, out = tmp_path / "g.net", tmp_path / "r.json"
    net.write_text(pajek_dumps(random_digraph(60, 200, 4)))
    with caplog.at_level("INFO", logger="ledgergraph"):
        assert main(["compare", "--in", str(net), "--out", str(out), "--hubs", "0"]) == 0
    stages = [r.getMessage().split(" took ")[0] for r in caplog.records
              if " took " in r.getMessage()]
    # the twin is drawn and measured first, so it is gone before the real graph is measured
    assert stages == ["graph load", "random generation", "random metrics", "real metrics",
                      "metrics"]


def test_analyze_does_not_load_nullmodel(tmp_path):
    # `analyze` and `compare` share one body; only `compare` needs the twin
    net = tmp_path / "g.net"
    net.write_text(pajek_dumps(random_digraph(60, 200, 4)))
    code = ("import sys; from ledgergraph.cli import main; code = main(sys.argv[1:]); "
            "assert 'ledgergraph.nullmodel' not in sys.modules, 'nullmodel imported'; "
            "sys.exit(code)")
    src = os.path.dirname(os.path.dirname(ledgergraph.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code, "analyze", "--in", str(net),
                    "--out", str(tmp_path / "r.json")], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def test_build_analyze_compare_report(tmp_path, capsys):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump)
    net = tmp_path / "graph.net"
    assert main(["build", "--in", str(dump), "--out", str(net)]) == 0
    assert net.exists()
    stats = json.loads((tmp_path / "graph.net.stats.json").read_text())
    assert stats["transactions"] == 60
    assert stats["unique_arcs"] > 0

    report = tmp_path / "report.json"
    assert main(["analyze", "--in", str(net), "--out", str(report), "--sample", "1.0",
                 "--stats", str(tmp_path / "graph.net.stats.json")]) == 0
    doc = json.loads(report.read_text())
    assert doc["edge_reuse_ratio"] == stats["edge_reuse_ratio"]
    for suffix in (".degree_in.txt", ".degree_out.txt", ".degree_total.txt"):
        assert (tmp_path / ("report" + suffix)).exists()

    cmp_path = tmp_path / "cmp.json"
    assert main(["compare", "--in", str(net), "--out", str(cmp_path), "--sample", "1.0",
                 "--seed", "7"]) == 0
    cmp_doc = json.loads(cmp_path.read_text())
    assert "timings" not in cmp_doc
    assert cmp_doc["real"]["graph_acc"] == doc["graph_acc"]

    assert main(["report", "--in", str(cmp_path)]) == 0
    out = capsys.readouterr().out
    assert "sigma" in out


def test_analyze_triangle_pajek(tmp_path):
    net = tmp_path / "triangle.net"
    net.write_text("*Vertices 3\n*Arcs\n1 2\n2 3\n3 1\n")
    out = tmp_path / "r.json"
    assert main(["analyze", "--in", str(net), "--out", str(out), "--sample", "1.0"]) == 0
    doc = json.loads(out.read_text())
    assert doc["graph_acc"] == 1.0
    assert doc["main_component_aspl"] == 1.5


def test_build_is_deterministic(tmp_path):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump)
    a, b = tmp_path / "a.net", tmp_path / "b.net"
    main(["build", "--in", str(dump), "--out", str(a)])
    main(["build", "--in", str(dump), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_build_skips_malformed_line(tmp_path, capsys):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump, count=10)
    with open(dump, "a") as fh:
        fh.write("not json at all\n")
    net = tmp_path / "graph.net"
    assert main(["build", "--in", str(dump), "--out", str(net)]) == 0
    assert "1 skipped" in capsys.readouterr().out
    stats = json.loads((tmp_path / "graph.net.stats.json").read_text())
    assert stats["skipped_records"] == 1


def test_build_hard_schema_error_exits_three(tmp_path):
    dump = tmp_path / "dump.ndjson"
    dump.write_text('{"ledger": "ripple", "senders": [], "recipients": ["x"], '
                    '"timestamp": 0, "tx_kind": "Payment"}\n')
    assert main(["build", "--in", str(dump), "--out", str(tmp_path / "g.net")]) == 3


def test_build_late_schema_error_leaves_no_output(tmp_path, capsys):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump, count=4999)
    with open(dump, "a") as fh:
        fh.write('{"ledger": "ripple", "senders": ["a"], "recipients": ["b"], '
                 '"timestamp": "noon", "tx_kind": "Payment"}\n')
    net = tmp_path / "g.net"
    assert main(["build", "--in", str(dump), "--out", str(net)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ledgergraph build: line 5000: timestamp must be a number")
    assert not net.exists() and not (tmp_path / "g.net.stats.json").exists()


def test_analyze_empty_main_component_exits_three(tmp_path, capsys):
    net = tmp_path / "lonely.net"
    net.write_text("*Vertices 1\n*Arcs\n")
    code = main(["analyze", "--in", str(net), "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert "ledgergraph analyze" in capsys.readouterr().err


def test_analyze_bad_pajek_exits_three(tmp_path):
    net = tmp_path / "bad.net"
    net.write_text("*Vertices 2\n*Arcs\n1 99\n")
    assert main(["analyze", "--in", str(net), "--out", str(tmp_path / "r.json")]) == 3


def test_analyze_vertex_count_past_int32_ids_exits_three(tmp_path, capsys):
    # before, numpy failed to allocate 72.8 TiB and the traceback exited 1
    net = tmp_path / "huge.net"
    net.write_text("*Vertices 10000000000000\n*Arcs\n1 2\n")
    assert main(["analyze", "--in", str(net), "--out", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err == (
        "ledgergraph analyze: node count must be in [0, 2**31), got 10000000000000\n")


def test_analyze_bad_sample_fraction_is_usage_error(tmp_path):
    net = tmp_path / "g.net"
    net.write_text("*Vertices 2\n*Arcs\n1 2\n")
    code = main(["analyze", "--in", str(net), "--out", str(tmp_path / "r.json"),
                 "--sample", "1.5"])
    assert code == 1


@pytest.mark.parametrize("command", ["analyze", "compare"])
@pytest.mark.parametrize("flag", [["--hubs", "-1"], ["--workers", "0"]])
def test_negative_hubs_or_no_workers_is_usage_error(tmp_path, capsys, command, flag):
    net = tmp_path / "g.net"
    net.write_text("*Vertices 3\n*Arcs\n1 2\n2 3\n3 1\n")
    out = tmp_path / "r.json"
    assert main([command, "--in", str(net), "--out", str(out), *flag]) == 1
    assert f"ledgergraph {command}: {flag[0]} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "compare"])
@pytest.mark.parametrize("sample", ["0.5", "1.0"])
def test_negative_seed_is_usage_error_before_the_graph_is_read(tmp_path, capsys, command,
                                                                sample):
    out = tmp_path / "r.json"
    # the graph file does not exist: reading it would be a data error (3)
    assert main([command, "--in", str(tmp_path / "missing.net"), "--out", str(out),
                 "--sample", sample, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == f"ledgergraph {command}: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_build_label_pajek_cannot_quote_is_data_error(tmp_path, capsys):
    dump = tmp_path / "dump.ndjson"
    records = [TransactionRecord("ripple", ("r1",), ('r"2',), T0, "Payment")]
    with open(dump, "w") as fh:
        write_dump(records, fh)
    net = tmp_path / "g.net"
    assert main(["build", "--in", str(dump), "--out", str(net), "--labels"]) == 3
    assert "ledgergraph build: " in capsys.readouterr().err
    assert not net.exists()
    assert not (tmp_path / "g.net.stats.json").exists()


def test_worker_determinism_byte_identical(tmp_path):
    g = watts_strogatz(600, 6, 0.1, seed=9)
    net = tmp_path / "ws.net"
    net.write_text(pajek_dumps(g))
    outs = {}
    for workers in ("1", "8"):
        rpt = tmp_path / f"r{workers}.json"
        cmp_path = tmp_path / f"c{workers}.json"
        assert main(["analyze", "--in", str(net), "--out", str(rpt),
                     "--sample", "0.5", "--seed", "3", "--workers", workers]) == 0
        assert main(["compare", "--in", str(net), "--out", str(cmp_path),
                     "--sample", "0.5", "--seed", "3", "--workers", workers]) == 0
        outs[workers] = (rpt.read_bytes(), cmp_path.read_bytes())
    assert outs["1"] == outs["8"]


@pytest.mark.parametrize("args", [
    ["compare"], ["compare", "--undirected"], ["compare", "--component", "strong"], ["analyze"],
], ids=" ".join)
def test_analysis_never_imports_numpy_ma(tmp_path, args):
    # numpy.ma costs 8 ms to import; plain np.unique and np.union1d load it
    net = tmp_path / "g.net"
    net.write_text(pajek_dumps(random_digraph(300, 900, 4)))
    code = ("import sys; from ledgergraph.cli import main; code = main(sys.argv[1:]); "
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'; sys.exit(code)")
    src = os.path.dirname(os.path.dirname(ledgergraph.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code, *args, "--in", str(net),
                    "--out", str(tmp_path / "r.json"), "--sample", "0.3"], env=env, check=True)


_ENTRY_CHILD = """
import os
from ledgergraph.cli import entry
try:
    entry()
except SystemExit as exc:
    assert exc.code == 0, exc.code
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(os.environ.get("OPENBLAS_NUM_THREADS"), tasks)
"""


def _run_entry_child(tmp_path, preset):
    """Run `entry()` on `compare` in a child whose OPENBLAS_NUM_THREADS is
    `preset` (None: unset). Returns the child's value after the command and
    its thread count ("None" without /proc), as printed."""
    net = tmp_path / "g.net"
    net.write_text(pajek_dumps(random_digraph(300, 900, 4)))
    src = os.path.dirname(os.path.dirname(ledgergraph.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", _ENTRY_CHILD, "compare", "--in", str(net),
                           "--out", str(tmp_path / "r.json"), "--sample", "0.3"],
                          env=env, check=True, capture_output=True, text=True)
    return done.stdout.split()[-2:]


def test_entry_pins_openblas_to_one_thread(tmp_path):
    value, tasks = _run_entry_child(tmp_path, None)
    assert value == "1"
    if tasks == "None":
        pytest.skip("no /proc/self/task to count threads in")
    assert tasks == "1"  # numpy was imported and started no BLAS thread


def test_entry_keeps_a_preset_openblas_thread_count(tmp_path):
    assert _run_entry_child(tmp_path, "3")[0] == "3"


def test_main_in_process_leaves_environment_untouched(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    net = tmp_path / "g.net"
    net.write_text(pajek_dumps(random_digraph(60, 180, 4)))
    before = dict(os.environ)
    assert main(["compare", "--in", str(net), "--out", str(tmp_path / "r.json")]) == 0
    assert dict(os.environ) == before


def test_compare_flags_small_world_fixture(tmp_path):
    g = watts_strogatz(800, 10, 0.1, seed=12)
    net = tmp_path / "ws.net"
    net.write_text(pajek_dumps(g))
    out = tmp_path / "cmp.json"
    assert main(["compare", "--in", str(net), "--out", str(out),
                 "--sample", "0.5", "--seed", "2"]) == 0
    doc = json.loads(out.read_text())
    assert doc["sigma"] > 5


def test_compare_run_twice_is_identical(tmp_path):
    g = watts_strogatz(200, 4, 0.2, seed=5)
    net = tmp_path / "ws.net"
    net.write_text(pajek_dumps(g))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["compare", "--in", str(net), "--out", str(a), "--sample", "0.25", "--seed", "7"])
    main(["compare", "--in", str(net), "--out", str(b), "--sample", "0.25", "--seed", "7"])
    assert a.read_bytes() == b.read_bytes()


def test_fetch_from_fixture_server(tmp_path):
    txs = [
        {"hash": f"H{i}", "date": T0 + i,
         "tx": {"TransactionType": "Payment", "Account": f"r{i % 5}",
                "Destination": f"r{(i + 1) % 5}"}}
        for i in range(130)
    ]
    out = tmp_path / "dump.ndjson"
    with FixtureServer(interval_responder(txs)) as server:
        code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01",
                     "--to", "2020-09-02", "--workers", "4",
                     "--out", str(out), "--source", server.url])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 130
    stamps = [json.loads(line)["timestamp"] for line in lines]
    assert stamps == sorted(stamps)


@pytest.mark.parametrize("scheme", ["HTTP", "Http"])
def test_fetch_url_scheme_in_any_case(tmp_path, scheme):
    # a URL scheme is case-insensitive (RFC 3986 §3.1): not a dump file name
    txs = [{"hash": f"H{i}", "date": T0 + i,
            "tx": {"TransactionType": "Payment", "Account": "rA", "Destination": "rB"}}
           for i in range(3)]
    out = tmp_path / "dump.ndjson"
    with FixtureServer(interval_responder(txs)) as server:
        code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01",
                     "--to", "2020-09-02", "--out", str(out),
                     "--source", server.url.replace("http", scheme, 1)])
        assert len(server.requests) == 1
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_fetch_empty_interval_writes_empty_dump(tmp_path, capsys):
    out = tmp_path / "dump.ndjson"
    with FixtureServer(interval_responder([])) as server:
        code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01",
                     "--to", "2020-09-02", "--out", str(out), "--source", server.url])
    assert code == 0
    assert out.read_text() == ""
    assert capsys.readouterr().out.strip() == "0"


def test_fetch_unreachable_endpoint_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LEDGERGRAPH_BACKOFF_INITIAL", "0.01")
    monkeypatch.setenv("LEDGERGRAPH_MAX_RETRIES", "1")
    out = tmp_path / "dump.ndjson"
    code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01",
                 "--to", "2020-09-02", "--out", str(out),
                 "--source", "http://127.0.0.1:9"])  # discard port: refused
    assert code == 2
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["source", "env"])
@pytest.mark.parametrize("url", ["http://127.0.0.1:99999", "http://127.0.0.1:abc",
                                 "http://127.0.0.1:0", "http:///x", "http://"],
                         ids=["port-out-of-range", "port-not-a-number", "port-zero", "no-host",
                              "empty"])
def test_fetch_malformed_explorer_url_is_usage_error(tmp_path, capsys, monkeypatch, url, route):
    # before, each one was retried as a connection fault and exited 2
    monkeypatch.setenv("LEDGERGRAPH_BACKOFF_INITIAL", "0")
    monkeypatch.setenv("LEDGERGRAPH_BACKOFF_CAP", "0")
    requests = []

    def refused(self, url, params):
        requests.append(url)
        raise ConnectionRefusedError(url)

    monkeypatch.setattr("ledgergraph.fetch.RetryingClient._get", refused)
    out = tmp_path / "dump.ndjson"
    argv = ["fetch", "--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02",
            "--out", str(out)]
    if route == "source":
        argv += ["--source", url]
    else:
        monkeypatch.setenv("LEDGERGRAPH_RIPPLE_URL", url)
    code = main(argv)
    err = capsys.readouterr().err
    assert (code, requests) == (1, []) and not out.exists()
    assert err.startswith(f"ledgergraph fetch: explorer URL {url!r}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("route", ["source", "env", "config"])
@pytest.mark.parametrize("suffix", ["/?net=main", "#frag"], ids=["query", "fragment"])
def test_fetch_explorer_url_with_query_or_fragment_is_usage_error(tmp_path, capsys,
                                                                  monkeypatch, suffix, route):
    # the endpoint path would land in the query or fragment: a GET of `/`
    out = tmp_path / "dump.ndjson"
    argv = ["fetch", "--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02",
            "--out", str(out)]
    monkeypatch.delenv("LEDGERGRAPH_RIPPLE_URL", raising=False)
    with FixtureServer(interval_responder([])) as server:
        url = server.url + suffix
        if route == "source":
            argv += ["--source", url]
        elif route == "env":
            monkeypatch.setenv("LEDGERGRAPH_RIPPLE_URL", url)
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"ripple": {"url": url}}))
            argv += ["--config", str(config)]
        code = main(argv)
    err = capsys.readouterr().err
    assert (code, server.requests) == (1, []) and not out.exists()
    assert err == f"ledgergraph fetch: explorer URL {url!r} carries a query or a fragment\n"


def test_fetch_malformed_explorer_response_exits_two(tmp_path, capsys):
    out = tmp_path / "dump.ndjson"
    with FixtureServer(lambda path, query: (200, {})) as server:  # no "height"
        code = main(["fetch", "--ledger", "ethereum", "--from", "2020-09-01",
                     "--to", "2020-09-02", "--out", str(out), "--source", server.url])
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("ledgergraph fetch: block search failed\n")
    assert f"  failed: ethereum [{T0}, {T0 + 86_400}) block search: " in err and "'height'" in err


def test_fetch_env_endpoint_and_rate_limit(tmp_path, monkeypatch):
    txs = [{"hash": "H1", "date": T0 + 1,
            "tx": {"TransactionType": "Payment", "Account": "rA", "Destination": "rB"}}]
    monkeypatch.setenv("LEDGERGRAPH_BACKOFF_INITIAL", "0.01")
    out = tmp_path / "dump.ndjson"
    with FixtureServer(flaky(interval_responder(txs), fail_first=1)) as server:
        monkeypatch.setenv("LEDGERGRAPH_RIPPLE_URL", server.url)
        code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01",
                     "--to", "2020-09-02", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1


def test_fetch_config_file_endpoint(tmp_path):
    txs = [{"hash": "H1", "date": T0 + 1,
            "tx": {"TransactionType": "Payment", "Account": "rA", "Destination": "rB"}}]
    out = tmp_path / "dump.ndjson"
    cfg = tmp_path / "cfg.json"
    with FixtureServer(interval_responder(txs)) as server:
        cfg.write_text(json.dumps({"ripple": {"url": server.url}}))
        code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01",
                     "--to", "2020-09-02", "--out", str(out), "--config", str(cfg)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1


@pytest.mark.parametrize("config", [None, "{not json", "[1]", '{"ripple": 5}',
                                    '{"ripple": {"url": 5}}'],
                         ids=["missing", "not-json", "not-an-object", "entry-not-an-object",
                              "url-not-a-string"])
def test_fetch_bad_config_is_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    if config is not None:
        cfg.write_text(config)
    code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02",
                 "--out", str(tmp_path / "w.ndjson"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1 and "Traceback" not in err
    assert err.startswith("ledgergraph fetch: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "w.ndjson").exists()


def test_fetch_local_file_rewindow(tmp_path, capsys):
    dump = tmp_path / "all.ndjson"
    write_fixture_dump(dump, count=20)
    out = tmp_path / "window.ndjson"
    code = main(["fetch", "--ledger", "ripple",
                 "--from", "2020-09-01T00:00:05", "--to", "2020-09-01T00:00:10",
                 "--out", str(out), "--in", str(dump)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "5"


def test_fetch_local_file_keeps_only_the_ledger(tmp_path, capsys, caplog):
    dump = tmp_path / "mixed.ndjson"
    ripple = write_fixture_dump(dump, count=6)
    with open(dump, "a") as fh:
        write_dump([TransactionRecord("bitcoin", ("1a",), ("1b",), T0 + 3)], fh)
    out = tmp_path / "window.ndjson"
    with caplog.at_level("INFO", logger="ledgergraph"):
        code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02",
                     "--out", str(out), "--in", str(dump)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "6"
    assert "1 other-ledger record(s) left out" in caplog.messages
    with open(out) as fh:
        assert list(read_dump(fh)) == ripple


def test_fetch_source_and_in_together_is_usage_error(tmp_path, capsys):
    dump = tmp_path / "all.ndjson"
    write_fixture_dump(dump, count=5)
    out = tmp_path / "window.ndjson"
    with pytest.raises(SystemExit) as exc:
        main(["fetch", "--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02",
              "--out", str(out), "--source", str(dump), "--in", str(dump)])
    assert exc.value.code == 1
    assert "argument --in: not allowed with argument --source" in capsys.readouterr().err
    assert not out.exists()


def test_fetch_local_dump_schema_error_exits_three(tmp_path, capsys):
    dump = tmp_path / "bad.ndjson"
    dump.write_text('{"ledger": "nope", "senders": ["a"], "recipients": ["b"], '
                    '"timestamp": 1598918400, "tx_kind": "Payment"}\n')
    out = tmp_path / "window.ndjson"
    code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02",
                 "--out", str(out), "--in", str(dump)])
    assert code == 3
    assert capsys.readouterr().err == "ledgergraph fetch: line 1: unknown ledger 'nope'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "fetch"])
def test_dump_that_is_not_utf8_exits_three(tmp_path, capsys, command):
    dump = tmp_path / "dump.ndjson"
    dump.write_bytes(b"\xff\xfe" + "\n".join(['{"ledger": "ripple"}'] * 3).encode("utf-16-le"))
    out = tmp_path / "out"
    window = ["--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02"]
    argv = [command, *(window if command == "fetch" else []), "--in", str(dump),
            "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == (f"ledgergraph {command}: {dump}: "
                                       "not UTF-8 text (invalid start byte)\n")
    assert not out.exists()


def test_build_lets_a_fault_in_the_reader_surface(tmp_path, monkeypatch):
    # only a dump's own faults (schema, encoding, I/O) are data errors
    def broken(stream):
        raise ValueError("not a data error")

    monkeypatch.setattr("ledgergraph.cli.ingest_dump", broken)
    dump = tmp_path / "dump.ndjson"
    dump.write_text("")
    with pytest.raises(ValueError, match="not a data error"):
        main(["build", "--in", str(dump), "--out", str(tmp_path / "g.net")])


@pytest.mark.parametrize("command", ["build", "fetch"])
@pytest.mark.parametrize("stamp", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_dump_timestamp_exits_three(tmp_path, capsys, command, stamp):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump, count=3)
    with open(dump, "a") as fh:
        fh.write('{"ledger": "ripple", "senders": ["a"], "recipients": ["b"], '
                 f'"timestamp": {stamp}, "tx_kind": "Payment"}}\n')
    window = ["--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02"]
    argv = [command, *(window if command == "fetch" else []), "--in", str(dump),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert capsys.readouterr().err == (f"ledgergraph {command}: line 4: "
                                       "timestamp must be a number (unix seconds)\n")


def test_report_on_metrics_json(tmp_path, capsys):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump)
    net = tmp_path / "g.net"
    rpt = tmp_path / "r.json"
    main(["build", "--in", str(dump), "--out", str(net)])
    main(["analyze", "--in", str(net), "--out", str(rpt), "--sample", "1.0"])
    capsys.readouterr()
    assert main(["report", "--in", str(rpt)]) == 0
    assert "graph ACC" in capsys.readouterr().out


@pytest.mark.parametrize("fraction,shown", [
    (0.005, "0.5%"), (0.025, "2.5%"), (0.0005, "0.05%"), (0.07, "7%"), (0.1, "10%"), (1.0, "100%")])
def test_report_prints_the_sample_fraction_exactly(tmp_path, capsys, fraction, shown):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump)
    net = tmp_path / "g.net"
    rpt = tmp_path / "r.json"
    main(["build", "--in", str(dump), "--out", str(net)])
    main(["analyze", "--in", str(net), "--out", str(rpt), "--sample", "1.0"])
    doc = json.loads(rpt.read_text())
    doc["sample"]["fraction"] = fraction
    rpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", "--in", str(rpt)]) == 0
    assert f"sample               {shown} of weak_main, seed 0, " in capsys.readouterr().out


def test_report_prints_the_reachable_share_of_sample_pairs(tmp_path, capsys):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump)
    net = tmp_path / "g.net"
    cmp_path = tmp_path / "cmp.json"
    main(["build", "--in", str(dump), "--out", str(net)])
    assert main(["compare", "--in", str(net), "--out", str(cmp_path), "--sample", "1.0"]) == 0
    doc = json.loads(cmp_path.read_text())
    capsys.readouterr()
    assert main(["report", "--in", str(cmp_path)]) == 0
    out = capsys.readouterr().out
    for part in ("real", "random"):
        nodes, pairs = doc[part]["sample"]["nodes"], doc[part]["sample"]["pairs_used"]
        assert 0 < pairs <= nodes * (nodes - 1)
        share = f"{pairs / (nodes * (nodes - 1)):.1%}"
        assert f", {pairs} pairs ({share} of ordered sample pairs reachable)\n" in out
    doc["real"]["sample"].update(nodes=4, pairs_used=6)
    cmp_path.write_text(json.dumps(doc))
    assert main(["report", "--in", str(cmp_path)]) == 0
    assert ", 6 pairs (50.0% of ordered sample pairs reachable)\n" in capsys.readouterr().out


@pytest.mark.parametrize("nodes", [1, 0])
def test_report_with_a_sample_under_two_nodes_is_malformed(tmp_path, capsys, nodes):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump)
    net = tmp_path / "g.net"
    rpt = tmp_path / "r.json"
    main(["build", "--in", str(dump), "--out", str(net)])
    main(["analyze", "--in", str(net), "--out", str(rpt), "--sample", "1.0"])
    doc = json.loads(rpt.read_text())
    doc["sample"]["nodes"] = nodes
    rpt.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", "--in", str(rpt)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"ledgergraph report: malformed report document: a sample of "
                            f"{nodes} node(s) has no ordered pair\n")


def test_report_omits_hub_header_without_hub_load(tmp_path, capsys):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump)
    net = tmp_path / "g.net"
    main(["build", "--in", str(dump), "--out", str(net)])
    cmp_path = tmp_path / "cmp.json"
    assert main(["compare", "--in", str(net), "--out", str(cmp_path), "--sample", "1.0"]) == 0
    doc = json.loads(cmp_path.read_text())
    assert doc["real"]["hub_load"] and doc["random"]["hub_load"] == []
    capsys.readouterr()
    assert main(["report", "--in", str(cmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("hubs (degree: load centrality)") == 1
    assert out.index("hubs (degree") < out.index("random graph:")

    rpt = tmp_path / "r.json"
    main(["analyze", "--in", str(net), "--out", str(rpt), "--sample", "1.0", "--hubs", "0"])
    capsys.readouterr()
    assert main(["report", "--in", str(rpt)]) == 0
    out = capsys.readouterr().out
    assert "graph ACC" in out and "hubs (" not in out


def test_report_rejects_other_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"hello": 1}')
    assert main(["report", "--in", str(path)]) == 3


@pytest.mark.parametrize("doc", ['{"sigma": 1.5}', '{"graph_acc": 0.5}', '["sigma"]'])
def test_report_on_incomplete_document_exits_three(tmp_path, capsys, doc):
    path = tmp_path / "x.json"
    path.write_text(doc)
    assert main(["report", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("ledgergraph report: ")


@pytest.mark.parametrize("command", ["analyze", "compare"])
@pytest.mark.parametrize("stats", ["[1]", '{"edge_reuse_ratio": {"a": 1}}',
                                   '{"edge_reuse_ratio": "0.5"}', '{"edge_reuse_ratio": NaN}',
                                   '{"edge_reuse_ratio": Infinity}', '{"edge_reuse_ratio": 7}',
                                   '{"edge_reuse_ratio": -1}'])
def test_stats_not_an_object_with_a_number_exits_three(tmp_path, capsys, command, stats):
    net = tmp_path / "triangle.net"
    net.write_text("*Vertices 3\n*Arcs\n1 2\n2 3\n3 1\n")
    path = tmp_path / "stats.json"
    path.write_text(stats)
    out = tmp_path / "r.json"
    assert main([command, "--in", str(net), "--out", str(out), "--sample", "1.0",
                 "--stats", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"ledgergraph {command}: {path}: ") and not out.exists()


@pytest.mark.parametrize("command,flag,expected", [
    ("compare", "--stats", 3), ("analyze", "--stats", 3), ("fetch", "--config", 1)])
def test_file_that_is_not_json_is_named(tmp_path, capsys, command, flag, expected):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    net = tmp_path / "triangle.net"
    net.write_text("*Vertices 3\n*Arcs\n1 2\n2 3\n3 1\n")
    out = tmp_path / "out.json"
    if command == "fetch":
        argv = ["fetch", "--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02"]
    else:
        argv = [command, "--in", str(net), "--sample", "1.0"]
    assert main([*argv, "--out", str(out), flag, str(bad)]) == expected
    err = capsys.readouterr().err
    assert err == f"ledgergraph {command}: {bad}: not valid JSON " \
                  "(Expecting value: line 1 column 1 (char 0))\n"
    assert not out.exists()


@pytest.mark.parametrize("command,flag,expected", [
    ("compare", "--stats", 3), ("fetch", "--config", 1), ("report", "--in", 3),
    ("analyze", "--in", 3), ("compare", "--in", 3)])
def test_input_that_is_not_utf8_is_named(tmp_path, capsys, command, flag, expected):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe" + "*Vertices 3\n".encode("utf-16-le"))
    net = tmp_path / "triangle.net"
    net.write_text("*Vertices 3\n*Arcs\n1 2\n2 3\n3 1\n")
    out = tmp_path / "out.json"
    if command == "fetch":
        argv = ["fetch", "--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02",
                "--out", str(out)]
    elif command == "report":
        argv = ["report"]
    else:
        argv = [command, "--sample", "1.0", "--out", str(out),
                *(["--in", str(net)] if flag != "--in" else [])]
    assert main([*argv, flag, str(bad)]) == expected
    assert capsys.readouterr().err == (f"ledgergraph {command}: {bad}: "
                                       "not UTF-8 text (invalid start byte)\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_stats_is_checked_before_the_graph_is_read(tmp_path, capsys, monkeypatch, command):
    def no_read(*args, **kwargs):
        raise AssertionError("the graph was read before --stats was checked")

    monkeypatch.setattr("ledgergraph.pajek.read_pajek", no_read)
    stats = tmp_path / "stats.json"
    stats.write_text('{"edge_reuse_ratio": 7}')
    code = main([command, "--in", str(tmp_path / "g.net"), "--out", str(tmp_path / "r.json"),
                 "--stats", str(stats)])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"ledgergraph {command}: {stats}: ")


def _assert_clean_failure(capsys, command, code, expected):
    assert code == expected
    err = capsys.readouterr().err
    assert err.startswith(f"ledgergraph {command}: ") and "Traceback" not in err
    assert "missing" in err


def test_build_out_in_missing_directory_exits_three(tmp_path, capsys):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump)
    out = tmp_path / "missing" / "g.net"
    code = main(["build", "--in", str(dump), "--out", str(out)])
    _assert_clean_failure(capsys, "build", code, 3)


def test_analyze_out_in_missing_directory_exits_three(tmp_path, capsys):
    net = tmp_path / "triangle.net"
    net.write_text("*Vertices 3\n*Arcs\n1 2\n2 3\n3 1\n")
    code = main(["analyze", "--in", str(net), "--out", str(tmp_path / "missing" / "r.json")])
    _assert_clean_failure(capsys, "analyze", code, 3)


def test_compare_out_in_missing_directory_fails_before_work(tmp_path, capsys, monkeypatch):
    net = tmp_path / "triangle.net"
    net.write_text("*Vertices 3\n*Arcs\n1 2\n2 3\n3 1\n")

    def no_work(*args, **kwargs):
        raise AssertionError("compare ran before checking its output directory")

    monkeypatch.setattr("ledgergraph.nullmodel.small_world_compare", no_work)
    code = main(["compare", "--in", str(net), "--out", str(tmp_path / "missing" / "c.json")])
    _assert_clean_failure(capsys, "compare", code, 3)


def test_fetch_out_in_missing_directory_exits_two(tmp_path, capsys):
    dump = tmp_path / "all.ndjson"
    write_fixture_dump(dump, count=20)
    code = main(["fetch", "--ledger", "ripple", "--from", "2020-09-01", "--to", "2020-09-02",
                 "--out", str(tmp_path / "missing" / "w.ndjson"), "--in", str(dump)])
    _assert_clean_failure(capsys, "fetch", code, 2)


def test_unwritable_stats_sidecar_exits_three(tmp_path, capsys):
    dump = tmp_path / "dump.ndjson"
    write_fixture_dump(dump)
    out = tmp_path / "g.net"
    (tmp_path / "g.net.stats.json").mkdir()  # a directory where the sidecar goes
    assert main(["build", "--in", str(dump), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("ledgergraph build: ") and "g.net.stats.json" in err
