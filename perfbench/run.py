"""Seeded end-to-end benchmark of the ledgergraph pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from `src/` there.
Inputs are generated from the seed (see gen.py) and served by a stub
explorer (stub.py); the real CLI fetches, builds and compares them, one
child process per command, in cycles until S seconds have passed. Every
command's outputs are checked. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: each command's median wall
clock, summed per command kind, and the median throwaway set-up, both
scaled to a reference speed by two probes timed next to the commands
(see timed_cycles), and each command's median peak RSS.
--trace 1 runs the same commands in-process instead, once untraced and
once with ledgergraph's public functions wrapped (tracer.py), and reports
the median traced cycle's per-layer self times and counters. Spans go to
.perfbench_work/traces/, apart from the timed runs and the report files.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import signal
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
STARTUP_REPEATS = 5
SETUP_SHARE = 0.1
PROBE_REF_S = 0.055  # probe_s() on the VM the baselines were measured on
PROBE_EXPONENT = 0.75  # how much of the probe's drift the commands share
# A bare interpreter importing what every command imports before any
# ledgergraph code runs, and its time on the same VM.
STARTUP_PROBE = ["-c", "import numpy, requests"]
STARTUP_REF_S = 0.39
FETCH_ENV = {"LEDGERGRAPH_BACKOFF_INITIAL": "0.01", "LEDGERGRAPH_BACKOFF_CAP": "0.04"}
ANALYSIS = ("--sample", "0.10", "--seed", "7", "--workers", "1")
LEDGER_DAYS = 2
UTXO_TX_PER_BLOCK = 50


@dataclass
class Step:
    """One CLI command of a cycle and the check of what it wrote."""

    role: str  # "fetch", "build" or "compare": the end-to-end metric it feeds
    argv: list[str]
    check: Callable[[], list[str]]
    output: str  # bytes must repeat across cycles


@dataclass
class Prepared:
    steps: list[Step]
    graph_file: str  # Pajek file whose object graph graph.object_mib measures
    stub: subprocess.Popen
    stub_url: str


# -- workloads ----------------------------------------------------------------


def _day(index: int) -> str:
    return time.strftime("%Y-%m-%d", time.gmtime(gen.DAY_START + index * gen.DAY))


def _window_steps(work: str, name: str, ledger: str, day: int, url: str, txs: list,
                  compare_flags: tuple) -> list[Step]:
    """fetch -> build -> compare for one day window of `ledger`; `txs` are
    the transactions the stub serves inside the window."""
    dump, net = os.path.join(work, f"{name}.ndjson"), os.path.join(work, f"{name}.net")
    report = os.path.join(work, f"{name}.report.json")
    counts = gen.recount(txs, ledger)
    return [
        Step("fetch", ["fetch", "--ledger", ledger, "--from", _day(day), "--to", _day(day + 1),
                       "--workers", "2", "--source", url, "--out", dump],
             lambda: checks.fetched_dump(dump, txs), dump),
        Step("build", ["build", "--in", dump, "--out", net],
             lambda: checks.build_stats(net + ".stats.json", counts), net),
        Step("compare", ["compare", "--in", net, "--out", report, "--stats",
                         net + ".stats.json", *compare_flags],
             lambda: checks.compare_report(report), report),
    ]


def _serve(work: str, ripple_days: list[list], blocks: list[dict]) -> tuple[subprocess.Popen, str]:
    """Write the stub's payload and start it; (process, base URL)."""
    payload = os.path.join(work, "stub.json")
    with open(payload, "w", encoding="utf-8") as fh:
        json.dump({"ripple": {str(gen.DAY_START + d * gen.DAY): gen.ripple_payloads(txs)
                              for d, txs in enumerate(ripple_days)},
                   "blocks": blocks, "window": [gen.DAY_START, gen.DAY_START + gen.DAY]}, fh)
    stub = subprocess.Popen([sys.executable, os.path.join(HERE, "stub.py"), payload],
                            stdout=subprocess.PIPE, text=True)
    port = stub.stdout.readline().strip()
    if not port.isdigit():
        _stop(stub)
        raise RuntimeError("stub explorer did not start")
    return stub, f"http://127.0.0.1:{port}"


def _prepare_ledger_day(seed: int, work: str) -> Prepared:
    """LEDGER_DAYS hub-heavy Ripple days: more than one small day averages
    out how much the cost of exact hub load on one graph depends on its
    seed, fewer leave more cycles per run (see timed_cycles)."""
    days = [gen.ledger_day(2_500, seed, window) for window in range(LEDGER_DAYS)]
    stub, url = _serve(work, days, [])
    steps = [step for d, txs in enumerate(days)
             for step in _window_steps(work, f"day{d}", "ripple", d, url, txs, ANALYSIS)]
    return Prepared(steps, os.path.join(work, "day0.net"), stub, url)


def _prepare_utxo_bulk(seed: int, work: str) -> Prepared:
    lead = 50  # blocks before and after the day
    blocks, txs = gen.bitcoin_blocks(2 * lead + 144, UTXO_TX_PER_BLOCK, seed,
                                     gen.DAY_START - lead * 600)
    in_window = [tx for tx in txs if gen.DAY_START <= tx.timestamp < gen.DAY_START + gen.DAY]
    stub, url = _serve(work, [], blocks)
    steps = _window_steps(work, "utxo", "bitcoin", 0, url, in_window, ("--hubs", "0", *ANALYSIS))
    return Prepared(steps, os.path.join(work, "utxo.net"), stub, url)


WORKLOADS: dict[str, Callable[[int, str], Prepared]] = {
    "ledger_day": _prepare_ledger_day,
    "utxo_bulk": _prepare_utxo_bulk,
}


# -- processes ----------------------------------------------------------------


def _stop(proc: subprocess.Popen) -> None:
    """Terminate `proc` if it still runs, wait for it, close its pipe."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout:
        proc.stdout.close()


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **FETCH_ENV)


class Launcher:
    """Runs `ledgergraph` commands (`run()`) and other Python children
    (`run_python()`) through spawn.py (see there for why); both return
    (wall seconds, peak RSS MiB, exit code)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log_path: str) -> tuple[float, float, int]:
        return self.run_python(["-m", "ledgergraph.cli", *argv], log_path)

    def run_python(self, args: list[str], log_path: str) -> tuple[float, float, int]:
        job = {"argv": [sys.executable, *args], "env": _child_env(), "cwd": ROOT, "log": log_path}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall"], reply["maxrss_kib"] / 1024.0, reply["code"]

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # spawn.py exits at the end of its input
        try:
            self.proc.wait(timeout=60)
        finally:
            _stop(self.proc)


def _stub_call(url: str, path: str) -> dict:
    import requests  # a ledgergraph dependency; only the fetch workload needs it

    return requests.get(url + path, timeout=10).json()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# -- one workload run ---------------------------------------------------------


class Outcome:
    """Attempted and failed operations, plus the output bytes of the first
    cycle, which later cycles must repeat."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_output: dict[str, bytes] = {}

    def record(self, step: Step, problems: list[str]) -> None:
        self.attempted += 1
        if not problems:
            data = _read(step.output)
            if self.first_output.setdefault(step.output, data) != data:
                problems = [f"{step.output} differs from the first run's bytes"]
        if problems:
            self.failed += 1
            for line in problems:
                print(f"FAILED {' '.join(step.argv[:1])}: {line}", file=sys.stderr)


def setup(name: str, seed: int, work: str) -> tuple[Prepared, float]:
    """Generate the inputs into `work` (and start the stub); (result, seconds)."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    t0 = time.perf_counter()
    prepared = WORKLOADS[name](seed, work)
    return prepared, time.perf_counter() - t0


_PROBE_HEADS = np.random.default_rng(0).integers(0, 4_000, size=20_000)


def probe_s() -> float:
    """Wall clock of a fixed piece of work that does not touch ledgergraph:
    a pure-Python dict loop, then small numpy array operations, the two
    kinds of work the commands do. About PROBE_REF_S on the reference VM."""
    t0 = time.perf_counter()
    seen: dict[int, int] = {}
    for i in range(120_000):
        seen[i * 7 % 4_001] = seen.get(i % 4_001, 0) + 1
    acc = np.zeros(4_000)
    for _ in range(20):
        np.add.at(acc, np.unique(_PROBE_HEADS[_PROBE_HEADS % 3 > 0]), 1.0)
    return time.perf_counter() - t0


def timed_cycles(name: str, seed: int, prepared: Prepared, seconds: float,
                 outcome: Outcome, launcher: Launcher) -> dict[str, float]:
    """Cycles of every step as a child process until `seconds` have
    passed. Between steps, throwaway set-ups take about SETUP_SHARE of the
    run, so set-up is sampled across the whole run too.

    Times are at the reference speed. The 2-core VM this was tuned on
    drifts in two ways, whatever runs on it, and the commands' CPU time
    drifts with their wall clock:

    - Compute speed, in spells of seconds to minutes. `probe_s()` runs
      between every two timed things. Between the spells it slowed by
      1.38-1.46x and the commands by 1.19-1.41x, hence PROBE_EXPONENT.
    - Process start-up, in regimes of about ten minutes, about 20% apart,
      which the compute probe does not see. STARTUP_PROBE runs once per
      cycle; its run median is the start-up cost `start`.

    A step run of `wall` seconds counts as min(wall, start) * STARTUP_REF_S
    / start, plus the rest times (PROBE_REF_S / p) ** PROBE_EXPONENT,
    where p is the mean of the compute probes on either side of it; a
    set-up counts as its time times that compute factor. A role's time
    is the sum over its steps of each step's median, and `setup_s` the
    median set-up. The raw medians go to stderr, and every sample to
    .perfbench_work/samples-<workload>-seed<seed>.json. A role's peak RSS
    is the largest of its steps' medians.
    """
    log = os.path.join(WORK, "child.log")
    probe_s()  # warm-up: the first call also pays for numpy's lazy set-up
    probes = [probe_s()]
    factors: list[float] = []  # compute factor of each timed thing, in order

    def timed(seconds_: float) -> float:
        """Record `seconds_` of the thing timed since the last probe."""
        probes.append(probe_s())
        factors.append((PROBE_REF_S / statistics.mean(probes[-2:])) ** PROBE_EXPONENT)
        return seconds_

    walls: list[list[tuple[float, int]]] = [[] for _ in prepared.steps]  # (wall, factor index)
    rsss: list[list[float]] = [[] for _ in prepared.steps]
    setups: list[tuple[float, int]] = []
    startups: list[float] = []
    t_start = time.perf_counter()

    def time_left() -> bool:  # after one whole cycle, stop at any step
        return not walls[-1] or time.perf_counter() - t_start < seconds

    while time_left():
        for i, step in enumerate(prepared.steps):
            if not time_left():
                break
            if sum(w for w, _ in setups) <= SETUP_SHARE * (time.perf_counter() - t_start):
                spare, setup_s = setup(name, seed, os.path.join(WORK, f"{name}-setup"))
                _stop(spare.stub)
                setups.append((timed(setup_s), len(factors) - 1))
            if i == 0:  # every cycle meets the same 429s
                _stub_call(prepared.stub_url, "/_reset")
                startups.append(timed(launcher.run_python(STARTUP_PROBE, log)[0]))
            wall, rss, code = launcher.run(step.argv, log)
            walls[i].append((timed(wall), len(factors) - 1))
            rsss[i].append(rss)
            problems = step.check() if code == 0 else [
                f"exit code {code}: {_read(log).decode(errors='replace')[-2000:]}"]
            outcome.record(step, problems)
        print(f"cycle {len(walls[0])}: step times " + " ".join(f"{w[-1][0]:.4f}" for w in walls if w)
              + f"; {len(setups)} set-ups", file=sys.stderr)
    start = statistics.median(startups)

    def scaled(wall: float, k: int) -> float:
        return min(wall, start) * STARTUP_REF_S / start + max(0.0, wall - start) * factors[k]

    with open(os.path.join(WORK, f"samples-{name}-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"steps": [{"role": s.role, "argv": s.argv, "wall_s": [w for w, _ in ws],
                              "scaled_s": [scaled(*x) for x in ws], "peak_rss_mib": r}
                             for s, ws, r in zip(prepared.steps, walls, rsss)],
                   "setup_s": [w for w, _ in setups], "startup_s": startups,
                   "probe_s": probes, "factors": factors}, fh)
    raw: dict[str, float] = defaultdict(float, setup_s=statistics.median(w for w, _ in setups))
    metrics: dict[str, float] = defaultdict(
        float, setup_s=statistics.median(w * factors[k] for w, k in setups))
    for step, ws, rss in zip(prepared.steps, walls, rsss):
        raw[f"{step.role}_s"] += statistics.median(w for w, _ in ws)
        metrics[f"{step.role}_s"] += statistics.median(scaled(*x) for x in ws)
        key = f"{step.role}_peak_rss_mib"
        metrics[key] = max(metrics[key], statistics.median(rss))
    print(f"raw medians: {dict(raw)}; start-up {start:.4f}", file=sys.stderr)
    return dict(metrics)


def _inprocess(cli, step: Step) -> list[str]:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(step.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash in the program is a failed operation
        return [f"raised {type(exc).__name__}: {exc}"]
    return step.check() if code == 0 else [f"exit code {code}"]


def _pass(cli, prepared: Prepared, outcome: Outcome) -> tuple[float, dict[str, int]]:
    """Run every step in-process; (wall seconds, stub counters)."""
    _stub_call(prepared.stub_url, "/_reset")
    gc.collect()
    t0 = time.perf_counter()
    for step in prepared.steps:
        outcome.record(step, _inprocess(cli, step))
    elapsed = time.perf_counter() - t0
    return elapsed, _stub_call(prepared.stub_url, "/_stats")


def layer_metrics(spans: list[list], counters: dict[str, int]) -> dict[str, float]:
    selfs = self_times(spans)
    by_name: dict[str, list[list]] = defaultdict(list)
    by_id = {s[0]: s for s in spans}
    for s in spans:
        by_name[s[1]].append(s)

    def self_s(*names: str) -> float:
        return sum(selfs[s[0]] for n in names for s in by_name[n])

    def total_s(spans_: list[list]) -> float:
        return sum(s[4] - s[3] for s in spans_)

    def under(name: str, parent: str) -> list[list]:
        return [s for s in by_name[name]
                if s[2] is not None and by_id[s[2]][1] == parent]

    builds = [s[5] for s in by_name["records.build_graph"]]
    sources = sum(s[5]["nodes"] for s in under("graph.induced_subgraph",
                                                 "metrics.load_centrality"))
    reports: dict[int, list[list]] = defaultdict(list)
    for s in under("metrics.build_metrics_report", "nullmodel.small_world_compare"):
        reports[s[2]].append(s)
    # small_world_compare measures the real graph first, then its twin
    twin = [s for group in reports.values() for s in sorted(group, key=lambda x: x[3])[1:]]
    requests = counters.get("requests", 0)
    useful = requests - counters.get("rate_limited", 0) - counters.get("wasted", 0)
    return {
        "records.read_dump_s": self_s("records.read_dump", "records.read_dump_lenient"),
        "records.build_graph_s": self_s("records.build_graph"),
        "records.write_dump_s": self_s("records.write_dump"),
        "records.transactions": sum(b["transactions"] for b in builds),
        "records.binary_connections": sum(b["binary_connections"] for b in builds),
        "records.unique_arcs": sum(b["unique_arcs"] for b in builds),
        "pajek.write_s": self_s("pajek.write_pajek"),
        "pajek.read_s": self_s("pajek.read_pajek"),
        "graph.wcc_s": self_s("graph.weakly_connected_components"),
        "graph.scc_s": self_s("graph.strongly_connected_components"),
        "graph.induced_subgraph_s": self_s("graph.induced_subgraph"),
        "graph.wcc_calls": len(by_name["graph.weakly_connected_components"]),
        "graph.main_component_calls": len(by_name["graph.main_component"]),
        "graph.induced_subgraph_calls": len(by_name["graph.induced_subgraph"]),
        "metrics.load_centrality_s": self_s("metrics.load_centrality"),
        "metrics.brandes_sources": sources,
        "metrics.aspl_s": self_s("metrics.aspl"),
        "metrics.aspl_sources": sum(s[5]["sample_size"]
                                    for s in by_name["metrics.build_metrics_report"]),
        "metrics.aspl_pairs": sum(s[5]["pairs"] for s in by_name["metrics.aspl"]),
        "metrics.clustering_s": self_s("metrics.average_clustering",
                                       "metrics.clustering_coefficient"),
        "metrics.degree_distribution_s": self_s("metrics.degree_distribution"),
        "nullmodel.erdos_renyi_s": self_s("nullmodel.erdos_renyi"),
        "nullmodel.twin_metrics_s": total_s(twin),
        "fetch.window_s": total_s(by_name["fetch.fetch_transactions"]),
        "fetch.get_json_s": self_s("fetch.RetryingClient.get_json"),
        "fetch.requests": requests,
        "fetch.rate_limited": counters.get("rate_limited", 0),
        "fetch.wasted_requests": counters.get("wasted", 0),
        "fetch.useful_request_ratio": useful / requests if requests else 0.0,
        "fetch.pauses": len(by_name["fetch.pause"]),
        "fetch.pause_s": total_s(by_name["fetch.pause"]),
        "explorers.parse_s": self_s("explorers.parse_ripple_tx", "explorers.parse_block_tx",
                                    "explorers.parse_bitcoin_tx"),
        "explorers.parse_calls": len(by_name["explorers.parse_ripple_tx"])
        + len(by_name["explorers.parse_block_tx"]),
    }


def _object_mib(pajek_mod, path: str) -> float:
    """tracemalloc peak while reading one Pajek file into the object graph."""
    gc.collect()
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            graph = pajek_mod.read_pajek(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del graph
    return peak / 2**20


def _startup_s(launcher: Launcher) -> float:
    log = os.path.join(WORK, "child.log")
    return statistics.median(launcher.run(["--version"], log)[0] for _ in range(STARTUP_REPEATS))


def traced_cycles(name: str, seed: int, prepared: Prepared, seconds: float,
                  outcome: Outcome, launcher: Launcher) -> dict[str, float]:
    sys.path.insert(0, SRC)
    os.environ.update(FETCH_ENV)
    import ledgergraph.cli as cli
    from ledgergraph import pajek

    tracer = Tracer()
    cycles = []  # (traced seconds, untraced seconds, layer metrics, spans)
    t_start = time.perf_counter()
    while not cycles or time.perf_counter() - t_start < seconds:
        plain_s, _ = _pass(cli, prepared, outcome)
        tracer.spans = []
        tracer.install()
        try:
            traced_s, counters = _pass(cli, prepared, outcome)
        finally:
            tracer.uninstall()
        cycles.append((traced_s, plain_s, layer_metrics(tracer.spans, counters), tracer.spans))
    # the median traced cycle, for the reason timed_cycles gives
    _, _, metrics, spans = sorted(cycles, key=lambda c: c[0])[len(cycles) // 2]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(c[0] for c in cycles)
                                             / statistics.median(c[1] for c in cycles) - 1.0)
    metrics["graph.object_mib"] = _object_mib(pajek, prepared.graph_file)
    metrics["cli.startup_s"] = _startup_s(launcher)

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    origin = spans[0][3] if spans else 0.0
    with open(os.path.join(WORK, "traces", f"{name}-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({
            "workload": name, "seed": seed, "metrics": metrics,
            "cycles": [{"traced_s": c[0], "untraced_s": c[1], "metrics": c[2]}
                       for c in cycles],
            "spans": [{"id": s[0], "name": s[1], "parent": s[2],
                       "start": s[3] - origin, "end": s[4] - origin, **s[5]}
                      for s in spans],
        }, fh)
    return metrics


# -- metric catalogue ---------------------------------------------------------

UNITS = {"pajek.file_bytes": "bytes"}
SUFFIX_UNITS = {"_s": "s", "_mib": "MiB", "_pct": "%", "_ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its stub and launcher in `finally`
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(SRC, "ledgergraph", "cli.py")):
        print(f"perfbench: no ledgergraph sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    with Launcher() as launcher:
        # also compiles the modules, so the first timed child does not pay for it
        if launcher.run(["--version"], os.path.join(WORK, "child.log"))[2] != 0:
            print("perfbench: `ledgergraph --version` failed:\n"
                  + _read(os.path.join(WORK, "child.log")).decode(errors="replace"),
                  file=sys.stderr)
            return 2
        outcome = Outcome()
        prepared, _ = setup(args.workload, args.seed, os.path.join(WORK, args.workload))
        try:
            if args.trace:
                metrics = traced_cycles(args.workload, args.seed, prepared, args.seconds,
                                        outcome, launcher)
                metrics["pajek.file_bytes"] = sum(os.path.getsize(s.output)
                                                  for s in prepared.steps if s.role == "build")
            else:
                metrics = timed_cycles(args.workload, args.seed, prepared, args.seconds,
                                       outcome, launcher)
        finally:
            _stop(prepared.stub)

    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
