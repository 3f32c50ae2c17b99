"""Command-line front end: fetch -> build -> compare -> report.

Each stage reads and writes plain files (NDJSON dump, Pajek graph, JSON
reports), so a long pipeline can resume at any stage. `compare` writes
what `analyze` writes (the real graph's report, as its `real` section,
and the degree tables) plus the random twin and sigma, so a window is
measured by one `compare`; `analyze` is the same command, and the same
body (`_measure`), without the twin. Reports are deterministic for fixed
inputs and seeds regardless of --workers; wall clock per phase goes to
stderr as one `<phase> took <s>s` line from `ledgergraph._stage`, never
into the report files.

Exit codes: 0 success, 1 usage error, 2 fetch failure, 3 data/parse error.

The numpy-backed modules and `fetch` are imported by the commands that use them.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import os
import sys
from operator import attrgetter
from typing import Optional

from . import __version__, _stage
from .records import LEDGERS, RecordSchemaError, ingest_dump, iso_seconds, write_dump

log = logging.getLogger("ledgergraph")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FETCH = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_when(text: str) -> int:
    """ISO-8601 UTC date or datetime -> unix seconds."""
    try:
        return iso_seconds(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an ISO-8601 date (e.g. 2020-09-01)"
        ) from None


def _fail(command: str, message: object, code: int) -> int:
    """Print `ledgergraph <command>: <message>` to stderr; return `code`."""
    print(f"ledgergraph {command}: {message}", file=sys.stderr)
    return code


def _json_bytes(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


class _NotUtf8(ValueError):
    """An input file that is not UTF-8 text; the message names it."""


def _read(path: str, parse):
    """parse(the text file `path`); _NotUtf8 if the file is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError as exc:
            raise _NotUtf8(_not_utf8(path, exc)) from None


def _json_object(path: str, what: str) -> dict:
    """The JSON object file `path` holds; a ValueError naming it otherwise."""
    try:
        doc = _read(path, json.load)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return doc


def _not_utf8(path: str, exc: UnicodeDecodeError) -> str:
    return f"{path}: not UTF-8 text ({exc.reason})"


def _require_out_dir(path: str) -> None:
    """Fail before any work when the directory `path` goes in is missing."""
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise FileNotFoundError(errno.ENOENT, "no such directory", os.path.dirname(path))


def build_arg_parser() -> _Parser:
    parser = _Parser(prog="ledgergraph",
                     description="Transaction-graph retrieval and small-world analysis for "
                                 "distributed ledgers.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download transactions into a normalized dump")
    p.add_argument("--ledger", required=True, choices=LEDGERS)
    p.add_argument("--from", dest="start", required=True, type=_parse_when,
                   metavar="DATE", help="interval start (inclusive), ISO-8601 UTC")
    p.add_argument("--to", dest="end", required=True, type=_parse_when,
                   metavar="DATE", help="interval end (exclusive), ISO-8601 UTC")
    p.add_argument("--workers", type=int, default=1, help="concurrent fetchers (default 1)")
    p.add_argument("--out", required=True, help="dump file to write (NDJSON)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--source", help="explorer base URL or local dump file")
    source.add_argument("--in", dest="source_file", metavar="FILE",
                        help="local dump file to re-window (same as --source with a path)")
    p.add_argument("--config", help="JSON config file with per-ledger url/key entries")

    p = sub.add_parser("build", help="build a Pajek graph from a dump")
    p.add_argument("--in", dest="dump", required=True, help="normalized dump file")
    p.add_argument("--out", required=True, help="Pajek file to write")
    p.add_argument("--labels", action="store_true",
                   help="write address labels into the Pajek file (bigger output)")

    for name, what, summary in (
        ("analyze", "metrics report", "compute the metrics report for a Pajek graph"),
        ("compare", "small-world report", "analyze plus a size-matched random-graph comparison"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--in", dest="graph", required=True, help="Pajek file")
        p.add_argument("--out", required=True, help=f"{what} JSON to write")
        p.add_argument("--stats", help="ingestion stats JSON (carries the edge-reuse ratio)")
        p.add_argument("--sample", type=float, default=0.10,
                       help="node sample fraction for ASPL (default 0.10; 1.0 = exact)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--component", choices=["weak", "strong"], default="weak",
                       help="main component kind to measure (default weak)")
        p.add_argument("--undirected", action="store_true",
                       help="measure path lengths on the undirected projection")
        p.add_argument("--workers", type=int, default=1,
                       help="worker threads for shortest-path phases (default 1)")
        p.add_argument("--hubs", type=int, default=10,
                       help="how many top-degree hubs get a load centrality (default 10)")

    p = sub.add_parser("report", help="pretty-print a metrics or comparison report")
    p.add_argument("--in", dest="report", required=True, help="report JSON file")
    return parser


# -- commands -----------------------------------------------------------------


def cmd_fetch(args: argparse.Namespace) -> int:
    from .fetch import (FetchError, FetchJob, fetch_transactions, is_url, policy_from_env,
                        resolve_endpoint)
    source = args.source or args.source_file
    api_key = None
    # a bad --config (unreadable, not JSON, wrong shape) or backoff variable
    # is a usage error too, caught before any request
    try:
        config = _json_object(args.config, "config file") if args.config else None
        if source is None or is_url(source):
            source, api_key = resolve_endpoint(args.ledger, override=source, config=config)
        job = FetchJob(ledger=args.ledger, start=args.start, end=args.end,
                       source=source, workers=args.workers, api_key=api_key)
        policy = policy_from_env()
    except (ValueError, OSError) as exc:
        return _fail("fetch", exc, EXIT_USAGE)

    try:
        _require_out_dir(args.out)
        try:
            with _stage("fetch phase"):
                result = fetch_transactions(job, policy=policy)
                _write_dump_sorted(result.records, args.out)
        except FetchError as exc:
            if exc.partial is not None and exc.partial.records:
                _write_dump_sorted(exc.partial.records, args.out)
                print(f"wrote {len(exc.partial.records)} records fetched before the failure",
                      file=sys.stderr)
            code = _fail("fetch", exc, EXIT_FETCH)
            for rng in exc.failed_ranges:
                print(f"  failed: {rng}", file=sys.stderr)
            return code
    except RecordSchemaError as exc:  # a local dump that is not in the dump format
        return _fail("fetch", exc, EXIT_DATA)
    # a local dump that is not UTF-8: fetch_transactions opens it, not `_read`, so name it here
    except UnicodeDecodeError as exc:
        return _fail("fetch", _not_utf8(job.source, exc), EXIT_DATA)
    except OSError as exc:
        return _fail("fetch", exc, EXIT_FETCH)
    if result.skipped_payloads:
        log.warning("skipped %d malformed payload(s)", result.skipped_payloads)
    print(len(result.records))
    return EXIT_OK


def _write_dump_sorted(records, path: str) -> None:
    records = sorted(records, key=attrgetter("timestamp", "senders", "recipients", "tx_kind"))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_dump(records, fh)


def cmd_build(args: argparse.Namespace) -> int:
    from . import pajek
    try:
        _require_out_dir(args.out)
        with _stage("dump read"):
            addresses, keys, stats = _read(args.dump, ingest_dump)
    except (RecordSchemaError, _NotUtf8, OSError) as exc:
        return _fail("build", exc, EXIT_DATA)
    log.info("read %d records (%d skipped) into %d arcs", stats.transactions,
             stats.skipped_records, stats.unique_arcs)
    try:
        with _stage("Pajek write"):
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                pajek.write_arc_keys(fh, stats.nodes, keys, addresses if args.labels else None)
            _write_text(args.out + ".stats.json", _json_bytes(stats.to_json_dict()))
    except (ValueError, OSError) as exc:  # an address Pajek cannot quote, or a failed write
        if os.path.isfile(args.out):
            os.remove(args.out)
        return _fail("build", exc, EXIT_DATA)
    print(f"{stats.nodes} nodes, {stats.unique_arcs} arcs from {stats.transactions} "
          f"transactions ({stats.skipped_records} skipped lines)")
    return EXIT_OK


def _make_plan(args: argparse.Namespace):
    """The ASPL sample plan; also checks --hubs, --seed and --workers."""
    from .metrics import SamplePlan
    if args.hubs < 0:
        raise ValueError(f"--hubs must be >= 0, got {args.hubs}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    return SamplePlan(
        fraction=args.sample,
        seed=args.seed,
        component=f"{args.component}_main",
        treat_as_undirected=args.undirected,
    )


def _stats_edge_reuse(path: Optional[str]) -> Optional[float]:
    value = _json_object(path, "stats").get("edge_reuse_ratio") if path else None
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise ValueError(f"{path}: edge_reuse_ratio must be a number in [0, 1], got {value!r}")
    return float(value)


def _measure(command: str, args: argparse.Namespace) -> int:
    """The body of `analyze` and `compare`: the report, the real graph's
    degree tables beside it and a summary line on stdout. Only `compare`
    imports `nullmodel`, for the random twin and sigma."""
    from . import pajek
    from .metrics import build_metrics_report, histogram_lines
    try:
        plan = _make_plan(args)
    except ValueError as exc:
        return _fail(command, exc, EXIT_USAGE)
    try:
        _require_out_dir(args.out)
        edge_reuse = _stats_edge_reuse(args.stats)
        with _stage("graph load"):
            graph = _read(args.graph, pajek.read_pajek)
        with _stage("metrics"):
            if command == "compare":
                from .nullmodel import small_world_compare
                report = small_world_compare(graph, plan, seed=args.seed, hub_count=args.hubs,
                                             workers=args.workers, edge_reuse_ratio=edge_reuse)
                real = report.real_metrics
                sigma = f"{report.sigma:.6g}" if report.sigma is not None else "undefined"
                summary = f"sigma {sigma}"
            else:
                report = real = build_metrics_report(graph, plan, hub_count=args.hubs,
                                                     workers=args.workers,
                                                     edge_reuse_ratio=edge_reuse)
                summary = (f"ACC {real.graph_acc:.6g}, "
                           f"main component ASPL {real.main_component_aspl:.6g}")
        _write_text(args.out, _json_bytes(report.to_json_dict()))
        base = args.out[:-5] if args.out.endswith(".json") else args.out
        hist = real.degree_histogram
        _write_text(base + ".degree_in.txt", histogram_lines(hist.in_degree))
        _write_text(base + ".degree_out.txt", histogram_lines(hist.out_degree))
        _write_text(base + ".degree_total.txt", histogram_lines(hist.total_degree))
    except (ValueError, OSError) as exc:  # PajekParseError is a ValueError
        return _fail(command, exc, EXIT_DATA)
    print(summary)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    return _measure("analyze", args)


def cmd_compare(args: argparse.Namespace) -> int:
    return _measure("compare", args)


def _format_metrics(doc: dict, indent: str = "") -> str:
    sizes = doc["component_sizes"]
    sample = doc["sample"]
    nodes = sample["nodes"]
    if not nodes >= 2:
        raise ValueError(f"malformed report document: a sample of {nodes!r} node(s) "
                         "has no ordered pair")
    reachable = sample["pairs_used"] / (nodes * (nodes - 1))
    lines = [
        f"{indent}graph ACC            {doc['graph_acc']:.6g}",
        f"{indent}main component ASPL  {doc['main_component_aspl']:.6g}",
        f"{indent}main component ACC   {doc['main_component_acc']:.6g}",
        f"{indent}edge reuse ratio     {doc['edge_reuse_ratio']:.6g}",
        f"{indent}weak main size       {sizes['weak_main']['size']} "
        f"({sizes['weak_main']['fraction']:.1%} of {sizes['nodes']})",
        f"{indent}strong main size     {sizes['strong_main']['size']} "
        f"({sizes['strong_main']['fraction']:.1%})",
        f"{indent}sample               {sample['fraction'] * 100:.15g}% of "
        f"{sample['component']}, seed {sample['seed']}, {sample['pairs_used']} pairs "
        f"({reachable:.1%} of ordered sample pairs reachable)",
    ]
    if doc["hub_load"]:
        lines.append(f"{indent}hubs (degree: load centrality)")
    for degree, load in doc["hub_load"]:
        lines.append(f"{indent}  {degree}: {load:.6g}")
    return "\n".join(lines)


def _format_report(doc: dict) -> str:
    if "sigma" in doc:
        lines = ["real graph:", _format_metrics(doc["real"], "  ")]
        if doc.get("random"):
            lines += ["random graph:", _format_metrics(doc["random"], "  ")]
        for name in ("acc_ratio", "aspl_ratio", "sigma"):
            value = doc.get(name)
            shown = f"{value:.6g}" if value is not None else \
                f"undefined ({doc.get('undefined', {}).get(name, 'n/a')})"
            lines.append(f"{name:10s} {shown}")
        return "\n".join(lines)
    if "graph_acc" in doc:
        return _format_metrics(doc)
    raise ValueError("unrecognized report document")


def cmd_report(args: argparse.Namespace) -> int:
    try:
        text = _format_report(_json_object(args.report, "report"))
    except (OSError, ValueError) as exc:
        return _fail("report", exc, EXIT_DATA)
    except (KeyError, TypeError, AttributeError) as exc:  # a field missing or of the wrong type
        return _fail("report", f"malformed report document: {exc!r}", EXIT_DATA)
    print(text)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fetch": cmd_fetch,
        "build": cmd_build,
        "analyze": cmd_analyze,
        "compare": cmd_compare,
        "report": cmd_report,
    }
    return handlers[args.command](args)


def entry() -> None:
    # ledgergraph calls no BLAS routine, so numpy need not start OpenBLAS's
    # thread pool at import (tens of ms, and one idle thread per core); this
    # runs before any command imports numpy, and a value already set wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    entry()
