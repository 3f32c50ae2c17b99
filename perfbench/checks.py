"""Output checks. Each returns a list of problems; empty means correct.

The expectations come from the benchmark's own generated records, never
from the program under test. No report digest is pinned across commits:
reports are compared only with other runs of the same code.
"""

from __future__ import annotations

import json
import math

STAT_KEYS = ("transactions", "binary_connections", "unique_arcs", "self_loops", "nodes")


def build_stats(stats_path: str, expected: dict[str, int]) -> list[str]:
    """`build`'s .stats.json counters equal the benchmark's recount."""
    try:
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{stats_path}: {exc}"]
    return [f"{stats_path}: {key} is {stats.get(key)}, expected {expected[key]}"
            for key in STAT_KEYS if stats.get(key) != expected[key]]


def _record_key(obj: dict) -> tuple:
    return (obj["timestamp"], tuple(obj["senders"]), tuple(obj["recipients"]), obj["tx_kind"])


def fetched_dump(dump_path: str, expected: list) -> list[str]:
    """The fetched dump holds exactly the in-window transactions the stub
    serves: none dropped, none invented, none duplicated."""
    try:
        with open(dump_path, encoding="utf-8") as fh:
            got = sorted(_record_key(json.loads(line)) for line in fh if line.strip())
    except (OSError, ValueError, KeyError) as exc:
        return [f"{dump_path}: {exc}"]
    want = sorted((tx.timestamp, tx.senders, tx.recipients, tx.kind) for tx in expected)
    if got == want:
        return []
    missing = len(set(want) - set(got))
    extra = len(set(got) - set(want))
    return [f"{dump_path}: {len(got)} records, expected {len(want)} "
            f"({missing} missing, {extra} not served)"]


def _metrics_report(doc: object, where: str) -> list[str]:
    if not isinstance(doc, dict):
        return [f"{where}: not a metrics report"]
    problems = []
    for key in ("graph_acc", "main_component_aspl"):
        value = doc.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {key} is {value!r}, expected a finite number")
    try:
        sample = doc["sample"]
        kind = "weak_main" if sample["component"] == "weak_main" else "strong_main"
        main_size = doc["component_sizes"][kind]["size"]
        want = math.ceil(sample["fraction"] * main_size)
        if sample["nodes"] != want:
            problems.append(f"{where}: sample.nodes is {sample['nodes']}, expected "
                            f"ceil({sample['fraction']} x {main_size}) = {want}")
    except (KeyError, TypeError) as exc:
        problems.append(f"{where}: sample or component sizes missing ({exc!r})")
    return problems


def compare_report(path: str) -> list[str]:
    """A compare report parses, both embedded reports are sane, and sigma
    is defined."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    if not isinstance(doc, dict):
        return [f"{path}: not a compare report"]
    problems = _metrics_report(doc.get("real"), f"{path} real")
    problems += _metrics_report(doc.get("random"), f"{path} random")
    sigma = doc.get("sigma")
    if not isinstance(sigma, (int, float)) or not math.isfinite(sigma):
        problems.append(f"{path}: sigma is {sigma!r} ({doc.get('undefined')}), expected a number")
    return problems
