"""Shows that every output check of the benchmark rejects a wrong output.

    python3 perfbench/selftest.py

Run from the root of a checkout. For the first window of each workload it
runs the real fetch, build and compare commands, confirms that each check
passes on the true output, then damages the output one way at a time and
confirms that the check fails: a record removed, duplicated, invented or
changed; a build counter off by one; a non-finite estimate, a missing
twin ACC, a wrong sample size, an undefined sigma or a truncated report;
bytes that differ between cycles. Exits 1 if any check accepts a wrong
output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from run import Outcome, Step, checks

WORK = os.path.join(run.WORK, "selftest")
failures = []


def expect(label: str, problems: list[str], ok: bool) -> None:
    passed = bool(problems) != ok
    if not passed:
        failures.append(f"{label}: expected {'no problem' if ok else 'a problem'}, got {problems}")
    print(f"{'ok  ' if passed else 'FAIL'} {label}")


def _json_edit(change):
    def damage(text: str) -> str:
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return damage


def _bump(key: str):
    return lambda doc: doc.__setitem__(key, doc[key] + 1)


def _lines(change):
    def damage(text: str) -> str:
        lines = text.splitlines(keepends=True)
        record = json.loads(lines[0])
        record["timestamp"] += 1
        return "".join(change(lines, json.dumps(record) + "\n"))
    return damage


DAMAGE = {
    "fetch": {
        "one record removed": _lines(lambda lines, moved: lines[1:]),
        "one record duplicated": _lines(lambda lines, moved: lines + lines[-1:]),
        "one record invented": _lines(lambda lines, moved: lines + [moved]),
        "one record changed": _lines(lambda lines, moved: [moved] + lines[1:]),
    },
    "build": {f"{key} off by one": _json_edit(_bump(key)) for key in checks.STAT_KEYS},
    "compare": {
        "ASPL not finite": _json_edit(lambda d: d["real"].__setitem__(
            "main_component_aspl", float("nan"))),
        "twin ACC missing": _json_edit(lambda d: d["random"].pop("graph_acc")),
        "sample.nodes off by one": _json_edit(lambda d: d["real"]["sample"].__setitem__(
            "nodes", d["real"]["sample"]["nodes"] + 1)),
        "sigma undefined": _json_edit(lambda d: d.__setitem__("sigma", None)),
        "truncated": lambda text: text[: len(text) // 2],
    },
}


def check_workload(name: str, launcher: run.Launcher) -> None:
    prepared, _ = run.setup(name, 5, os.path.join(WORK, name))
    log = os.path.join(WORK, "child.log")
    try:
        for step in prepared.steps[:3]:  # fetch, build, compare of the first window
            if step.role == "fetch":
                run._stub_call(prepared.stub_url, "/_reset")
            code = launcher.run(step.argv, log)[2]
            if code != 0:
                sys.exit(f"ledgergraph {step.argv[0]} exited {code}")
            expect(f"{name} {step.role}", step.check(), True)
            path = step.output + ".stats.json" if step.role == "build" else step.output
            with open(path, encoding="utf-8") as fh:
                good = fh.read()
            for label, damage in DAMAGE[step.role].items():
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(damage(good))
                expect(f"{name} {step.role}, {label}", step.check(), False)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(good)
    finally:
        run._stop(prepared.stub)


def check_repeat_bytes() -> None:
    path = os.path.join(WORK, "out.json")
    step = Step("compare", ["compare"], lambda: [], path)
    outcome = Outcome()
    for text in ("1\n", "2\n"):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        outcome.record(step, [])
    expect("output bytes differ between cycles", ["failed"] * outcome.failed, False)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    with run.Launcher() as launcher:
        for name in run.WORKLOADS:
            check_workload(name, launcher)
    check_repeat_bytes()
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
