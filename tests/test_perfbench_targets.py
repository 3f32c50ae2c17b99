"""Every name `perfbench/tracer.py` wraps must exist in ledgergraph: a
traced benchmark run looks each one up with `getattr` and stops at the
first that is gone."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _resolves(target: str) -> bool:
    module_name, _, attr = target.partition(".")
    owner = importlib.import_module(f"ledgergraph.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    assert [t for t in tracer.TARGETS if not _resolves(t)] == []
