"""Size-matched random graphs and the small-world verdict.

The comparison graph is a directed Erdős-Rényi graph with the same node
count and exactly the same arc count as the graph under analysis (G(n, m)
mode); a G(n, p) mode is available as well. Both draw ordered pairs of
distinct nodes, so no arc is a self-loop. The verdict combines
the clustering and path-length ratios into sigma = (C/C_r) / (L/L_r):
well above 1 means small-world structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _stage
from .graph import DirectedGraph
from .metrics import MetricsReport, SamplePlan, build_metrics_report


@dataclass(frozen=True)
class RandomGraphSpec:
    """Parameters for one random graph draw.

    Exactly one of `edge_count` (G(n, m)) or `edge_probability` (G(n, p))
    must be given. The graph is directed: a count or probability is of arcs,
    out of the n(n-1) ordered pairs of distinct nodes.
    """

    node_count: int
    edge_count: Optional[int] = None
    edge_probability: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_count < 0:
            raise ValueError("node_count must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if (self.edge_count is None) == (self.edge_probability is None):
            raise ValueError("give exactly one of edge_count or edge_probability")
        if self.edge_probability is not None and not (0.0 <= self.edge_probability <= 1.0):
            raise ValueError(f"edge probability must be in [0, 1], got {self.edge_probability}")
        if self.edge_count is not None:
            if self.edge_count < 0:
                raise ValueError("edge_count must be >= 0")
            if self.edge_count > self.max_edges():
                raise ValueError(
                    f"edge_count {self.edge_count} exceeds the {self.max_edges()} "
                    f"possible arcs on {self.node_count} nodes"
                )

    def max_edges(self) -> int:
        return self.node_count * (self.node_count - 1)


def erdos_renyi(spec: RandomGraphSpec) -> DirectedGraph:
    """Draw a directed random graph per `spec`, deterministically for a
    given seed.

    G(n, m) draws exactly m distinct ordered pairs uniformly
    (collision-retry, cheap while m is far from saturation, correct
    regardless). G(n, p) walks the index space of the n(n-1) ordered pairs
    with geometric jumps, so the cost scales with the number of arcs
    produced rather than n^2.
    """
    n, p = spec.node_count, spec.edge_probability
    rng = np.random.default_rng(spec.seed)
    if n < 2 or p == 0.0:
        return DirectedGraph(n)
    if spec.edge_count is not None:
        # the kept pairs are the first m distinct non-loop pairs drawn: each
        # batch joins them, and a pair drawn again counts at its first sighting
        m = spec.edge_count
        keys = np.empty(0, dtype=np.int64)  # u*n + v, ascending
        while len(keys) < m:
            batch = max(256, int((m - len(keys)) * 1.3))
            a = rng.integers(0, n, size=batch)
            b = rng.integers(0, n, size=batch)
            # a stable sort of an ascending run plus one batch is a merge
            keys, first = np.unique(np.concatenate((keys, (a * n + b)[a != b])), return_index=True)
            if len(keys) > m:  # the kept ones come first, then the batch's in draw order
                keys = keys[first <= np.partition(first, m - 1)[m - 1]]
        src, dst = keys // n, keys % n
    else:
        assert p is not None
        total = spec.max_edges()
        # geometric jumps through the linear pair index space (at p = 1 every
        # jump is 1, so every pair is picked)
        jumps: list[np.ndarray] = []
        covered = 0
        expect = int(total * p) + 1
        while covered < total:
            draw = rng.geometric(p, size=max(256, expect))
            jumps.append(draw)
            covered += int(draw.sum())
        steps = np.concatenate(jumps).cumsum() - 1
        picks = steps[steps < total]
        # linear index over the n*(n-1) ordered non-loop pairs
        src, off = picks // (n - 1), picks % (n - 1)
        dst = np.where(off < src, off, off + 1)
    return DirectedGraph(n, src, dst)


@dataclass
class SmallWorldReport:
    """Paired real/random metrics plus the ratios and sigma.

    A ratio (and then sigma) is None when the random twin degenerates, for
    example a triangle-free random graph gives C_r = 0; `undefined` maps
    each missing ratio to the reason.
    """

    real_metrics: MetricsReport
    random_metrics: Optional[MetricsReport]
    acc_ratio: Optional[float]
    aspl_ratio: Optional[float]
    sigma: Optional[float]
    undefined: dict[str, str] = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "real": self.real_metrics.to_json_dict(),
            "random": self.random_metrics.to_json_dict() if self.random_metrics else None,
            "acc_ratio": self.acc_ratio,
            "aspl_ratio": self.aspl_ratio,
            "sigma": self.sigma,
            "undefined": self.undefined,
            "seeds": self.seeds,
        }


def ratios_and_sigma(
    acc: float, random_acc: float, aspl: float, random_aspl: float
) -> tuple[Optional[float], Optional[float], Optional[float], dict[str, str]]:
    """The ratio/sigma arithmetic, factored out so it can run on published
    table values as well as on freshly measured ones."""
    undefined: dict[str, str] = {}
    acc_ratio = aspl_ratio = sigma = None
    if random_acc == 0.0:
        undefined["acc_ratio"] = "random graph clustering coefficient is zero"
    else:
        acc_ratio = acc / random_acc
    if random_aspl == 0.0:
        undefined["aspl_ratio"] = "random graph ASPL is zero"
    else:
        aspl_ratio = aspl / random_aspl
    if acc_ratio is None or aspl_ratio is None:
        undefined["sigma"] = "needs both ratios"
    elif aspl_ratio == 0.0:
        undefined["sigma"] = "ASPL ratio is zero"
    else:
        sigma = acc_ratio / aspl_ratio
    return acc_ratio, aspl_ratio, sigma, undefined


def small_world_compare(
    real: DirectedGraph,
    plan: SamplePlan,
    seed: int = 0,
    hub_count: int = 10,
    workers: int = 1,
    edge_reuse_ratio: Optional[float] = None,
) -> SmallWorldReport:
    """Draw the size-matched random twin of `real`, measure it with the
    same sampling plan, then measure `real`, and combine the ratios into
    sigma.

    The twin is drawn from `real`'s node and arc counts alone and dropped
    once measured, so only one graph's analysis state (its component
    labels, undirected edge list, cuts) is alive at a time; a `real` that
    cannot be measured therefore fails after its twin was measured. Sigma
    reads only the twin's clustering and ASPL, so the twin gets no hub
    load: its report's `hub_load` is empty. Each phase (random generation,
    random metrics, real metrics) logs its time through
    `ledgergraph._stage`."""
    if real.node_count == 0:
        raise ValueError("cannot compare an empty graph")

    with _stage("random generation"):
        random_graph = erdos_renyi(RandomGraphSpec(
            node_count=real.node_count, edge_count=real.arc_count, seed=seed))
    with _stage("random metrics"):
        try:
            random_metrics = build_metrics_report(random_graph, plan, hub_count=0, workers=workers)
        except ValueError as exc:
            random_metrics = acc_ratio = aspl_ratio = sigma = None
            reason = f"random graph is degenerate: {exc}"
            undefined = {"aspl_ratio": reason, "acc_ratio": reason, "sigma": "needs both ratios"}
    del random_graph
    with _stage("real metrics"):
        real_metrics = build_metrics_report(real, plan, hub_count=hub_count, workers=workers,
                                            edge_reuse_ratio=edge_reuse_ratio)
    if random_metrics is not None:
        acc_ratio, aspl_ratio, sigma, undefined = ratios_and_sigma(
            real_metrics.graph_acc, random_metrics.graph_acc,
            real_metrics.main_component_aspl, random_metrics.main_component_aspl)

    return SmallWorldReport(
        real_metrics=real_metrics, random_metrics=random_metrics, acc_ratio=acc_ratio,
        aspl_ratio=aspl_ratio, sigma=sigma, undefined=undefined,
        seeds={"random_graph": seed, "sample": plan.seed})
