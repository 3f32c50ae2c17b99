"""Transaction-graph reconstruction and small-world analysis for DLTs."""

__version__ = "0.1.0"

from .graph import (
    Component,
    DirectedGraph,
    induced_subgraph,
    main_component,
    strongly_connected_components,
    undirected_projection,
    weakly_connected_components,
)
from .metrics import (
    DegreeHistogram,
    MetricsReport,
    SamplePlan,
    aspl,
    average_clustering,
    build_metrics_report,
    clustering_coefficient,
    degree_distribution,
    load_centrality,
)
from .nullmodel import (
    RandomGraphSpec,
    SmallWorldReport,
    erdos_renyi,
    ratios_and_sigma,
    small_world_compare,
)
from .pajek import PajekParseError, read_pajek, write_pajek
from .records import (
    IngestionStats,
    RecordSchemaError,
    TransactionRecord,
    build_graph,
    map_to_edges,
    read_dump,
    read_dump_lenient,
    write_dump,
)
from .fetch import (
    BackoffPolicy,
    FetchError,
    FetchJob,
    FetchResult,
    fetch_transactions,
)

__all__ = [
    "BackoffPolicy",
    "Component",
    "DegreeHistogram",
    "DirectedGraph",
    "FetchError",
    "FetchJob",
    "FetchResult",
    "IngestionStats",
    "MetricsReport",
    "PajekParseError",
    "RandomGraphSpec",
    "RecordSchemaError",
    "SamplePlan",
    "SmallWorldReport",
    "TransactionRecord",
    "aspl",
    "average_clustering",
    "build_graph",
    "build_metrics_report",
    "clustering_coefficient",
    "degree_distribution",
    "erdos_renyi",
    "fetch_transactions",
    "induced_subgraph",
    "load_centrality",
    "main_component",
    "map_to_edges",
    "ratios_and_sigma",
    "read_dump",
    "read_dump_lenient",
    "read_pajek",
    "small_world_compare",
    "strongly_connected_components",
    "undirected_projection",
    "weakly_connected_components",
    "write_dump",
    "write_pajek",
]
