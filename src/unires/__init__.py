"""Uniresolution conversion and analysis of hierarchical connectivity networks."""

from .graph import (
    DomainError,
    Edge,
    Graph,
    Hierarchy,
    ParseError,
    ValidationError,
    load_graph,
    load_hierarchy,
    on_tree,
    serialize_graph,
    serialize_hierarchy,
)
from .metrics import (
    CentralityTable,
    DegenerateFitError,
    DegreeFit,
    MetricsReport,
    centrality_suite,
    degree_fit,
    metrics_report,
    top_k,
)
from .resolution import (
    ResolutionResult,
    disinherit,
    inherit,
    kron_sampling,
)
from .spectral import NumericalError

__version__ = "0.2.0"

__all__ = [
    "CentralityTable",
    "DegenerateFitError",
    "DegreeFit",
    "DomainError",
    "Edge",
    "Graph",
    "Hierarchy",
    "MetricsReport",
    "NumericalError",
    "ParseError",
    "ResolutionResult",
    "ValidationError",
    "centrality_suite",
    "degree_fit",
    "disinherit",
    "inherit",
    "kron_sampling",
    "load_graph",
    "load_hierarchy",
    "metrics_report",
    "on_tree",
    "serialize_graph",
    "serialize_hierarchy",
    "top_k",
]
