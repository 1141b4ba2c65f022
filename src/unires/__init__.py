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
    edge_order,
    inherit,
    kron_sampling,
)
from .spectral import NumericalError, effective_resistance

__version__ = "0.1.0"

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
    "edge_order",
    "effective_resistance",
    "inherit",
    "kron_sampling",
    "load_graph",
    "load_hierarchy",
    "metrics_report",
    "serialize_graph",
    "serialize_hierarchy",
    "top_k",
]
