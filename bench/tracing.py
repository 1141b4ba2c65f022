"""In-process tracing of one pipeline run, layer by layer.

Spans are recorded from outside the package: :func:`patched` swaps the
names that ``unires.cli`` and ``unires.resolution`` look up at call time,
plus two ``Graph`` methods, for timing wrappers, and puts the originals
back afterwards.  A name that no longer exists is skipped, so a refactor
that removes a function only removes its span.

Each span is ``[name, start, end, parent, op]``; spans stay in memory and
are written out by the caller.  A span's self time is its duration minus
the durations of its direct children, which run one after another inside
it.  Work counts are taken after the wrapped call returns, inside a
``bench.count`` span, so their cost is excluded from every layer's self
time and shows only in the tracing overhead.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

# Dense n-by-n float64 arrays that one call allocates in the package as it
# stands: metrics_report's clustering builds a, a + a.T, two products and
# a * a.T; centrality_suite builds the adjacency and the PageRank
# transition matrix.
DENSE_MATRICES = {"metrics_report": 5, "centrality_suite": 2}


class Tracer:
    """Spans and work counts of one traced pipeline repeat."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total (inclusive) seconds and self seconds."""
        children = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"total": 0.0, "self": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["total"] += end - start
            row["self"] += end - start - children[i]
        return out


def _wrap(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        top_level = tracer.parent_name() == "cli.main"
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            index = tracer.open("bench.count")
            try:
                count(tracer.counts, result, top_level, *args, **kwargs)
            except (TypeError, AttributeError, KeyError):
                # A refactor changed the call's signature or result: the
                # counts go missing, but the program's run must not fail.
                pass
            finally:
                tracer.close(index)
        return result

    return traced


def _components(g) -> np.ndarray:
    """Connected-component label of each vertex of ``g`` by dense id."""
    idx = g.index
    keys = list(g.weights)
    rows = np.fromiter((idx[u] for u, _ in keys), dtype=np.int64, count=len(keys))
    cols = np.fromiter((idx[v] for _, v in keys), dtype=np.int64, count=len(keys))
    n = len(g.vertices)
    adjacency = coo_matrix((np.ones(len(keys)), (rows, cols)), shape=(n, n))
    return connected_components(adjacency, directed=False)[1]


def _count_conversion(kind: str):
    def count(c, result, top_level, g, t, *args, **kwargs):
        if not top_level:  # inherit counts inside kron_sampling
            return
        n_in, n_out, n_drop = g.edge_count, result.network.edge_count, len(result.dropped)
        c["resolution.input_edges"] += n_in
        c["resolution.output_edges"] += n_out
        c["resolution.dropped"] += n_drop
        c["resolution.candidates"] += sum(len(t.leafset(u)) * len(t.leafset(v)) for u, v in g.weights)
        if kind == "kron":
            # Every kron placement adds a new output edge; an input edge
            # that is neither placed nor dropped joins an existing one.
            c["resolution.guard_merged"] += n_in - n_out - n_drop
            c["resolution.kron_placed"] += n_out
            c["resolution.kron_input_edges"] += n_in

    return count


def _count_kron_reduce(c, result, top_level, g, retain, *args, **kwargs):
    labels = _components(g)
    keep = np.zeros(len(g.vertices), dtype=bool)
    keep[[g.index[v] for v in set(retain)]] = True
    size = np.bincount(labels)
    kept = np.bincount(labels, weights=keep)
    for e, k in zip((size - kept).tolist(), kept.tolist()):
        if k and e:
            c["spectral.eliminated"] += int(e)
            # Cholesky of the elimination block, solve for k right-hand
            # sides, and the k-by-e by e-by-k product.
            c["spectral.chol_flops_computed"] += int(e**3 / 3 + 2 * e * e * k + 2 * k * k * e)
    c["spectral.retained"] += int(keep.sum())
    c["spectral.reduced_edges"] += result.edge_count


def _count_resistance(c, result, top_level, g, pairs, *args, **kwargs):
    c["spectral.resistance_pairs"] += len(result)
    labels = _components(g)
    idx = g.index
    solved = {labels[idx[u]] for u, v in result if u != v and labels[idx[u]] == labels[idx[v]]}
    size = np.bincount(labels)
    for comp in solved:
        m = int(size[comp]) - 1
        # Cholesky of the grounded block, then m right-hand sides.
        c["spectral.chol_flops_computed"] += int(m**3 / 3 + 2 * m**3)


def _count_metrics(kind: str):
    bfs_passes = {"metrics_report": 1, "centrality_suite": 2}.get(kind, 0)

    def count(c, result, top_level, g, *args, **kwargs):
        c["metrics.edges"] += g.edge_count
        if bfs_passes:
            n = len(g.vertices)
            c["metrics.bfs_sources"] += bfs_passes * sum(1 for v in g.vertices if g.out_map[v])
            c["metrics.dense_bytes_computed"] += DENSE_MATRICES[kind] * 8 * n * n

    return count


def _count_validate(c, result, top_level, graph, *args, **kwargs):
    c["graph.constructions"] += 1
    c["graph.edges_validated"] += len(graph.weights)


# (module, class or None, attribute, span name, count hook)
TARGETS = [
    ("unires.cli", None, "load_graph", "graph.load_graph", None),
    ("unires.cli", None, "load_hierarchy", "graph.load_hierarchy", None),
    ("unires.cli", None, "serialize_graph", "graph.serialize_graph", None),
    ("unires.cli", None, "inherit", "resolution.inherit", _count_conversion("inherit")),
    ("unires.cli", None, "disinherit", "resolution.disinherit", _count_conversion("disinherit")),
    ("unires.cli", None, "kron_sampling", "resolution.kron_sampling", _count_conversion("kron")),
    ("unires.cli", None, "effective_resistance", "spectral.effective_resistance", _count_resistance),
    ("unires.cli", None, "metrics_report", "metrics.metrics_report", _count_metrics("metrics_report")),
    ("unires.cli", None, "centrality_suite", "metrics.centrality_suite", _count_metrics("centrality_suite")),
    ("unires.cli", None, "top_k", "metrics.top_k", None),
    ("unires.cli", None, "degree_fit", "metrics.degree_fit", _count_metrics("degree_fit")),
    ("unires.resolution", None, "inherit", "resolution.inherit", None),
    ("unires.resolution", None, "edge_order", "resolution.edge_order", None),
    ("unires.resolution", None, "probability_weights", "resolution.probability_weights", None),
    ("unires.resolution", None, "kron_reduce", "spectral.kron_reduce", _count_kron_reduce),
    ("unires.resolution", None, "effective_resistance", "spectral.effective_resistance", _count_resistance),
    ("unires.graph", "Graph", "__post_init__", "graph.validate", _count_validate),
    ("unires.graph", "Graph", "with_vertices", "graph.with_vertices", None),
]


@contextmanager
def patched(tracer: Tracer):
    """Route the traced names through ``tracer`` while the block runs."""
    undo = []
    try:
        for module_name, class_name, attr, span, count in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            setattr(owner, attr, _wrap(tracer, span, original, count))
            undo.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _seconds(summary, name: str, key: str = "total") -> float:
    return summary[name][key] if name in summary else 0.0


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Per-layer figures of one traced pipeline run, without the import split."""
    s = tracer.summary()
    c = tracer.counts
    placed, attempted = c["resolution.kron_placed"], c["resolution.kron_input_edges"]
    return {
        "cli.self_s": _seconds(s, "cli.main", "self"),
        "cli.bytes_written": bytes_written,
        "graph.load_graph_s": _seconds(s, "graph.load_graph"),
        "graph.load_hierarchy_s": _seconds(s, "graph.load_hierarchy"),
        "graph.with_vertices_s": _seconds(s, "graph.with_vertices"),
        "graph.serialize_graph_s": _seconds(s, "graph.serialize_graph"),
        "graph.validate_s": _seconds(s, "graph.validate", "self"),
        "graph.constructions": c["graph.constructions"],
        "graph.edges_validated": c["graph.edges_validated"],
        "resolution.inherit_s": _seconds(s, "resolution.inherit"),
        "resolution.disinherit_s": _seconds(s, "resolution.disinherit"),
        "resolution.kron_sampling_s": _seconds(s, "resolution.kron_sampling"),
        "resolution.kron_sampling.self_s": _seconds(s, "resolution.kron_sampling", "self"),
        "resolution.probability_weights_s": _seconds(s, "resolution.probability_weights"),
        "resolution.edge_order_s": _seconds(s, "resolution.edge_order"),
        "resolution.input_edges": c["resolution.input_edges"],
        "resolution.output_edges": c["resolution.output_edges"],
        "resolution.dropped": c["resolution.dropped"],
        "resolution.guard_merged": c["resolution.guard_merged"],
        "resolution.candidates": c["resolution.candidates"],
        "resolution.placed_ratio": placed / attempted if attempted else 0.0,
        "spectral.kron_reduce_s": _seconds(s, "spectral.kron_reduce"),
        "spectral.effective_resistance_s": _seconds(s, "spectral.effective_resistance"),
        "spectral.retained": c["spectral.retained"],
        "spectral.eliminated": c["spectral.eliminated"],
        "spectral.reduced_edges": c["spectral.reduced_edges"],
        "spectral.resistance_pairs": c["spectral.resistance_pairs"],
        "spectral.chol_flops_computed": c["spectral.chol_flops_computed"],
        "metrics.metrics_report_s": _seconds(s, "metrics.metrics_report"),
        "metrics.centrality_suite_s": _seconds(s, "metrics.centrality_suite"),
        "metrics.top_k_s": _seconds(s, "metrics.top_k"),
        "metrics.degree_fit_s": _seconds(s, "metrics.degree_fit"),
        "metrics.edges": c["metrics.edges"],
        "metrics.bfs_sources": c["metrics.bfs_sources"],
        "metrics.dense_bytes_computed": c["metrics.dense_bytes_computed"],
        "trace.spans": len(tracer.spans),
    }
