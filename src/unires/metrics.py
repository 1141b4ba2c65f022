"""Whole-network metrics, centrality scores, and degree-tail fitting.

All measures treat edges as unweighted presence and paths as directed with
unit lengths.  Conventions that the literature leaves open are pinned here:

* density uses the active vertices (those touching at least one edge) as
  its primary basis; the all-vertices figure is reported alongside.
* characteristic path length averages over ordered pairs at finite
  directed distance only.
* closeness is reach-adjusted: ``r**2 / ((n_active - 1) * sum_of_dists)``
  over the ``r`` vertices that reach (or are reached, for the out variant).
* the directed clustering coefficient counts triangles of every
  orientation pattern, normalized per vertex by
  ``d_tot * (d_tot - 1) - 2 * d_reciprocal``, averaged where that is > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import DomainError, Graph
from .spectral import NumericalError

CENTRALITY_METRICS = (
    "in_degree",
    "out_degree",
    "in_closeness",
    "out_closeness",
    "betweenness",
    "hub",
    "authority",
    "pagerank",
)

MAX_ITERATIONS = 10_000
POWER_TOL = 1e-12
PATH_COUNT_LIMIT = 2.0**53  # float64 counts paths exactly below this


class DegenerateFitError(NumericalError):
    """The degree distribution has no spread to fit."""


@dataclass(frozen=True)
class MetricsReport:
    vertex_count: int
    active_vertex_count: int
    edge_count: int
    density: float
    density_all_vertices: float
    reciprocity: float
    diameter: int
    characteristic_path_length: float
    mean_clustering_directed: float


@dataclass(frozen=True)
class CentralityTable:
    """Per-vertex scores for the eight centrality metrics."""

    vertices: tuple[str, ...]
    scores: dict[str, dict[str, float]]


@dataclass(frozen=True)
class DegreeFit:
    """Maximum-entropy exponential fit of the total-degree distribution.

    The fitted law is ``exp(-lam * (d - d_min))`` on ``[d_min, inf)`` with
    the rate matched to the empirical mean, so the fitted CCDF is exactly 1
    at the minimum observed degree.
    """

    degrees: tuple[int, ...]
    lam: float
    d_min: int
    mean: float
    ccdf_points: tuple[tuple[int, float, float], ...]


def _adjacency(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense 0/1 adjacency and sorted-row CSR ``(indptr, indices)`` over dense ids."""
    src, dst, _ = g.arrays
    n = len(g.vertices)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    indices = dst[np.argsort(src * n + dst)]
    a = np.zeros((n, n))
    a[src, dst] = 1.0
    return a, indptr, indices


def _bfs(indptr: np.ndarray, indices: np.ndarray, with_arcs: bool = True):
    """Level-synchronous BFS from each vertex with an out-edge, in id order,
    at O(n + m) array work per source.  Yields ``(source, levels, dist,
    arcs)``: each level's vertex ids in the discovery order of a FIFO-queue
    BFS, distances (-1 where unreached), and per level after the first the
    shortest-path arcs ``(tails, heads)`` into it (none without
    ``with_arcs``)."""
    n = len(indptr) - 1
    has_in = np.bincount(indices, minlength=n) > 0  # the only vertices a BFS reaches
    for source in np.flatnonzero(np.diff(indptr)).tolist():
        dist = np.full(n, -1, dtype=np.int64)
        dist[source] = 0
        levels, arcs = [np.array([source])], []
        unreached = int(has_in.sum()) - int(has_in[source])
        while unreached:
            frontier = levels[-1]
            starts = indptr[frontier]
            degree = indptr[frontier + 1] - starts
            ends = np.cumsum(degree)
            # Every out-edge of the frontier, row after row, as CSR positions.
            heads = indices[np.arange(ends[-1]) + np.repeat(starts - ends + degree, degree)]
            # An arc into an unvisited head lies on a shortest path.
            on_path = dist[heads] < 0
            fresh = heads[on_path]
            if not fresh.size:
                break
            # The next level in order of first appearance among the heads.
            first = np.full(n, fresh.size)
            np.minimum.at(first, fresh, np.arange(fresh.size))
            level = fresh[np.sort(first[first < fresh.size])]
            dist[level] = len(levels)
            if with_arcs:
                arcs.append((np.repeat(frontier, degree)[on_path], fresh))
            levels.append(level)
            unreached -= level.size
        yield source, levels, dist, arcs


def _clustering_directed(a: np.ndarray) -> float:
    s = a + a.T
    triangles = ((s @ s) * s).sum(axis=1) / 2.0
    d_tot = a.sum(axis=0) + a.sum(axis=1)
    d_bi = (a * a.T).sum(axis=1)
    denom = d_tot * (d_tot - 1.0) - 2.0 * d_bi
    mask = denom > 0
    if not mask.any():
        return 0.0
    return float((triangles[mask] / denom[mask]).mean())


def metrics_report(g: Graph) -> MetricsReport:
    """The seven summary metrics of one network.

    Raises :class:`~unires.graph.DomainError` for an edgeless graph (the
    path-based quantities would be undefined).
    """
    m = g.edge_count
    if m == 0:
        raise DomainError("metrics need at least one edge")
    n = len(g.vertices)
    n_active = len(g.active_vertices())
    a, indptr, indices = _adjacency(g)
    total = finite_pairs = diameter = 0
    for _, levels, _, _ in _bfs(indptr, indices, with_arcs=False):
        total += sum(d * len(level) for d, level in enumerate(levels))
        finite_pairs += sum(map(len, levels)) - 1
        diameter = max(diameter, len(levels) - 1)
    return MetricsReport(
        vertex_count=n,
        active_vertex_count=n_active,
        edge_count=m,
        density=m / (n_active * (n_active - 1)),
        density_all_vertices=m / (n * (n - 1)) if n > 1 else 0.0,
        reciprocity=int((a * a.T).sum()) / m,
        diameter=diameter,
        characteristic_path_length=total / finite_pairs,
        mean_clustering_directed=_clustering_directed(a),
    )


def _dependencies(levels, arcs, n: int) -> np.ndarray:
    """Brandes (2001) dependencies on one BFS source, bit-identical to a
    queue-based loop over integer path counts: the counts are exact below
    ``PATH_COUNT_LIMIT`` (reaching it raises), and ``np.bincount`` adds each
    vertex's terms in the loop's order, heads in reverse discovery order."""
    sigma = np.zeros(n)
    sigma[levels[0]] = 1.0
    for tails, heads in arcs:
        sigma += np.bincount(heads, sigma[tails], minlength=n)
    if sigma.max() >= PATH_COUNT_LIMIT:
        raise NumericalError("a shortest-path count reaches 2**53; betweenness would be inexact")
    position = np.empty(n, dtype=np.int64)
    position[np.concatenate(levels)] = np.arange(sum(map(len, levels)))
    delta = np.zeros(n)
    for tails, heads in reversed(arcs):
        # Equal heads come in any order: their terms go to distinct tails.
        back = np.argsort(-position[heads])
        tails, heads = tails[back], heads[back]
        delta += np.bincount(tails, sigma[tails] / sigma[heads] * (1.0 + delta[heads]), minlength=n)
    delta[levels[0]] = 0.0
    return delta


def _hits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = a.shape[0]
    hub = np.full(n, 1.0 / math.sqrt(n))
    auth = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(MAX_ITERATIONS):
        new_auth = a.T @ hub
        norm = np.linalg.norm(new_auth)
        if norm > 0:
            new_auth /= norm
        new_hub = a @ new_auth
        norm = np.linalg.norm(new_hub)
        if norm > 0:
            new_hub /= norm
        delta = max(
            np.linalg.norm(new_auth - auth) / max(np.linalg.norm(new_auth), 1e-300),
            np.linalg.norm(new_hub - hub) / max(np.linalg.norm(new_hub), 1e-300),
        )
        hub, auth = new_hub, new_auth
        if delta <= POWER_TOL:
            return hub, auth
    raise NumericalError("hubs/authorities power iteration did not converge")


def _pagerank(a: np.ndarray, damping: float) -> np.ndarray:
    n = a.shape[0]
    out_degree = a.sum(axis=1)
    dangling = out_degree == 0
    transition = np.divide(a, out_degree[:, None], out=np.zeros_like(a), where=out_degree[:, None] > 0)
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(MAX_ITERATIONS):
        new_x = damping * (transition.T @ x) + teleport
        new_x += damping * x[dangling].sum() / n
        if np.abs(new_x - x).sum() <= POWER_TOL:
            return new_x
        x = new_x
    raise NumericalError("pagerank power iteration did not converge")


def centrality_suite(g: Graph, pagerank_damping: float = 0.85) -> CentralityTable:
    """All eight centrality scores for every vertex.

    Raises :class:`~unires.graph.DomainError` on an edgeless graph and
    :class:`~unires.spectral.NumericalError` if a power iteration fails to
    converge within 10^4 steps or if some pair has 2**53 or more shortest
    paths, beyond which betweenness could not be exact.
    """
    if g.edge_count == 0:
        raise DomainError("centrality needs at least one edge")
    if not 0.0 < pagerank_damping < 1.0:
        raise DomainError(f"pagerank damping must be in (0, 1), got {pagerank_damping!r}")
    names = g.vertices
    n = len(names)
    n_active = len(g.active_vertices())
    a, indptr, indices = _adjacency(g)

    # One BFS per source serves closeness and betweenness alike.
    sum_out, reach_out, sum_in, reach_in = np.zeros((4, n), dtype=np.int64)
    betweenness = np.zeros(n)
    for source, levels, dist, arcs in _bfs(indptr, indices):
        reached = np.maximum(dist, 0)
        sum_out[source], reach_out[source] = reached.sum(), np.count_nonzero(reached)
        sum_in += reached
        reach_in += reached > 0
        betweenness += _dependencies(levels, arcs, n)

    def closeness(reach: np.ndarray, sums: np.ndarray) -> dict[str, float]:
        # On Python ints, so each score is the exact ratio rounded once.
        pairs = zip(names, reach.tolist(), sums.tolist())
        return {v: r * r / ((n_active - 1) * s) if s else 0.0 for v, r, s in pairs}

    hub, auth = _hits(a)
    pagerank = _pagerank(a, pagerank_damping)

    scores = {
        "in_degree": dict(zip(names, a.sum(axis=0).tolist())),
        "out_degree": dict(zip(names, a.sum(axis=1).tolist())),
        "in_closeness": closeness(reach_in, sum_in),
        "out_closeness": closeness(reach_out, sum_out),
        "betweenness": dict(zip(names, betweenness.tolist())),
        "hub": dict(zip(names, hub.tolist())),
        "authority": dict(zip(names, auth.tolist())),
        "pagerank": dict(zip(names, pagerank.tolist())),
    }
    return CentralityTable(names, scores)


def top_k(table: CentralityTable, k: int) -> dict[str, list[tuple[int, str, float]]]:
    """Per metric, the ``k`` best vertices as (rank, name, score) rows.

    Ties break by vertex name; ``k`` beyond the vertex count truncates.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    ranked: dict[str, list[tuple[int, str, float]]] = {}
    for metric in CENTRALITY_METRICS:
        by_score = sorted(table.scores[metric].items(), key=lambda it: (-it[1], it[0]))
        ranked[metric] = [(rank, name, score) for rank, (name, score) in enumerate(by_score[:k], start=1)]
    return ranked


def degree_fit(g: Graph) -> DegreeFit:
    """Exponential tail fit of the total-degree distribution.

    Matches the empirical mean on ``[d_min, inf)``, giving the rate
    ``1 / (mean - d_min)``.  Raises :class:`~unires.graph.DomainError` for
    an edgeless graph and :class:`DegenerateFitError` when all degrees
    coincide.
    """
    if g.edge_count == 0:
        raise DomainError("degree fit needs at least one edge")
    degrees = sorted(g.degree(v) for v in g.vertices)
    if len(set(degrees)) < 2:
        raise DegenerateFitError("all degrees are equal; nothing to fit")
    d_min = degrees[0]
    mean = sum(degrees) / len(degrees)
    lam = 1.0 / (mean - d_min)
    n = len(degrees)
    points = []
    at_least = n
    i = 0
    for d in sorted(set(degrees)):
        while i < n and degrees[i] < d:
            i += 1
            at_least -= 1
        points.append((d, at_least / n, math.exp(-lam * (d - d_min))))
    return DegreeFit(tuple(degrees), lam, d_min, mean, tuple(points))
