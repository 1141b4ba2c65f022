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
* every path quantity comes from one multi-source BFS (:func:`_distances`);
  betweenness runs Brandes on its distance rows, equal bit for bit to a
  FIFO-queue loop over integer path counts, and refuses counts of 2**53.
  A graph with ``m >= n_active**2 / 4`` takes the dense kernel
  (:func:`_dependencies_dense`), whose 0/1 in-adjacency over the active
  vertices is ``n_active**2 <= 4m`` bytes; a sparser one takes batches of
  sources over the arcs (:func:`_dependencies`).  Both keep the loop's
  three orders: a level's queue order, by first predecessor and then id
  (dense: the first ``True`` of a row whose columns are in queue order);
  each dependency summed over heads in reverse queue order (dense:
  sequentially, row by row); and the sources' rows added to the scores
  one at a time, in name order.
* hub, authority and PageRank iterate mat-vecs over the arcs sorted by
  head, ``np.bincount`` summing each vertex's terms in arc order, and take
  every norm and sum with ``math.fsum``.  The only BLAS products left are
  exact: the dense path counts (0/1 blocks times integers below 2**53)
  and the clustering's ``s @ s`` (integers of at most 4n).  So no output
  depends on the BLAS build.
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
GATHER_WORDS = 2**19  # frontier words one BFS level gathers, 8 bytes each
BATCH_ARCS = 2**16  # (source, arc) candidates one Brandes batch tests
# Brandes runs on dense level blocks once m >= DENSE_DENSITY * n_active**2,
# with n_active the vertices that touch an arc, so their 0/1 matrix over
# those vertices takes at most 4m bytes.  With one BLAS thread on random
# digraphs, dense blocks broke even with the batches at a density of about
# 0.3, 0.23, 0.15 and 0.08 for n = 100, 150, 300 and 600, and took 8.4 s
# against 1.6 s on a kron output of density 0.015 at n = 1400.  Under
# n = 100 they lose by at most a few milliseconds, all per-source overhead.
DENSE_DENSITY = 0.25


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
    """The arcs sorted by head, then tail, and their CSR over heads:
    ``tails[indptr[v]:indptr[v + 1]]`` are the in-neighbours of ``v``."""
    n = len(g.vertices)
    order = np.argsort(g.dst * n + g.src)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(g.dst, minlength=n))))
    return g.dst[order], g.src[order], indptr


def _distances(indptr: np.ndarray, tails: np.ndarray):
    """BFS distances from every vertex with an out-edge, in id order.

    Multi-source BFS (Then et al., PVLDB 8(4), 2014): each vertex holds one
    bit per source, 64 to a ``uint64`` word, and one level is an OR over
    each vertex's in-arcs of the frontier bits, minus the bits already
    seen, at O(m) word operations per level and 64 sources.  Yields
    ``(sources, dist)`` chunks of at most ``64 * max(1, GATHER_WORDS // m)``
    sources, where ``dist[i, v]`` is the exact distance from ``sources[i]``
    to ``v`` (-1 where unreached).
    """
    n = len(indptr) - 1
    sources = np.flatnonzero(np.bincount(tails, minlength=n))
    heads = np.flatnonzero(np.diff(indptr))  # the only vertices a BFS reaches
    starts = indptr[heads]
    words = max(1, GATHER_WORDS // len(tails))
    for lo in range(0, len(sources), 64 * words):
        chunk = sources[lo:lo + 64 * words]
        bit = np.arange(len(chunk))
        frontier = np.zeros((n, -(-len(chunk) // 64)), dtype=np.uint64)
        frontier[chunk, bit // 64] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
        seen = frontier.copy()
        dist = np.full((len(chunk), n), -1, dtype=np.int32)
        dist[bit, chunk] = 0
        level = 0
        while frontier.any():
            level += 1
            fresh = np.bitwise_or.reduceat(frontier[tails], starts, axis=0) & ~seen[heads]
            seen[heads] |= fresh
            frontier[:] = 0
            frontier[heads] = fresh
            bits = np.unpackbits(frontier.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little")
            dist[bits[:, :len(chunk)].T.view(bool)] = level
        yield chunk, dist


def _clustering_directed(heads: np.ndarray, tails: np.ndarray, d_tot: np.ndarray, mutual: np.ndarray) -> float:
    # s is a + a.T, so each entry of s @ s is an integer of at most 4n, exact in any summation order.
    n = len(d_tot)
    s = np.zeros((n, n))
    s[tails, heads] = 1.0
    s[heads, tails] += 1.0
    triangles = ((s @ s) * s).sum(axis=1) / 2.0
    d_bi = np.bincount(tails[mutual], minlength=n)
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
    heads, tails, indptr = _adjacency(g)
    d_tot = np.diff(indptr) + np.bincount(tails, minlength=n)
    n_active = int(np.count_nonzero(d_tot))
    mutual = np.isin(tails * n + heads, heads * n + tails)  # the arcs whose reverse is an arc too
    total = finite_pairs = diameter = 0
    for _, dist in _distances(indptr, tails):
        total += int(np.maximum(dist, 0).sum(dtype=np.int64))
        finite_pairs += int(np.count_nonzero(dist > 0))
        diameter = max(diameter, int(dist.max()))
    del dist  # the clustering's dense temporaries need not sit on top of it
    return MetricsReport(
        vertex_count=n,
        active_vertex_count=n_active,
        edge_count=m,
        density=m / (n_active * (n_active - 1)),
        density_all_vertices=m / (n * (n - 1)) if n > 1 else 0.0,
        reciprocity=int(np.count_nonzero(mutual)) / m,
        diameter=diameter,
        characteristic_path_length=total / finite_pairs,
        mean_clustering_directed=_clustering_directed(heads, tails, d_tot, mutual),
    )


def _runs(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices ``starts[i]:starts[i] + sizes[i]``, run after run."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1])


def _dependencies(dist: np.ndarray, sources: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Brandes (2001) dependencies on a batch of BFS sources, one row each.

    ``dist`` holds the sources' distance rows and ``heads``/``tails`` the
    arcs sorted by head.  Each row is bit-identical to a FIFO-queue loop
    over integer path counts: the counts are exact below
    ``PATH_COUNT_LIMIT`` (reaching it raises), and ``np.bincount`` adds
    each vertex's terms in the loop's order, heads in reverse discovery
    order.  The queue meets a level's vertices in the order of their first
    predecessor, then by id.  A row's vertices are ``row * n + vertex``.
    """
    b, n = dist.shape
    m = len(tails)
    # With unreached as n, an arc is on a shortest path iff its head lies one level past its tail.
    depth = np.where(dist < 0, n, dist)
    hit = np.flatnonzero(np.take(depth, tails, axis=1) + 1 == np.take(depth, heads, axis=1))
    row, arc = np.divmod(hit, m)
    tail, head = row * n + tails[arc], row * n + heads[arc]
    count = np.bincount(head, minlength=b * n)  # each head's shortest-path arcs are one run
    start = np.cumsum(count) - count

    flat = dist.ravel()
    reached = np.flatnonzero(flat > 0)
    reached = reached[np.argsort(flat[reached], kind="stable")]
    bounds = np.searchsorted(flat[reached], np.arange(1, flat.max() + 2))
    roots = np.arange(b) * n + sources
    sigma = np.zeros(b * n)
    sigma[roots] = 1.0
    position = np.zeros(b * n, dtype=np.int64)  # increases along each row's queue
    position[roots] = np.arange(b)
    levels = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        level = reached[lo:hi]
        t = tail[_runs(start[level], count[level])]
        first = np.cumsum(count[level]) - count[level]
        sigma[level] = np.add.reduceat(sigma[t], first)
        level = level[np.argsort(np.minimum.reduceat(position[t], first), kind="stable")]
        position[level] = np.arange(b + lo, b + hi)
        levels.append(level)
    if sigma.max() >= PATH_COUNT_LIMIT:
        raise NumericalError("a shortest-path count reaches 2**53; betweenness would be inexact")
    delta = np.zeros(b * n)
    for level in reversed(levels):
        level = level[::-1]
        arcs = _runs(start[level], count[level])
        t, h = tail[arcs], head[arcs]
        delta += np.bincount(t, sigma[t] / sigma[h] * (1.0 + delta[h]), minlength=b * n)
    delta[roots] = 0.0
    return delta.reshape(b, n)


def _dependencies_dense(at: np.ndarray, dist: np.ndarray, source: int) -> np.ndarray:
    """Brandes (2001) dependencies of one source, level by level on 0/1
    blocks ``at[level][:, prev]`` of the in-adjacency (``at[h, t]`` is the
    arc ``t -> h``), the columns in the previous level's queue order.

    Bit-identical to the FIFO-queue loop, as :func:`_dependencies` is.
    ``argmax`` along a row finds a vertex's first predecessor in the queue,
    and a stable sort by it gives the level's queue order.  The path counts
    are one mat-vec per level, exact under every BLAS: each product is 0/1
    times an integer, and no partial sum exceeds the count, so all are
    exact while counts stay below ``PATH_COUNT_LIMIT`` (reaching it raises
    before any dependency is summed).  The terms form a matrix with heads,
    in reverse queue order, as rows; summing it along axis 0 adds row after
    row, the loop's order.  NumPy would sum a single column pairwise, so
    that case accumulates instead.
    """
    order = np.argsort(dist, kind="stable")  # unreached, then level by level in id order
    ends = np.cumsum(np.bincount(dist + 1))
    sigma = np.zeros(len(dist))
    sigma[source] = 1.0
    queue = [order[ends[0]:ends[1]]]
    for lo, hi in zip(ends[1:-1], ends[2:]):
        level = order[lo:hi]
        block = at[level][:, queue[-1]]
        sigma[level] = block.astype(float) @ sigma[queue[-1]]
        queue.append(level[np.argsort(block.argmax(axis=1), kind="stable")])
    if not sigma.max() < PATH_COUNT_LIMIT:  # NaN too: inf * 0 in the mat-vec
        raise NumericalError("a shortest-path count reaches 2**53; betweenness would be inexact")
    delta = np.zeros(len(dist))
    for d in range(len(queue) - 1, 1, -1):
        heads, prev = queue[d][::-1], queue[d - 1]
        terms = sigma[prev] / sigma[heads, None]
        terms *= 1.0 + delta[heads, None]
        terms *= at[heads][:, prev].astype(float)
        delta[prev] = terms.sum(axis=0) if len(prev) > 1 else np.add.accumulate(terms[:, 0])[-1]
    return delta


def _norm(x: np.ndarray) -> float:
    return math.sqrt(math.fsum(x * x))


def _hits(heads: np.ndarray, tails: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    hub = auth = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(MAX_ITERATIONS):
        new_auth = np.bincount(heads, hub[tails], minlength=n)
        new_auth /= _norm(new_auth) or 1.0
        new_hub = np.bincount(tails, new_auth[heads], minlength=n)
        new_hub /= _norm(new_hub) or 1.0
        delta = max(_norm(new_auth - auth) / max(_norm(new_auth), 1e-300),
                    _norm(new_hub - hub) / max(_norm(new_hub), 1e-300))
        hub, auth = new_hub, new_auth
        if delta <= POWER_TOL:
            return hub, auth
    raise NumericalError("hubs/authorities power iteration did not converge")


def _pagerank(heads: np.ndarray, tails: np.ndarray, out_degree: np.ndarray, damping: float) -> np.ndarray:
    n = len(out_degree)
    share = 1.0 / out_degree[tails]  # each arc's transition probability
    dangling = out_degree == 0
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(MAX_ITERATIONS):
        new_x = damping * np.bincount(heads, x[tails] * share, minlength=n) + teleport
        new_x += damping * math.fsum(x[dangling]) / n
        if math.fsum(np.abs(new_x - x)) <= POWER_TOL:
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
    heads, tails, indptr = _adjacency(g)
    in_degree, out_degree = np.diff(indptr), np.bincount(tails, minlength=n)
    active = np.flatnonzero(in_degree + out_degree)
    n_active = len(active)
    dense = g.edge_count >= DENSE_DENSITY * n_active * n_active
    if dense:  # on the active vertices' ids alone: an edge-free vertex scores 0.0
        at = np.zeros((n_active, n_active), dtype=bool)  # the arc t -> h at [h, t]; n_active**2 <= 4m bytes
        at[np.searchsorted(active, heads), np.searchsorted(active, tails)] = True

    # One multi-source BFS serves closeness and betweenness alike.
    sum_out, reach_out, sum_in, reach_in = np.zeros((4, n), dtype=np.int64)
    betweenness = np.zeros(n)
    total = np.zeros(n_active) if dense else betweenness  # where a kernel's rows add up
    batch = max(1, BATCH_ARCS // g.edge_count)
    for sources, dist in _distances(indptr, tails):
        if dense:
            rows = (_dependencies_dense(at, row, place)
                    for row, place in zip(dist[:, active], np.searchsorted(active, sources)))
        else:
            rows = (row for lo in range(0, len(sources), batch)
                    for row in _dependencies(dist[lo:lo + batch], sources[lo:lo + batch], heads, tails))
        for row in rows:
            total += row
        hops = np.maximum(dist, 0)
        sum_out[sources] = hops.sum(axis=1, dtype=np.int64)
        reach_out[sources] = np.count_nonzero(hops, axis=1)
        sum_in += hops.sum(axis=0, dtype=np.int64)
        reach_in += np.count_nonzero(hops, axis=0)
    if dense:
        betweenness[active] = total

    def closeness(reach: np.ndarray, sums: np.ndarray) -> dict[str, float]:
        # On Python ints, so each score is the exact ratio rounded once.
        pairs = zip(names, reach.tolist(), sums.tolist())
        return {v: r * r / ((n_active - 1) * s) if s else 0.0 for v, r, s in pairs}

    hub, auth = _hits(heads, tails, n)
    pagerank = _pagerank(heads, tails, out_degree, pagerank_damping)

    scores = {
        "in_degree": dict(zip(names, in_degree.astype(float).tolist())),
        "out_degree": dict(zip(names, out_degree.astype(float).tolist())),
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
    degrees = np.sort(np.bincount(np.concatenate((g.src, g.dst)), minlength=len(g.vertices)))
    distinct, n = np.unique(degrees), len(degrees)
    if len(distinct) < 2:
        raise DegenerateFitError("all degrees are equal; nothing to fit")
    at_least = (n - np.searchsorted(degrees, distinct)).tolist()  # Python ints, for at_least / n
    degrees = degrees.tolist()
    d_min = degrees[0]
    mean = sum(degrees) / n
    lam = 1.0 / (mean - d_min)
    points = [(d, a / n, math.exp(-lam * (d - d_min))) for d, a in zip(distinct.tolist(), at_least)]
    return DegreeFit(tuple(degrees), lam, d_min, mean, tuple(points))
