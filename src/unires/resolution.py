"""Rewriting mixed-level connectivity onto a single hierarchy level.

Three conversions, all pure functions of a (network, hierarchy) pair:

* :func:`inherit`      -- every edge is copied down to all descendant-leaf
  pairs of its endpoints (closure semantics); dense, highest resolution.
* :func:`disinherit`   -- every edge is pulled up to the topmost
  connectivity-bearing ancestors of its endpoints, whose subtrees are then
  pruned; sparse, coarse resolution.
* :func:`kron_sampling` -- every edge is represented by exactly one
  leaf-level edge, chosen by the product of effective resistance (after
  eliminating non-leaf vertices) and the inherited report count.

Each returns a :class:`ResolutionResult` whose output network has edges
only at leaves of the output hierarchy, plus an audit trail of where every
input edge went.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import DomainError, Edge, Graph, Hierarchy, check_pair
from .spectral import _kron_resistance

GUARD_MODES = ("any", "directed")

# Kron masses this close (relative) to a candidate set's best tie with it, so
# that rounding in the resistances (BLAS kernel, solve route) decides nothing.
MASS_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class ResolutionResult:
    """Converted network plus its hierarchy and an edge audit trail.

    ``links`` lists each ``(output edge, input edge)`` pair of the trail
    once; ``provenance`` groups it by output edge.  ``dropped`` maps input
    edges to the weight that could not be expressed in the output
    (ancestor-descendant collapses onto the diagonal); for :func:`inherit`
    an edge may appear in both when only its diagonal part was dropped.
    """

    network: Graph
    hierarchy: Hierarchy
    links: list[tuple[Edge, Edge]]
    dropped: dict[Edge, float] = field(default_factory=dict)

    @cached_property
    def provenance(self) -> dict[Edge, frozenset[Edge]]:
        """Each output edge and the set of input edges it represents."""
        sources: dict[Edge, list[Edge]] = {}
        for out_edge, in_edge in self.links:
            sources.setdefault(out_edge, []).append(in_edge)
        return {e: frozenset(srcs) for e, srcs in sources.items()}


def _pairs(names: tuple[str, ...], keys: np.ndarray) -> list[Edge]:
    """The name pairs ``(s, d)`` of keys ``id(s) * n + id(d)``."""
    s, d = np.divmod(keys, len(names))
    return list(zip(map(names.__getitem__, s.tolist()), map(names.__getitem__, d.tolist())))


def _network(t: Hierarchy, keys: np.ndarray, pairs: list[Edge], w: np.ndarray) -> Graph:
    """Edges ``pairs`` (keyed ``keys``) weighted ``w`` over ``t.vertices``,
    all made and checked here, so not validated again."""
    # astype: np.bincount returns int64 when it has nothing to count.
    return Graph._trusted(t.vertices, dict(zip(pairs, w.tolist())), (*np.divmod(keys, len(t.vertices)), w.astype(float)))


def _leaf_pairs(g: Graph, t: Hierarchy):
    """Every input edge, in sorted order, expanded by index arithmetic on
    :attr:`Hierarchy.leaf_ranges` to the leaf pairs ``(s, d)`` under it.

    A pair is keyed ``id(s) * n + id(d)``, ids indexing the name-ordered
    ``t.vertices``, so keys sort like name pairs.  Returns the edges, their
    weights; per listed off-diagonal pair its edge index, key and index into
    the distinct ascending keys ``pairs``; per distinct pair its weight
    summed in sorted-edge order, as a loop over the edges would; and per
    edge its number of diagonal pairs (``s == d``).
    """
    check_pair(g, t)
    names = t.vertices
    n = len(names)
    edges = sorted(g.weights)
    weights = np.fromiter((g.weights[e] for e in edges), dtype=float, count=len(edges))
    leaves, ranges = t.leaf_ranges
    index = {v: i for i, v in enumerate(names)}
    ids = np.fromiter((index[v] for v in leaves), dtype=np.int64, count=len(leaves))
    bounds = np.array([ranges[u] + ranges[v] for u, v in edges], dtype=np.int64).reshape(-1, 4)
    lo_u, hi_u, lo_v, hi_v = bounds.T
    cols = hi_v - lo_v
    sizes = (hi_u - lo_u) * cols
    edge = np.repeat(np.arange(len(edges)), sizes)
    offset = np.arange(len(edge)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    s = lo_u[edge] + offset // cols[edge]
    d = lo_v[edge] + offset % cols[edge]
    off = s != d
    diagonal = np.bincount(edge[~off], minlength=len(edges))
    edge, key = edge[off], ids[s[off]] * n + ids[d[off]]
    pairs, inverse = np.unique(key, return_inverse=True)
    sums = np.bincount(inverse, weights=weights[edge], minlength=len(pairs))
    if not np.isfinite(sums).all():
        s, d = _pairs(names, pairs[~np.isfinite(sums)])[0]
        raise DomainError(f"summed weight of leaf pair ({s!r}, {d!r}) overflows float64")
    return edges, weights, edge, key, pairs, inverse, sums, diagonal


def inherit(g: Graph, t: Hierarchy) -> ResolutionResult:
    """Copy every edge down to all leaf pairs under its endpoints.

    The output weight of a leaf pair (s, t) is the sum of the weights of
    all input edges (u, v) with s under u and t under v; for unweighted
    input that is the number of reports covering the pair.  Diagonal pairs
    (s == t, possible only for ancestor-descendant inputs) are dropped and
    logged.  The hierarchy is unchanged.  A sum that overflows float64
    raises :class:`~unires.graph.DomainError`.
    """
    edges, weights, edge, _, pairs, inverse, sums, diagonal = _leaf_pairs(g, t)
    out_edges = _pairs(t.vertices, pairs)
    by_pair = np.argsort(inverse, kind="stable")  # links by output pair, then input edge
    links = list(zip(map(out_edges.__getitem__, inverse[by_pair].tolist()), map(edges.__getitem__, edge[by_pair].tolist())))
    with np.errstate(over="ignore"):
        lost = weights * diagonal
    if not np.isfinite(lost).all():
        u, v = edges[int(np.flatnonzero(~np.isfinite(lost))[0])]
        raise DomainError(f"dropped diagonal weight of edge ({u!r}, {v!r}) overflows float64")
    dropped = {edges[i]: float(lost[i]) for i in np.flatnonzero(diagonal).tolist()}
    return ResolutionResult(_network(t, pairs, out_edges, sums), t, links, dropped)


def _anchors(g: Graph, t: Hierarchy) -> dict[str, str]:
    """The anchor of every connectivity-bearing vertex, in one top-down
    pass: its topmost connectivity-bearing ancestor-or-self.  Silent
    vertices below an anchor map to it too."""
    anchors: dict[str, str] = {}
    for v in t.dfs_preorder():
        above = anchors.get(t.parent.get(v))
        if above is not None:
            anchors[v] = above
        elif g.has_vertex(v) and g.degree(v):
            anchors[v] = v
    return anchors


def disinherit(g: Graph, t: Hierarchy) -> ResolutionResult:
    """Pull every edge up to the topmost connectivity-bearing ancestors.

    Each input edge (u, v) is reassigned to its endpoints' anchors (see
    :func:`_anchors`) with weights summed; edges whose endpoints share an
    anchor collapse to self-loops and are dropped (logged with their
    weight).  The output hierarchy removes every proper descendant of an
    anchor, so anchors become leaves; untouched silent vertices keep the
    tree connected.
    """
    check_pair(g, t)
    anchors = _anchors(g, t)
    out: dict[Edge, float] = {}
    links: list[tuple[Edge, Edge]] = []
    dropped: dict[Edge, float] = {}
    for (u, v), w in sorted(g.weights.items()):
        a, b = anchors[u], anchors[v]
        if a == b:
            dropped[(u, v)] = w
            continue
        total = out.get((a, b), 0.0) + w
        if math.isinf(total):
            raise DomainError(f"summed weight of edge ({a!r}, {b!r}) overflows float64")
        out[(a, b)] = total
        links.append(((a, b), (u, v)))
    hierarchy = t.restricted_to([v for v in t.vertices if anchors.get(v, v) == v])
    # The anchors are kept, so the kept tree's vertices are the universe.
    return ResolutionResult(Graph._trusted(hierarchy.vertices, out), hierarchy, links, dropped)


def edge_order(g: Graph, t: Hierarchy, descending: bool = True) -> list[Edge]:
    """Edges sorted by the product of endpoint tree depths.

    Descending (the default) considers the deepest edges first, so plain
    leaf-leaf edges are placed before anything at internal vertices; ties
    break lexicographically by (source, target).  ``descending=False``
    inverts the depth ordering for sensitivity analysis.
    """
    check_pair(g, t)
    depth = dict(zip(t.dfs_preorder(), t._preorder[1]))
    edges = sorted(g.weights)
    edges.sort(key=lambda e: depth[e[0]] * depth[e[1]], reverse=descending)
    return edges


def _masses(resistance: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Resistance × count per pair, 0 where the resistance is infinite,
    divided by the total (summed in pair order) when that is positive."""
    with np.errstate(over="ignore"):
        masses = np.where(np.isinf(resistance), 0.0, resistance * counts)
    total = sum(masses.tolist())
    if math.isinf(total):
        raise DomainError("probability mass (resistance × count) overflows float64")
    return masses / total if total > 0 else masses


def _argmax_keys(score: np.ndarray, key: np.ndarray, heads: np.ndarray, rtol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Per segment of ``score`` (segments start at ``heads``): the maximum
    score, and the smallest key among the entries within ``rtol`` of it
    (relative)."""
    best = np.maximum.reduceat(score, heads)
    tied = score >= np.repeat(best * (1.0 - rtol), np.diff(heads, append=len(score)))
    return best, np.minimum.reduceat(np.where(tied, key, np.iinfo(np.int64).max), heads)


def kron_sampling(g: Graph, t: Hierarchy, descending: bool = True, guard: str = "any") -> ResolutionResult:
    """Represent every input edge by at most one leaf-level edge.

    Pipeline: eliminate all non-leaf vertices by Kron reduction onto the
    connectivity-bearing leaves, compute pairwise effective resistances
    there, combine them with inherited report counts into a probability
    net, then walk the input edges deepest-first.  For each edge the
    candidate set is all ordered leaf pairs under its endpoints; if an
    output edge already connects those leaf sets the input edge is merely
    recorded against it, otherwise the maximum-probability candidate is
    added with weight 1; masses within ``MASS_TIE_RTOL`` of the best tie.
    Candidates with zero mass everywhere fall back to the inherited count,
    then to lexicographic order.

    ``guard`` controls what blocks a candidate set: ``"any"`` (default)
    blocks on an existing output edge in either direction between the leaf
    sets, ``"directed"`` only on a same-direction edge.  The hierarchy is
    returned unchanged.  Fully deterministic: reruns are byte-identical.
    """
    if guard not in GUARD_MODES:
        raise DomainError(f"guard must be one of {GUARD_MODES}, got {guard!r}")
    edges, _, edge, key, pairs, inverse, counts, _ = _leaf_pairs(g, t)
    names, n = t.vertices, len(t.vertices)
    if g.vertices != names:  # give g the tree's ids
        g = g.with_vertices(names)
    leaf = np.fromiter((not t.children[v] for v in names), dtype=bool, count=n)
    conn = leaf & (np.array(g._degrees) > 0)
    src, dst = np.divmod(pairs, n)
    both = conn[src] & conn[dst]
    resistance = np.full(len(pairs), np.inf)
    resistance[both] = _kron_resistance(g, conn, src[both], dst[both])
    mass = _masses(resistance, counts)

    # Each edge's choice does not depend on what is placed before it, only
    # whether it is placed does: pick every winner up front.
    bounds = np.searchsorted(edge, np.arange(len(edges) + 1))
    heads = bounds[:-1][bounds[1:] > bounds[:-1]]
    best, by_mass = _argmax_keys(mass[inverse], key, heads, MASS_TIE_RTOL)
    _, by_count = _argmax_keys(counts[inverse], key, heads)
    winner = np.zeros(len(edges), dtype=np.int64)
    winner[edge[heads]] = np.where(best > 0.0, by_mass, by_count)

    position = {e: i for i, e in enumerate(edges)}
    keys, winners, bounds = key.tolist(), winner.tolist(), bounds.tolist()
    reverse = (key % n * n + key // n).tolist() if guard == "any" else None
    placed: dict[int, list[Edge]] = {}  # output pair key -> input edges, in placement order
    dropped: dict[Edge, float] = {}
    for u, v in edge_order(g, t, descending=descending):
        i = position[(u, v)]
        a, b = bounds[i], bounds[i + 1]
        if a == b:
            # Both endpoints sit above the same single leaf; nothing off the
            # diagonal can represent this edge.
            dropped[(u, v)] = g.weights[(u, v)]
            continue
        blockers = placed.keys() & keys[a:b]
        if reverse is not None:
            blockers |= placed.keys() & reverse[a:b]
        if blockers:
            placed[min(blockers)].append((u, v))
        else:
            placed[winners[i]] = [(u, v)]
    chosen_keys = np.array(list(placed), dtype=np.int64)
    chosen = _pairs(names, chosen_keys)
    links = [(pair, e) for pair, sources in zip(chosen, placed.values()) for e in sources]
    return ResolutionResult(_network(t, chosen_keys, chosen, np.ones(len(chosen))), t, links, dropped)
