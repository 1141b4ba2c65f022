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
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .graph import DomainError, Graph, Hierarchy, _pairs, on_tree
from .spectral import _resistances

# Kron masses this close (relative) to a candidate set's best tie with it, so
# that rounding in the resistances (BLAS kernel, solve route) decides nothing.
MASS_TIE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class ResolutionResult:
    """Converted network plus its hierarchy and an edge audit trail.

    The trail is on the ids of ``vertices``, the input tree's names, with
    edges keyed ``id(u) * n + id(v)``.  ``links`` holds each ``(output key,
    input key)`` link once, ``dropped`` the keys of input edges whose weight
    ``lost`` the output cannot express (ancestor-descendant collapses onto
    the diagonal); for :func:`inherit` an edge may be in both when only its
    diagonal part was dropped.  Construction makes the arrays read-only.
    """

    network: Graph
    hierarchy: Hierarchy
    vertices: tuple[str, ...]
    links: np.ndarray
    dropped: np.ndarray
    lost: np.ndarray

    def __post_init__(self):
        for array in (self.links, self.dropped, self.lost):
            array.flags.writeable = False


def _edge_keys(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Every edge of ``g`` keyed ``id(u) * n + id(v)``, in ascending key
    order (which is name-pair order), and its weight."""
    keys = g.src * len(g.vertices) + g.dst
    order = np.argsort(keys)
    return keys[order], g.w[order]


def _leaf_pairs(g: Graph, t: Hierarchy):
    """Every edge of ``g`` (on the ids of ``t``), in :func:`_edge_keys`
    order, expanded by index arithmetic on the leaf ranges of
    :attr:`Hierarchy.ids` to the leaf pairs ``(s, d)`` under it.

    A pair is keyed ``id(s) * n + id(d)`` like the edges, so keys sort like
    name pairs.  Returns the edge keys, their weights; per listed
    off-diagonal pair its edge index, key and index into the distinct
    ascending keys ``pairs``; per distinct pair its weight summed in
    sorted-edge order, as a loop over the edges would; and per edge its
    number of diagonal pairs (``s == d``).
    """
    edges, weights = _edge_keys(g)
    names, n, tree = t.vertices, len(t.vertices), t.ids
    leaves = tree.order[tree.leaf[tree.order]]
    u, v = np.divmod(edges, n)
    lo_u, hi_u, lo_v, hi_v = tree.lo[u], tree.hi[u], tree.lo[v], tree.hi[v]
    cols = hi_v - lo_v
    sizes = (hi_u - lo_u) * cols
    edge = np.repeat(np.arange(len(edges)), sizes)
    offset = np.arange(len(edge)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    s = lo_u[edge] + offset // cols[edge]
    d = lo_v[edge] + offset % cols[edge]
    off = s != d
    diagonal = np.bincount(edge[~off], minlength=len(edges))
    edge, key = edge[off], leaves[s[off]] * n + leaves[d[off]]
    pairs, inverse = np.unique(key, return_inverse=True)
    sums = np.bincount(inverse, weights=weights[edge], minlength=len(pairs))
    if not np.isfinite(sums).all():
        s, d = next(_pairs(names, pairs[~np.isfinite(sums)]))
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
    keys, weights, edge, key, pairs, inverse, sums, diagonal = _leaf_pairs(on_tree(g, t), t)
    with np.errstate(over="ignore"):
        lost = weights * diagonal
    if not np.isfinite(lost).all():
        u, v = next(_pairs(t.vertices, keys[~np.isfinite(lost)]))
        raise DomainError(f"dropped diagonal weight of edge ({u!r}, {v!r}) overflows float64")
    network = Graph(t.vertices, *np.divmod(pairs, len(t.vertices)), sums)
    return ResolutionResult(network, t, t.vertices, np.column_stack((key, keys[edge])), keys[diagonal > 0], lost[diagonal > 0])


def _anchors(g: Graph, t: Hierarchy) -> np.ndarray:
    """Per vertex id of ``t`` (and of ``g``, which is on its ids): the
    anchor of every connectivity-bearing vertex, its topmost
    connectivity-bearing ancestor-or-self.  Silent vertices below an
    anchor map to it too, all others to themselves."""
    order, end = t.ids.order, t.ids.end
    anchor = np.arange(len(order))
    covered = 0  # the end of the last anchor's subtree
    degrees = np.bincount(np.concatenate((g.src, g.dst)), minlength=len(order))
    for p in np.flatnonzero(degrees[order]).tolist():
        if p >= covered:
            anchor[order[p:end[p]]] = order[p]
            covered = end[p]
    return anchor


def disinherit(g: Graph, t: Hierarchy) -> ResolutionResult:
    """Pull every edge up to the topmost connectivity-bearing ancestors.

    Each input edge (u, v) is reassigned to its endpoints' anchors (see
    :func:`_anchors`) with weights summed; edges whose endpoints share an
    anchor collapse to self-loops and are dropped (logged with their
    weight).  The output hierarchy removes every proper descendant of an
    anchor, so anchors become leaves; untouched silent vertices keep the
    tree connected.
    """
    g = on_tree(g, t)
    keys, weights = _edge_keys(g)
    names, n = t.vertices, len(t.vertices)
    anchor = _anchors(g, t)
    a, b = anchor[keys // n], anchor[keys % n]
    kept = a != b
    out, inverse = np.unique(a[kept] * n + b[kept], return_inverse=True)
    sums = np.bincount(inverse, weights=weights[kept], minlength=len(out))
    if not np.isfinite(sums).all():
        u, v = next(_pairs(names, out[~np.isfinite(sums)]))
        raise DomainError(f"summed weight of edge ({u!r}, {v!r}) overflows float64")
    keep = anchor == np.arange(n)  # the vertices with no anchor above them, and so their parents too
    new_id, parent = np.cumsum(keep) - 1, t.parent[keep]  # the anchors are kept, and the kept vertices are the universe
    hierarchy = Hierarchy(tuple(compress(names, keep)), np.where(parent >= 0, new_id[parent], -1))  # new_id[-1] is no root
    network = Graph(hierarchy.vertices, new_id[out // n], new_id[out % n], sums)
    return ResolutionResult(network, hierarchy, names, np.column_stack((out[inverse], keys[kept])), keys[~kept], weights[~kept])


def _depth_order(keys: np.ndarray, t: Hierarchy) -> np.ndarray:
    """The positions of the ascending edge keys ``keys`` (see
    :func:`_edge_keys`) sorted by the product of endpoint tree depths,
    deepest first, so plain leaf-leaf edges are placed before anything at
    internal vertices.  The sort is stable, so ties keep key order, which
    is name-pair order."""
    depth = t.ids.depth
    product = depth[keys // len(t.vertices)] * depth[keys % len(t.vertices)]
    return np.argsort(-product, kind="stable")


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


def kron_sampling(g: Graph, t: Hierarchy) -> ResolutionResult:
    """Represent every input edge by at most one leaf-level edge.

    Pipeline: eliminate all non-leaf vertices by Kron reduction onto the
    connectivity-bearing leaves, compute pairwise effective resistances
    there, combine them with inherited report counts into masses (see
    :func:`_masses`), then walk the input edges deepest first (see
    :func:`_depth_order`).  For each edge (u, v) the candidate set is all
    ordered leaf pairs (s, d) with s under u and d under v.  If an output
    edge already runs from u's leaves to v's, the input edge is merely
    recorded against it; otherwise the maximum-mass candidate is added
    with weight 1; masses within ``MASS_TIE_RTOL`` of the best tie.
    Candidates with zero mass everywhere fall back to the inherited count,
    then to lexicographic order.

    Only an output edge in the same direction blocks a candidate set, never
    one from v's leaves to u's, so reciprocal pairs survive: the paper's
    Table 1 gives Kron a reciprocity close to the original network's.  The
    hierarchy is returned unchanged, and the output edges are in key order
    (see :func:`_edge_keys`), not in placement order.  Fully deterministic:
    reruns are byte-identical.
    """
    g = on_tree(g, t)
    edges, weights, edge, key, pairs, inverse, counts, _ = _leaf_pairs(g, t)
    names, n = t.vertices, len(t.vertices)
    conn = t.ids.leaf & (np.bincount(np.concatenate((g.src, g.dst)), minlength=n) > 0)
    src, dst = np.divmod(pairs, n)
    both = conn[src] & conn[dst]
    resistance = np.full(len(pairs), np.inf)
    resistance[both] = _resistances(g, conn, src[both], dst[both])
    mass = _masses(resistance, counts)

    # Each edge's choice does not depend on what is placed before it, only
    # whether it is placed does: pick every winner up front.
    bounds = np.searchsorted(edge, np.arange(len(edges) + 1))
    heads = bounds[:-1][bounds[1:] > bounds[:-1]]
    best, by_mass = _argmax_keys(mass[inverse], key, heads, MASS_TIE_RTOL)
    _, by_count = _argmax_keys(counts[inverse], key, heads)
    # An edge with both endpoints above one single leaf has no candidate off
    # the diagonal. It wins -1, which drops it and, as keys are >= 0, blocks nothing.
    winner = np.full(len(edges), -1)
    winner[edge[heads]] = np.where(best > 0.0, by_mass, by_count)

    keys, winners, bounds = key.tolist(), winner.tolist(), bounds.tolist()
    owner = [-1] * len(edges)  # per input edge: the output pair key it is recorded against
    placed: set[int] = set()
    for i in _depth_order(edges, t).tolist():
        blockers = placed.intersection(keys[bounds[i]:bounds[i + 1]])
        owner[i] = min(blockers) if blockers else winners[i]
        placed.add(owner[i])
    owner = np.array(owner, dtype=np.int64)
    kept = owner >= 0
    chosen = np.unique(owner[kept])
    network = Graph(names, *np.divmod(chosen, n), np.ones(len(chosen)))
    return ResolutionResult(network, t, names, np.column_stack((owner[kept], edges[kept])), edges[~kept], weights[~kept])
