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

from .graph import DomainError, Edge, Graph, Hierarchy, check_pair, classify
from .spectral import _kron_resistance

GUARD_MODES = ("any", "directed")


@dataclass(frozen=True)
class ResolutionResult:
    """Converted network plus its hierarchy and an edge audit trail.

    ``provenance`` maps each output edge to the set of input edges it
    represents.  ``dropped`` maps input edges to the weight that could not
    be expressed in the output (ancestor-descendant collapses onto the
    diagonal); for :func:`inherit` an edge may appear in both when only its
    diagonal part was dropped.
    """

    network: Graph
    hierarchy: Hierarchy
    provenance: dict[Edge, frozenset[Edge]]
    dropped: dict[Edge, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ProbabilityNet:
    """Probability mass over candidate leaf pairs; sums to 1 when any
    candidate has positive mass."""

    weights: dict[Edge, float]

    def __post_init__(self):
        total = sum(self.weights[e] for e in sorted(self.weights))
        if any(w < 0 for w in self.weights.values()):
            raise DomainError("negative probability mass")
        if total > 0 and abs(total - 1.0) > 1e-12:
            raise DomainError(f"probability masses sum to {total!r}, not 1")


def _freeze(prov: dict[Edge, set[Edge]]) -> dict[Edge, frozenset[Edge]]:
    return {e: frozenset(srcs) for e, srcs in prov.items()}


def inherit(g: Graph, t: Hierarchy) -> ResolutionResult:
    """Copy every edge down to all leaf pairs under its endpoints.

    The output weight of a leaf pair (s, t) is the sum of the weights of
    all input edges (u, v) with s under u and t under v; for unweighted
    input that is the number of reports covering the pair.  Diagonal pairs
    (s == t, possible only for ancestor-descendant inputs) are dropped and
    logged.  The hierarchy is unchanged.
    """
    check_pair(g, t)
    out: dict[Edge, float] = {}
    prov: dict[Edge, set[Edge]] = {}
    dropped: dict[Edge, float] = {}
    for (u, v), w in sorted(g.weights.items()):
        leaves_u = t.leafset(u)
        leaves_v = t.leafset(v)
        for s in leaves_u:
            for d in leaves_v:
                if s == d:
                    continue
                out[(s, d)] = out.get((s, d), 0.0) + w
                prov.setdefault((s, d), set()).add((u, v))
        diagonal = len(leaves_u & leaves_v)
        if diagonal:
            dropped[(u, v)] = w * diagonal
    network = Graph.from_edges(out, vertices=t.vertices)
    return ResolutionResult(network, t, _freeze(prov), dropped)


def _anchors(g: Graph, t: Hierarchy) -> dict[str, str]:
    """:func:`~unires.graph.anchor` of every connectivity-bearing vertex, in
    one top-down pass; silent vertices below an anchor map to it too."""
    anchors: dict[str, str] = {}
    for v in t.dfs_preorder():
        above = anchors.get(t.parent.get(v))
        if above is not None:
            anchors[v] = above
        elif g.has_vertex(v) and g.connectivity(v):
            anchors[v] = v
    return anchors


def disinherit(g: Graph, t: Hierarchy) -> ResolutionResult:
    """Pull every edge up to the topmost connectivity-bearing ancestors.

    Each input edge (u, v) is reassigned to (anchor(u), anchor(v)) with
    weights summed; edges whose endpoints share an anchor collapse to
    self-loops and are dropped (logged with their weight).  The output
    hierarchy removes every proper descendant of an anchor, so anchors
    become leaves; untouched silent vertices keep the tree connected.
    """
    check_pair(g, t)
    anchors = _anchors(g, t)
    out: dict[Edge, float] = {}
    prov: dict[Edge, set[Edge]] = {}
    dropped: dict[Edge, float] = {}
    for (u, v), w in sorted(g.weights.items()):
        a, b = anchors[u], anchors[v]
        if a == b:
            dropped[(u, v)] = w
            continue
        out[(a, b)] = out.get((a, b), 0.0) + w
        prov.setdefault((a, b), set()).add((u, v))
    removed: set[str] = set()
    for a in set(anchors.values()):
        removed |= t.descendants(a) - {a}
    kept = set(t.vertices) - removed
    hierarchy = t.restricted_to(kept)
    network = Graph.from_edges(out, vertices=kept)
    return ResolutionResult(network, hierarchy, _freeze(prov), dropped)


def edge_order(g: Graph, t: Hierarchy, descending: bool = True) -> list[Edge]:
    """Edges sorted by the product of endpoint tree depths.

    Descending (the default) considers the deepest edges first, so plain
    leaf-leaf edges are placed before anything at internal vertices; ties
    break lexicographically by (source, target).  ``descending=False``
    inverts the depth ordering for sensitivity analysis.
    """
    check_pair(g, t)
    edges = sorted(g.weights)
    edges.sort(key=lambda e: t.depth(e[0]) * t.depth(e[1]), reverse=descending)
    return edges


def probability_weights(resistances: dict[Edge, float], inherit_counts: Graph) -> ProbabilityNet:
    """Normalized product of effective resistance and inherited count.

    ``resistances`` may be keyed by either orientation of a pair (it is
    symmetric); pairs with infinite resistance get mass 0.  When every
    candidate lands on 0 the masses are left unnormalized at 0 and
    consumers fall back to counts.
    """
    masses: dict[Edge, float] = {}
    for (s, d), count in sorted(inherit_counts.weights.items()):
        r = resistances.get((s, d))
        if r is None:
            r = resistances.get((d, s))
        if r is None:
            raise DomainError(f"no resistance supplied for pair ({s!r}, {d!r})")
        masses[(s, d)] = 0.0 if math.isinf(r) else r * count
    total = sum(masses[e] for e in sorted(masses))
    if total > 0:
        masses = {e: m / total for e, m in masses.items()}
    return ProbabilityNet(masses)


def _argmax(candidates: list[Edge], score: dict[Edge, float]) -> tuple[Edge, float]:
    # Candidates arrive in lexicographic order, so strict improvement keeps
    # the lexicographically smallest of tied maxima.
    best = candidates[0]
    best_score = score.get(best, 0.0)
    for cand in candidates[1:]:
        s = score.get(cand, 0.0)
        if s > best_score:
            best, best_score = cand, s
    return best, best_score


def kron_sampling(g: Graph, t: Hierarchy, descending: bool = True, guard: str = "any") -> ResolutionResult:
    """Represent every input edge by at most one leaf-level edge.

    Pipeline: eliminate all non-leaf vertices by Kron reduction onto the
    connectivity-bearing leaves, compute pairwise effective resistances
    there, combine them with inherited report counts into a probability
    net, then walk the input edges deepest-first.  For each edge the
    candidate set is all ordered leaf pairs under its endpoints; if an
    output edge already connects those leaf sets the input edge is merely
    recorded against it, otherwise the maximum-probability candidate is
    added with weight 1.  Candidates with zero mass everywhere fall back
    to the inherited count, then to lexicographic order.

    ``guard`` controls what blocks a candidate set: ``"any"`` (default)
    blocks on an existing output edge in either direction between the leaf
    sets, ``"directed"`` only on a same-direction edge.  The hierarchy is
    returned unchanged.  Fully deterministic: reruns are byte-identical.
    """
    if guard not in GUARD_MODES:
        raise DomainError(f"guard must be one of {GUARD_MODES}, got {guard!r}")
    check_pair(g, t)
    leaves_conn = classify(g, t).leaves_with_connectivity
    counts = inherit(g, t).network
    wanted = sorted({(s, d) if s < d else (d, s)
                     for s, d in counts.weights
                     if s in leaves_conn and d in leaves_conn})
    resist = _kron_resistance(g, leaves_conn, wanted)
    full_resist: dict[Edge, float] = {}
    for s, d in counts.weights:
        key = (s, d) if s < d else (d, s)
        full_resist[(s, d)] = resist.get(key, math.inf)
    prob = probability_weights(full_resist, counts)

    out: dict[Edge, float] = {}
    prov: dict[Edge, set[Edge]] = {}
    dropped: dict[Edge, float] = {}
    for u, v in edge_order(g, t, descending=descending):
        leaves_u = sorted(t.leafset(u))
        leaves_v = sorted(t.leafset(v))
        candidates = [(s, d) for s in leaves_u for d in leaves_v if s != d]
        if not candidates:
            # Both endpoints sit above the same single leaf; nothing off the
            # diagonal can represent this edge.
            dropped[(u, v)] = g.weights[(u, v)]
            continue
        blockers = [c for c in candidates if c in out]
        if guard == "any":
            blockers += [(d, s) for s, d in candidates if (d, s) in out]
        if blockers:
            prov[min(blockers)].add((u, v))
            continue
        chosen, mass = _argmax(candidates, prob.weights)
        if mass <= 0.0:
            chosen, _ = _argmax(candidates, counts.weights)
        out[chosen] = 1.0
        prov.setdefault(chosen, set()).add((u, v))
    network = Graph.from_edges(out, vertices=t.vertices)
    return ResolutionResult(network, t, _freeze(prov), dropped)
