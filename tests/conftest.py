"""Shared random-instance generators and test helpers.  All randomness is
seeded per test."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np

import unires.cli
import unires.graph
from unires.graph import Graph, Hierarchy, on_tree
from unires.resolution import _anchors
from unires.spectral import _edge_arrays, _laplacian, _resistances

from oracles import children, from_edges, parents, root, tree


def traced_peak(f, *args) -> int:
    """The most bytes that ``f(*args)`` holds at once, as tracemalloc sees
    Python's allocations and those numpy reports to it."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_sizes(monkeypatch):
    """Set the block size of the edge-list parse and writers to the
    package's own, then to sizes of a few characters, which cut the text at
    nearly every line end and name rows one or two at a time."""
    for size in (unires.graph.BLOCK, 8, 13):
        monkeypatch.setattr(unires.graph, "BLOCK", size)
        monkeypatch.setattr(unires.cli, "BLOCK", size)
        yield size


def names(n: int, prefix: str = "n") -> list[str]:
    return [f"{prefix}{i:03d}" for i in range(n)]


def random_hierarchy(rng: random.Random, labels: list[str]) -> Hierarchy:
    """Random rooted tree by preferential-free attachment; unary chains can occur."""
    order = labels[:]
    rng.shuffle(order)
    parent = {}
    for i, v in enumerate(order[1:], start=1):
        parent[v] = order[rng.randrange(i)]
    return tree(parent, order[0])


def branching_hierarchy(rng: random.Random, labels: list[str]) -> Hierarchy:
    """Random rooted tree where every internal vertex has at least 2 children."""
    assert len(labels) >= 3
    order = labels[:]
    rng.shuffle(order)
    parent: dict[str, str] = {}

    def build(root: str, pool: list[str]) -> None:
        if not pool:
            return
        # Split into parts of size 1 or >= 3 so no subtree root ends up with
        # a single child; force at least two parts.
        sizes: list[int] = []
        remaining = len(pool)
        while remaining:
            if remaining == 2:
                sizes += [1, 1]
                break
            allowed = [1] + [s for s in range(3, remaining + 1) if s <= 6]
            if not sizes:
                allowed = [s for s in allowed if s < remaining] or [1]
            size = rng.choice(allowed)
            if remaining - size == 2:
                sizes += [size, 1, 1]
                break
            sizes.append(size)
            remaining -= size
        start = 0
        for size in sizes:
            part = pool[start:start + size]
            start += size
            head = part[0]
            parent[head] = root
            build(head, part[1:])

    build(order[0], order[1:])
    return tree(parent, order[0])


def random_graph_on(
    rng: random.Random,
    t: Hierarchy,
    edge_budget: int,
    leaf_only: bool = False,
    weights_from: tuple[float, ...] = (1.0, 1.0, 2.0, 3.0),
) -> Graph:
    """Random directed graph over the tree universe, each drawn edge adding
    a weight chosen from ``weights_from`` (small integers by default)."""
    pool = [v for v in t.vertices if not children(t)[v]] if leaf_only else list(t.vertices)
    weights: dict[tuple[str, str], float] = {}
    for _ in range(edge_budget):
        u = rng.choice(pool)
        v = rng.choice(pool)
        if u == v:
            continue
        weights[(u, v)] = weights.get((u, v), 0.0) + rng.choice(weights_from)
    return from_edges(weights, vertices=t.vertices)


def random_pair(
    rng: random.Random,
    n: int,
    branching: bool = False,
    weights_from: tuple[float, ...] = (1.0, 1.0, 2.0, 3.0),
) -> tuple[Graph, Hierarchy]:
    labels = names(n)
    t = branching_hierarchy(rng, labels) if branching else random_hierarchy(rng, labels)
    g = random_graph_on(rng, t, edge_budget=rng.randrange(1, max(2, 2 * n)), weights_from=weights_from)
    return g, t


def planted_pair(rng: random.Random, n: int, density: float, p: float, branching: bool = True):
    """A planted truth and its reports, on a tree over ``n`` names.

    The truth holds each ordered pair of distinct leaves with probability
    ``density``.  Each true edge is reported once, with each endpoint raised
    to its parent one level at a time with probability ``p`` per level,
    never onto the root.  Returns the graph of the reports whose endpoints
    stay apart, each weighted by the number of true edges it stands for;
    the tree; and every true edge mapped to its report, whose two ends are
    equal where it collapsed onto one vertex.
    """
    t = (branching_hierarchy if branching else random_hierarchy)(rng, names(n))
    up, top = parents(t), root(t)

    def raised(x: str) -> str:
        while up[x] != top and rng.random() < p:
            x = up[x]
        return x

    leaves = [v for v in t.vertices if not children(t)[v]]
    reports = {(s, d): (raised(s), raised(d)) for s in leaves for d in leaves if s != d and rng.random() < density}
    counts: dict[tuple[str, str], float] = {}
    for u, v in reports.values():
        if u != v:
            counts[(u, v)] = counts.get((u, v), 0.0) + 1.0
    return from_edges(counts, vertices=t.vertices), t, reports


def random_connected_weighted(rng: random.Random, n: int, extra_edges: int | None = None) -> Graph:
    """Connected weighted graph: a random spanning tree plus extra edges."""
    labels = names(n)
    rng.shuffle(labels)
    weights: dict[tuple[str, str], float] = {}
    for i in range(1, n):
        u = labels[rng.randrange(i)]
        v = labels[i]
        weights[(u, v)] = rng.uniform(0.1, 10.0)
    if extra_edges is None:
        extra_edges = rng.randrange(0, 2 * n)
    for _ in range(extra_edges):
        u, v = rng.sample(labels, 2)
        if (u, v) not in weights and (v, u) not in weights:
            weights[(u, v)] = rng.uniform(0.1, 10.0)
    return from_edges(weights, vertices=labels)


def random_digraph(rng: random.Random, n: int, p: float) -> Graph:
    labels = names(n)
    weights = {}
    for u in labels:
        for v in labels:
            if u != v and rng.random() < p:
                weights[(u, v)] = 1.0
    return from_edges(weights, vertices=labels)


def laplacian(g: Graph) -> np.ndarray:
    """The whole Laplacian of ``g``: the kept-kept entries of the package's
    block builder with every vertex kept, written onto zeros."""
    n = len(g.vertices)
    l_ee, l_ke, (r, c, v) = _laplacian(np.ones(n, dtype=bool), *_edge_arrays(g))
    assert l_ee.shape == (0, 0) and l_ke.shape == (n, 0)
    lap = np.zeros((n, n))
    lap[r, c] = v
    return lap


def kron_mask(g: Graph, retain) -> np.ndarray:
    """The id mask of the names ``retain`` in ``g``."""
    index = {v: i for i, v in enumerate(g.vertices)}
    keep = np.zeros(len(g.vertices), dtype=bool)
    keep[[index[v] for v in retain]] = True
    return keep


def kron_resistances(g: Graph, retain, pairs) -> dict[tuple[str, str], float]:
    """:func:`~unires.spectral._resistances` with the kept mask ``retain``,
    asked by name pairs; ``retain=g.vertices`` keeps every vertex."""
    index = {v: i for i, v in enumerate(g.vertices)}
    wanted = list(pairs)
    a = np.array([index[u] for u, _ in wanted], dtype=np.int64)
    b = np.array([index[v] for _, v in wanted], dtype=np.int64)
    return dict(zip(wanted, _resistances(g, kron_mask(g, retain), a, b).tolist()))


def networkx_graph(nx, g: Graph):
    """``g`` as an undirected networkx graph weighted ``w(u,v) + w(v,u)``."""
    theirs = nx.Graph()
    theirs.add_nodes_from(g.vertices)
    for (u, v), w in g.weights.items():
        theirs.add_edge(u, v, weight=theirs.get_edge_data(u, v, {"weight": 0.0})["weight"] + w)
    return theirs


def anchors_by_name(g: Graph, t: Hierarchy) -> dict[str, str]:
    """:func:`unires.resolution._anchors` by names: every vertex whose
    anchor bears connectivity, mapped to that anchor."""
    g = on_tree(g, t)
    degree = np.bincount(np.concatenate((g.src, g.dst)), minlength=len(g.vertices))
    return {t.vertices[v]: t.vertices[a] for v, a in enumerate(_anchors(g, t).tolist()) if degree[a]}
