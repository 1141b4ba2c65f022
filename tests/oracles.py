"""Independent brute-force implementations used only to check the library.

Everything here is written the slow, obvious way (recursion, pseudoinverse,
Floyd-Warshall, explicit path enumeration, queue-based BFS) and deliberately
shares no code with the package internals.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import lru_cache

import numpy as np

from unires.graph import Graph, Hierarchy, ParseError

# Kron masses this close to the best (relative) tie with it, as documented.
MASS_TIE_RTOL = 1e-9


def valid(token: str) -> bool:
    """Whether ``token`` may name a vertex, as the line-by-line parse checks it."""
    return bool(token) and token == token.strip() and not any(c in token for c in "\t\n\r") and token[0] != "#"


def from_edges(weights: dict[tuple[str, str], float], vertices=()) -> Graph:
    """A graph from a name-pair → weight map, with its edges sorted into
    name-pair order; the universe is the union of the given vertices and
    all edge endpoints."""
    names = tuple(sorted(set(vertices).union(*weights)))
    index = {v: i for i, v in enumerate(names)}
    edges = sorted(weights)
    return Graph(names, [index[u] for u, _ in edges], [index[v] for _, v in edges], [weights[e] for e in edges])


def with_vertices(g: Graph, extra) -> Graph:
    """The same edges, in the same order, over the universe of ``g``
    extended by the names ``extra``."""
    names = tuple(sorted(set(g.vertices).union(extra)))
    index = {v: i for i, v in enumerate(names)}
    new_id = [index[v] for v in g.vertices]
    return Graph(names, [new_id[s] for s in g.src.tolist()], [new_id[d] for d in g.dst.tolist()], g.w)


def tree(parent_map: dict[str, str], root: str) -> Hierarchy:
    """A hierarchy from a child → parent name map; its vertices are every
    name in the map and ``root``, and a name that is no child has parent -1."""
    names = tuple(sorted(set(parent_map).union(parent_map.values(), [root])))
    index = {v: i for i, v in enumerate(names)}
    return Hierarchy(names, [index[parent_map[v]] if v in parent_map else -1 for v in names])


@lru_cache(maxsize=64)
def parents(t: Hierarchy) -> dict[str, str]:
    """Each vertex but the root, mapped to its parent's name."""
    return {v: t.vertices[p] for v, p in zip(t.vertices, t.parent.tolist()) if p >= 0}


@lru_cache(maxsize=64)
def children(t: Hierarchy) -> dict[str, tuple[str, ...]]:
    """Each vertex's children, in name order."""
    kids: dict[str, list[str]] = {v: [] for v in t.vertices}
    for child, par in parents(t).items():
        kids[par].append(child)
    return {v: tuple(sorted(cs)) for v, cs in kids.items()}


@lru_cache(maxsize=64)
def root(t: Hierarchy) -> str:
    """The one vertex without a parent."""
    (only,) = set(t.vertices).difference(parents(t))
    return only


def same_tree(t: Hierarchy, u: Hierarchy) -> bool:
    """Tree equality: the same vertices, each with the same parent."""
    return t.vertices == u.vertices and parents(t) == parents(u)


def load_graph_loop(text: str) -> Graph:
    """The edge-list parse one line at a time, as ``load_graph`` did before
    it parsed whole documents: same checks, same messages, same order."""
    weights: dict[tuple[str, str], float] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not raw or raw.startswith("#"):
            continue
        fields = raw.split("\t")
        if len(fields) not in (2, 3):
            raise ParseError(f"expected 2 or 3 tab-separated fields, got {len(fields)}", lineno)
        src, dst = fields[0], fields[1]
        for token in (src, dst):
            if not valid(token):
                raise ParseError(f"invalid vertex name {token!r}", lineno)
        if src == dst:
            raise ParseError(f"self-loop at {src!r}", lineno)
        weight = 1.0
        if len(fields) == 3:
            try:
                weight = float(fields[2])
            except ValueError:
                raise ParseError(f"unparsable weight {fields[2]!r}", lineno) from None
            if not (math.isfinite(weight) and weight > 0):
                raise ParseError(f"weight must be positive and finite, got {fields[2]!r}", lineno)
        total = weights.get((src, dst), 0.0) + weight
        if math.isinf(total):
            raise ParseError(f"summed weight of duplicate edge ({src!r}, {dst!r}) overflows float64", lineno)
        weights[(src, dst)] = total
    return from_edges(weights)


def same_graph(g: Graph, h: Graph) -> bool:
    """Graph equality: the same vertices and the same weight on each edge,
    whatever the edge order."""
    return g.vertices == h.vertices and g.weights == h.weights


def _named(result, key: int) -> tuple[str, str]:
    """The name pair of a trail key ``id(u) * n + id(v)`` over ``result.vertices``."""
    u, v = divmod(key, len(result.vertices))
    return result.vertices[u], result.vertices[v]


def provenance(result) -> dict[tuple[str, str], frozenset[tuple[str, str]]]:
    """Each output edge of a conversion's audit trail and the set of input
    edges it represents, by name."""
    sources: dict[tuple[str, str], set] = {}
    for out_key, in_key in result.links.tolist():
        sources.setdefault(_named(result, out_key), set()).add(_named(result, in_key))
    return {e: frozenset(srcs) for e, srcs in sources.items()}


def dropped(result) -> dict[tuple[str, str], float]:
    """Each dropped input edge of a conversion's audit trail, by name, and
    the weight it lost."""
    return {_named(result, key): w for key, w in zip(result.dropped.tolist(), result.lost.tolist())}


def provenance_nested_sort(provenance, dropped) -> str:
    """``provenance.tsv`` as it was first written: output edges sorted, each
    one's input edges sorted, then the dropped edges, then every line."""
    lines = []
    for out_edge in sorted(provenance):
        for in_edge in sorted(provenance[out_edge]):
            lines.append(f"{out_edge[0]}->{out_edge[1]}\t{in_edge[0]}->{in_edge[1]}")
    for in_edge in sorted(dropped):
        lines.append(f"dropped\t{in_edge[0]}->{in_edge[1]}")
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def preorder_recursive(t: Hierarchy, v: str | None = None) -> list[str]:
    """Depth-first preorder of the subtree at ``v`` (default: the root),
    children in name order."""
    v = root(t) if v is None else v
    order = [v]
    for c in children(t)[v]:
        order += preorder_recursive(t, c)
    return order


def depth_walk(t: Hierarchy, v: str) -> int:
    """Number of vertices on the path from ``v`` up to the root."""
    return 1 if v == root(t) else 1 + depth_walk(t, parents(t)[v])


def leaf_ranges_recursive(t: Hierarchy) -> tuple[tuple[str, ...], dict[str, tuple[int, int]]]:
    """Leaves in preorder, and each vertex's leaves as positions in them."""
    leaves = tuple(v for v in preorder_recursive(t) if not children(t)[v])
    ranges = {}
    for v in t.vertices:
        below = [leaves.index(x) for x in preorder_recursive(t, v) if not children(t)[x]]
        ranges[v] = (min(below), max(below) + 1)
    return leaves, ranges


def leafset_recursive(t: Hierarchy, v: str) -> frozenset[str]:
    kids = children(t)[v]
    if not kids:
        return frozenset((v,))
    out: set[str] = set()
    for c in kids:
        out |= leafset_recursive(t, c)
    return frozenset(out)


def inherit_closure(g: Graph, t: Hierarchy) -> dict[tuple[str, str], float]:
    out: dict[tuple[str, str], float] = {}
    for (u, v), w in g.weights.items():
        for s in leafset_recursive(t, u):
            for d in leafset_recursive(t, v):
                if s != d:
                    out[(s, d)] = out.get((s, d), 0.0) + w
    return out


def inherit_loop(g: Graph, t: Hierarchy):
    """Returns (weights, provenance, dropped) of inherit, one leaf pair at a
    time: each pair's weight is summed over the input edges in sorted order,
    and an edge's diagonal pairs are dropped as ``w * count``."""
    out: dict[tuple[str, str], float] = {}
    prov: dict[tuple[str, str], set] = {}
    dropped: dict[tuple[str, str], float] = {}
    for (u, v), w in sorted(g.weights.items()):
        leaves_u = leafset_recursive(t, u)
        leaves_v = leafset_recursive(t, v)
        for s in leaves_u:
            for d in leaves_v:
                if s == d:
                    continue
                out[(s, d)] = out.get((s, d), 0.0) + w
                prov.setdefault((s, d), set()).add((u, v))
        diagonal = len(leaves_u & leaves_v)
        if diagonal:
            dropped[(u, v)] = w * diagonal
    return out, {e: frozenset(srcs) for e, srcs in prov.items()}, dropped


def _argmax_scan(candidates, score, rtol=0.0):
    """First candidate, in the given order, whose score is within ``rtol``
    (relative) of the maximum score."""
    best = max(score[cand] for cand in candidates)
    return next(cand for cand in candidates if score[cand] >= best * (1.0 - rtol))


def kron_sampling_loop(g: Graph, t: Hierarchy):
    """Returns (weights, provenance, dropped) of Kron placement, walking
    every candidate of every input edge.

    Counts come from :func:`inherit_loop` and resistances from
    :func:`kron_resistance_reference`; masses are ``r * count`` (0 for
    infinite ``r``) divided by their total summed in pair order.  Edges are
    taken by depth product (root at depth 1), deepest first, ties in name
    order.  An edge one of whose candidates is already an output edge
    (same direction only) joins the smallest such edge; otherwise the first
    candidate in name order whose mass is within ``MASS_TIE_RTOL``
    (relative) of the largest is placed, or the first with the largest
    count when no mass is positive.
    """

    def depth(v: str) -> int:
        return 1 if v == root(t) else 1 + depth(parents(t)[v])

    counts, _, _ = inherit_loop(g, t)
    active = {v for v in t.vertices if not children(t)[v] and v in g.vertices
              and any(v in e for e in g.weights)}
    wanted = sorted({(min(s, d), max(s, d)) for s, d in counts if s in active and d in active})
    resist = kron_resistance_reference(g, active, wanted)
    masses = {}
    for (s, d), count in sorted(counts.items()):
        r = resist.get((min(s, d), max(s, d)), math.inf)
        masses[(s, d)] = 0.0 if math.isinf(r) else r * count
    total = sum(masses[e] for e in sorted(masses))
    if total > 0:
        masses = {e: m / total for e, m in masses.items()}

    order = sorted(g.weights)
    order.sort(key=lambda e: depth(e[0]) * depth(e[1]), reverse=True)
    out: dict[tuple[str, str], float] = {}
    prov: dict[tuple[str, str], set] = {}
    dropped: dict[tuple[str, str], float] = {}
    for u, v in order:
        candidates = [(s, d) for s in sorted(leafset_recursive(t, u))
                      for d in sorted(leafset_recursive(t, v)) if s != d]
        if not candidates:
            dropped[(u, v)] = g.weights[(u, v)]
            continue
        blockers = [c for c in candidates if c in out]
        if blockers:
            prov[min(blockers)].add((u, v))
            continue
        chosen = _argmax_scan(candidates, masses, MASS_TIE_RTOL)
        if masses[chosen] <= 0.0:
            chosen = _argmax_scan(candidates, counts)
        out[chosen] = 1.0
        prov[chosen] = {(u, v)}
    return out, {e: frozenset(srcs) for e, srcs in prov.items()}, dropped


def edge_order_sorted(g: Graph, t: Hierarchy) -> list[tuple[str, str]]:
    """The edges by the product of their endpoints' depths (root at depth
    1), deepest first, ties in name order."""
    return sorted(g.weights, key=lambda e: (-depth_walk(t, e[0]) * depth_walk(t, e[1]), e))


def anchor_walk(g: Graph, t: Hierarchy, v: str) -> str:
    chain = [v]
    while chain[-1] != root(t):
        chain.append(parents(t)[chain[-1]])
    degree = degree_loop(g)
    connected = [x for x in chain if degree.get(x)]
    return connected[-1]  # nearest the root


def disinherit_collapse(g: Graph, t: Hierarchy):
    """Returns (edge weights, provenance, dropped, kept vertex set) of the
    anchor collapse, each output weight summed over its input edges in
    sorted order."""
    out: dict[tuple[str, str], float] = {}
    prov: dict[tuple[str, str], set] = {}
    dropped: dict[tuple[str, str], float] = {}
    anchors: set[str] = set()
    for (u, v), w in sorted(g.weights.items()):
        a, b = anchor_walk(g, t, u), anchor_walk(g, t, v)
        anchors.update((a, b))
        if a == b:
            dropped[(u, v)] = w
            continue
        out[(a, b)] = out.get((a, b), 0.0) + w
        prov.setdefault((a, b), set()).add((u, v))
    kept = set()
    for v in t.vertices:
        chain = [v]
        while chain[-1] != root(t):
            chain.append(parents(t)[chain[-1]])
        if not any(a in anchors for a in chain[1:]):  # no proper ancestor is an anchor
            kept.add(v)
    return out, {e: frozenset(srcs) for e, srcs in prov.items()}, dropped, kept


def out_neighbours(g: Graph) -> dict[str, list[str]]:
    """Each vertex's out-neighbours in name order."""
    adj: dict[str, list[str]] = {v: [] for v in g.vertices}
    for u, v in g.weights:
        adj[u].append(v)
    return {v: sorted(ts) for v, ts in adj.items()}


def degree_loop(g: Graph) -> dict[str, int]:
    """In- plus out-degree of every vertex, one edge at a time."""
    degree = dict.fromkeys(g.vertices, 0)
    for u, v in g.weights:
        degree[u] += 1
        degree[v] += 1
    return degree


def active_vertices(g: Graph) -> tuple[str, ...]:
    """The vertices with at least one edge, in name order."""
    degree = degree_loop(g)
    return tuple(v for v in g.vertices if degree[v])


def components_bfs(g: Graph) -> dict[str, int]:
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for u, v in g.weights:
        adj[u].add(v)
        adj[v].add(u)
    comp: dict[str, int] = {}
    k = 0
    for start in g.vertices:
        if start in comp:
            continue
        frontier = [start]
        comp[start] = k
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in comp:
                    comp[y] = k
                    frontier.append(y)
        k += 1
    return comp


def symmetrized(g: Graph) -> dict[tuple[str, str], float]:
    sym: dict[tuple[str, str], float] = {}
    for (a, b), weight in g.weights.items():
        key = (a, b) if a < b else (b, a)
        sym[key] = sym.get(key, 0.0) + weight
    return sym


def laplacian_loop(g: Graph, members=None) -> np.ndarray:
    """Laplacian of the symmetrized graph on ``members`` (default: all
    vertices, in name order), built one edge at a time, so each diagonal
    entry is summed in the order of the symmetrized edges."""
    idx = {name: i for i, name in enumerate(g.vertices if members is None else members)}
    lap = np.zeros((len(idx), len(idx)))
    for (a, b), weight in symmetrized(g).items():
        if a in idx and b in idx:
            i, j = idx[a], idx[b]
            lap[i, j] -= weight
            lap[j, i] -= weight
            lap[i, i] += weight
            lap[j, j] += weight
    return lap


def components_sorted(g: Graph) -> list[tuple[str, ...]]:
    """Components, each in name order, listed by their first member."""
    comp = components_bfs(g)
    groups: dict[int, list[str]] = {}
    for v in g.vertices:
        groups.setdefault(comp[v], []).append(v)
    return [tuple(members) for _, members in sorted(groups.items())]


def cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a⁻¹ b`` through scipy's Cholesky factorization, the route the
    package took before it used ``numpy.linalg`` alone."""
    from scipy.linalg import cho_factor, cho_solve

    return cho_solve(cho_factor(a), b)


def cholesky_inverse(a: np.ndarray) -> np.ndarray:
    return cholesky_solve(a, np.eye(len(a)))


def inverse_by_halves(a: np.ndarray) -> np.ndarray:
    """The block inverse through the Schur complement of the leading half,
    written out block by block: ``x = a11⁻¹``, ``y = x a12``, ``z = (a22 -
    a21 y)⁻¹`` and ``[[x + y z yᵀ, -y z], [-(y z)ᵀ, z]]``, down to LU
    inverses of at most 64 rows.  The same products, so the same bits, as
    the package's positive-definite inverse."""
    if len(a) <= 64:
        return np.linalg.inv(a)
    h = len(a) // 2
    a11, a12, a21, a22 = a[:h, :h], a[:h, h:], a[h:, :h], a[h:, h:]
    x = inverse_by_halves(a11)
    y = x @ a12
    z = inverse_by_halves(a22 - a21 @ y)
    yz = y @ z
    return np.block([[x + yz @ y.T, -yz], [-yz.T, z]])


def symmetric_product(l_ee: np.ndarray, l_ke: np.ndarray) -> np.ndarray:
    """``l_ke l_ee⁻¹ l_keᵀ`` as ``y yᵀ``, with ``y = l_ke m`` and ``m`` the
    lower Cholesky factor of :func:`inverse_by_halves` of ``l_ee``: the same
    products, so the same bits, as the package's Schur complement."""
    y = l_ke @ np.linalg.cholesky(inverse_by_halves(l_ee))
    return y @ y.T


def two_products(l_ee: np.ndarray, l_ke: np.ndarray) -> np.ndarray:
    """``l_ke l_ee⁻¹ l_keᵀ`` as ``l_ke (l_ee⁻¹ l_keᵀ)`` through
    :func:`inverse_by_halves`: the package's Schur complement where the
    symmetric product fails."""
    return l_ke @ (inverse_by_halves(l_ee) @ l_ke.T)


def cholesky_product(l_ee: np.ndarray, l_ke: np.ndarray) -> np.ndarray:
    """``l_ke l_ee⁻¹ l_keᵀ`` as ``l_ke (l_ee⁻¹ l_keᵀ)`` through
    :func:`cholesky_solve`."""
    return l_ke @ cholesky_solve(l_ee, l_ke.T)


def kron_reduce_loop(g: Graph, retain, solve=np.linalg.solve) -> Graph:
    """Kron reduction one component at a time, with the Schur complement's
    upper triangle read entry by entry; components whose vertices are all
    retained keep their symmetrized edges.  ``solve(a, b)`` gives ``a⁻¹ b``
    for the eliminated block."""
    retain = set(retain)
    sym = symmetrized(g)
    out: dict[tuple[str, str], float] = {}
    for comp in components_sorted(g):
        keep = [v for v in comp if v in retain]
        if not keep:
            continue
        if len(keep) == len(comp):
            out.update((e, w) for e, w in sym.items() if e[0] in comp)
            continue
        lap = laplacian_loop(g, comp)
        k = [i for i, v in enumerate(comp) if v in retain]
        e = [i for i, v in enumerate(comp) if v not in retain]
        l_re = lap[np.ix_(k, e)]
        reduced = lap[np.ix_(k, k)] - l_re @ solve(lap[np.ix_(e, e)], l_re.T)
        for a in range(len(keep)):
            for b in range(a + 1, len(keep)):
                if reduced[a, b] < 0:
                    out[(keep[a], keep[b])] = -reduced[a, b]
    return from_edges(out, vertices=retain)


def kron_resistance_reference(g: Graph, retain, pairs, product=symmetric_product,
                              invert=inverse_by_halves) -> dict[tuple[str, str], float]:
    """The resistances Kron placement must reproduce bit for bit, written the
    slow way.  Per component: its Laplacian, replaced by the Schur complement
    ``l_kk - product(l_ee, l_ke)`` onto the retained names when some are
    eliminated, grounded at its first retained name; ``invert`` of the
    grounded block is re-embedded with a zero row and column at the ground,
    and ``R`` is read as ``inv[i, i] + inv[j, j] - (inv[i, j] + inv[j, i])``.
    With :func:`cholesky_product` and :func:`cholesky_inverse` it gives the
    same route through scipy's Cholesky factorization."""
    retain = set(retain)
    comp_of = {v: comp for comp in components_sorted(g) for v in comp}
    inverses: dict[tuple[str, ...], tuple[list[str], np.ndarray]] = {}
    out: dict[tuple[str, str], float] = {}
    for u, v in pairs:
        if u == v:
            out[(u, v)] = 0.0
            continue
        comp = comp_of[u]
        if v not in comp:
            out[(u, v)] = float("inf")
            continue
        if comp not in inverses:
            lap = laplacian_loop(g, comp)
            k = [i for i, x in enumerate(comp) if x in retain]
            e = [i for i, x in enumerate(comp) if x not in retain]
            if e:
                lap = lap[np.ix_(k, k)] - product(lap[np.ix_(e, e)], lap[np.ix_(k, e)])
            full = np.zeros((len(k), len(k)))
            full[1:, 1:] = invert(lap[1:, 1:])
            inverses[comp] = ([comp[i] for i in k], full)
        kept, full = inverses[comp]
        i, j = sorted((kept.index(u), kept.index(v)))
        out[(u, v)] = float(full[i, i] + full[j, j] - (full[i, j] + full[j, i]))
    return out


def resistance_grounded(g: Graph, pairs, invert=np.linalg.inv) -> dict[tuple[str, str], float]:
    """Effective resistance from ``invert`` applied to each component's
    Laplacian grounded at its first member: the reference with nothing
    eliminated, by default through LAPACK's LU inverse, which the package
    matches bit for bit only on blocks of at most 64 rows."""
    return kron_resistance_reference(g, g.vertices, pairs, invert=invert)


def resistance_pinv(g: Graph, u: str, v: str) -> float:
    """Effective resistance through the Moore-Penrose pseudoinverse."""
    if u == v:
        return 0.0
    comp = components_bfs(g)
    if comp[u] != comp[v]:
        return float("inf")
    idx = {name: i for i, name in enumerate(g.vertices)}
    n = len(g.vertices)
    w = np.zeros((n, n))
    for (a, b), weight in g.weights.items():
        w[idx[a], idx[b]] += weight
        w[idx[b], idx[a]] += weight
    lap = np.diag(w.sum(axis=1)) - w
    pinv = np.linalg.pinv(lap)
    i, j = idx[u], idx[v]
    return float(pinv[i, i] + pinv[j, j] - 2 * pinv[i, j])


def floyd_warshall(g: Graph) -> dict[tuple[str, str], int]:
    names = g.vertices
    n = len(names)
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    idx = {name: i for i, name in enumerate(names)}
    for u, v in g.weights:
        dist[idx[u]][idx[v]] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return {
        (names[i], names[j]): int(dist[i][j])
        for i in range(n)
        for j in range(n)
        if i != j and dist[i][j] < inf
    }


def enumerate_shortest_paths(g: Graph, source: str, target: str, dist: dict) -> list[tuple[str, ...]]:
    """All shortest directed paths, by exhaustive depth-first search."""
    goal = dist.get((source, target))
    if goal is None:
        return []
    out_map = out_neighbours(g)
    paths: list[tuple[str, ...]] = []

    def walk(prefix: list[str]):
        head = prefix[-1]
        if head == target:
            if len(prefix) - 1 == goal:
                paths.append(tuple(prefix))
            return
        if len(prefix) - 1 >= goal:
            return
        for step in out_map[head]:
            remaining = dist.get((step, target), 0 if step == target else None)
            if remaining is not None and len(prefix) + remaining == goal:
                walk(prefix + [step])

    walk([source])
    return paths


def betweenness_paths(g: Graph) -> dict[str, Fraction]:
    """Exact rational betweenness from explicitly enumerated shortest paths."""
    dist = floyd_warshall(g)
    scores = {v: Fraction(0) for v in g.vertices}
    for s in g.vertices:
        for t in g.vertices:
            if s == t or (s, t) not in dist:
                continue
            paths = enumerate_shortest_paths(g, s, t, dist)
            total = len(paths)
            if total == 0:
                continue
            for path in paths:
                for interior in path[1:-1]:
                    scores[interior] += Fraction(1, total)
    return scores


def out_adjacency(g: Graph) -> list[list[int]]:
    idx = {v: i for i, v in enumerate(g.vertices)}
    return [[idx[w] for w in targets] for targets in out_neighbours(g).values()]


def bfs_distances(adjacency: list[list[int]], source: int) -> list[int]:
    """Queue-based BFS distances from ``source``; -1 where unreached."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def brandes_betweenness(g: Graph) -> dict[str, float]:
    """Brandes (2001) with a FIFO queue and integer path counts.

    This is the loop the vectorised kernel must reproduce bit for bit: the
    same floating-point terms, summed in the same order.
    """
    adjacency = out_adjacency(g)
    n = len(adjacency)
    scores = [0.0] * n
    for source in range(n):
        if not adjacency[source]:
            continue
        sigma = [0] * n
        sigma[source] = 1
        dist = [-1] * n
        dist[source] = 0
        preds: list[list[int]] = [[] for _ in range(n)]
        order: list[int] = []
        queue = deque([source])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        delta = [0.0] * n
        for w in reversed(order):
            for u in preds[w]:
                delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w])
            if w != source:
                scores[w] += delta[w]
    return dict(zip(g.vertices, scores))


def path_sums(g: Graph) -> dict[str, object]:
    """Distance sums and reach counts, per source and per target, with the
    diameter and characteristic path length, from queue-based BFS."""
    adjacency = out_adjacency(g)
    n = len(adjacency)
    sum_out, reach_out, sum_in, reach_in = ([0] * n for _ in range(4))
    diameter = 0
    for source in range(n):
        for target, d in enumerate(bfs_distances(adjacency, source)):
            if d > 0:
                sum_out[source] += d
                reach_out[source] += 1
                sum_in[target] += d
                reach_in[target] += 1
                diameter = max(diameter, d)
    pairs = sum(reach_out)
    return {
        "sum_out": sum_out, "reach_out": reach_out, "sum_in": sum_in, "reach_in": reach_in,
        "diameter": diameter, "characteristic_path_length": sum(sum_out) / pairs if pairs else None,
    }


def dense_adjacency(g: Graph) -> np.ndarray:
    """The 0/1 adjacency as a dense float matrix, ``a[u, v] = 1`` for ``u -> v``."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    a = np.zeros((len(g.vertices), len(g.vertices)))
    for u, v in g.weights:
        a[idx[u], idx[v]] = 1.0
    return a


def hits_dense(g: Graph, tol: float = 1e-12, max_iterations: int = 10_000) -> tuple[dict, dict]:
    """Hub and authority scores by power iteration on the dense adjacency,
    with BLAS mat-vecs and ``np.linalg.norm``."""
    a = dense_adjacency(g)
    n = a.shape[0]
    hub = np.full(n, 1.0 / math.sqrt(n))
    auth = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iterations):
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
        if delta <= tol:
            return dict(zip(g.vertices, hub.tolist())), dict(zip(g.vertices, auth.tolist()))
    raise AssertionError("hubs/authorities power iteration did not converge")


def pagerank_dense(g: Graph, damping: float = 0.85, tol: float = 1e-12, max_iterations: int = 10_000) -> dict:
    """PageRank by power iteration on the dense transition matrix, dangling
    vertices spreading their mass uniformly."""
    a = dense_adjacency(g)
    n = a.shape[0]
    out_degree = a.sum(axis=1)
    dangling = out_degree == 0
    transition = np.divide(a, out_degree[:, None], out=np.zeros_like(a), where=out_degree[:, None] > 0)
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(max_iterations):
        new_x = damping * (transition.T @ x) + teleport
        new_x += damping * x[dangling].sum() / n
        if np.abs(new_x - x).sum() <= tol:
            return dict(zip(g.vertices, new_x.tolist()))
        x = new_x
    raise AssertionError("pagerank power iteration did not converge")
