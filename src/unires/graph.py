"""Directed connectivity networks and the vertex hierarchies that scope them.

A network is a set of named vertices plus directed, positively weighted
edges; a hierarchy is a rooted tree over a superset of those vertices.
Edges may sit at any tree vertex, internal or leaf; the resolution
algorithms in :mod:`unires.resolution` rewrite them onto leaves.

File formats (byte-exact CLI contracts):

* edge list  -- UTF-8, LF line endings, ``#`` comment lines, and data lines
  ``source<TAB>target`` or ``source<TAB>target<TAB>weight``.  Duplicate
  lines sum their weights; the default weight is 1.0.
* hierarchy  -- one ``parent<TAB>child`` line per tree edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, repeat
from typing import Iterable, Iterator, Mapping

import numpy as np

Edge = tuple[str, str]


class ParseError(ValueError):
    """A malformed input document; remembers the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ValidationError(ValueError):
    """Structurally invalid data (bad tree, mismatched vertex sets, ...)."""


class DomainError(ValueError):
    """An operation was asked about a vertex or argument outside its domain."""


def _valid_name(token: str) -> bool:
    """Non-empty, unpadded, without tab or newline, and not starting with
    ``#``: such a name would turn its output lines into comments."""
    return bool(token) and token == token.strip() and "\t" not in token and "\n" not in token and token[0] != "#"


def _check_names(names: Iterable[str]) -> None:
    for name in names:
        if not _valid_name(name):
            raise ValidationError(f"invalid vertex name {name!r}")


@dataclass(frozen=True)
class Graph:
    """A directed weighted graph without self-loops or parallel edges.

    ``vertices`` is the full vertex universe in sorted order; the position
    of a name in it is the vertex's dense integer id.  Vertices without any
    incident edge are allowed (hierarchy-only container vertices).
    Instances are immutable after construction; treat ``weights`` as
    read-only.
    """

    vertices: tuple[str, ...]
    weights: dict[Edge, float]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.vertices)))
        object.__setattr__(self, "vertices", ordered)
        _check_names(ordered)
        universe = set(ordered)
        plain: dict[Edge, float] = {}
        for (u, v), w in self.weights.items():
            if u == v:
                raise ValidationError(f"self-loop at {u!r}")
            if u not in universe or v not in universe:
                raise ValidationError(f"edge ({u!r}, {v!r}) outside the vertex set")
            if not (isinstance(w, (int, float)) and math.isfinite(w) and w > 0):
                raise ValidationError(f"edge ({u!r}, {v!r}) has non-positive weight {w!r}")
            plain[(u, v)] = float(w)
        object.__setattr__(self, "weights", plain)

    @classmethod
    def _trusted(cls, vertices: tuple[str, ...], weights: dict[Edge, float], arrays=None) -> "Graph":
        """A graph from parts the package has checked itself, so not checked
        again; ``arrays``, when given, must equal what the property computes."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "vertices", vertices)
        object.__setattr__(graph, "weights", weights)
        if arrays is not None:
            graph.__dict__["arrays"] = arrays
        return graph

    @classmethod
    def from_edges(cls, weights: Mapping[Edge, float], vertices: Iterable[str] = ()) -> "Graph":
        """Build a graph from a weight map; the universe is the union of the
        given vertices and all edge endpoints."""
        universe = set(vertices)
        for u, v in weights:
            universe.add(u)
            universe.add(v)
        return cls(tuple(sorted(universe)), dict(weights))

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every edge as ``(src, dst, w)``: dense ids and weights, in
        ``weights`` insertion order.  Treat the arrays as read-only."""
        idx, m = self.index, len(self.weights)
        src = np.fromiter((idx[u] for u, _ in self.weights), dtype=np.int64, count=m)
        dst = np.fromiter((idx[v] for _, v in self.weights), dtype=np.int64, count=m)
        return src, dst, np.fromiter(self.weights.values(), dtype=float, count=m)

    @cached_property
    def _degrees(self) -> list[int]:
        src, dst, _ = self.arrays
        return np.bincount(np.concatenate((src, dst)), minlength=len(self.vertices)).tolist()

    @property
    def edge_count(self) -> int:
        return len(self.weights)

    def has_vertex(self, v: str) -> bool:
        return v in self.index

    def degree(self, v: str) -> int:
        """Total number of edges touching ``v`` (in plus out)."""
        return self._degrees[self.index[v]]

    def active_vertices(self) -> tuple[str, ...]:
        return tuple(compress(self.vertices, self._degrees))

    def with_vertices(self, extra: Iterable[str]) -> "Graph":
        """Same edges over a universe extended by ``extra`` names.

        Only the added names are validated: the edges were checked when
        this graph was built.
        """
        added = sorted(set(extra).difference(self.vertices))
        _check_names(added)
        vertices = tuple(sorted((*self.vertices, *added)))
        index = {v: i for i, v in enumerate(vertices)}
        new_id = np.fromiter(map(index.__getitem__, self.vertices), dtype=np.int64, count=len(self.vertices))
        src, dst, w = self.arrays
        return Graph._trusted(vertices, dict(self.weights), (new_id[src], new_id[dst], w))


@dataclass(frozen=True)
class Hierarchy:
    """A rooted tree: every vertex except the root has exactly one parent."""

    vertices: tuple[str, ...]
    parent: dict[str, str]
    root: str

    def __post_init__(self):
        ordered = tuple(sorted(set(self.vertices)))
        object.__setattr__(self, "vertices", ordered)
        _check_names(ordered)
        universe = set(ordered)
        if self.root not in universe:
            raise ValidationError(f"root {self.root!r} not among the vertices")
        if set(self.parent) != universe - {self.root}:
            missing = sorted((universe - {self.root}) ^ set(self.parent))
            raise ValidationError(f"parent map must cover every non-root vertex; mismatch at {missing[:3]}")
        for child, par in self.parent.items():
            if par not in universe:
                raise ValidationError(f"parent {par!r} of {child!r} not among the vertices")
        # With one parent per vertex and none for the root, no cycle is
        # reachable from the root: the preorder misses exactly the cycles.
        order = self.dfs_preorder()
        if len(order) != len(ordered):
            stranded = sorted(universe.difference(order))
            raise ValidationError(f"cycle: vertices {stranded[:3]} unreachable from root {self.root!r}")

    @cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        kids: dict[str, list[str]] = {v: [] for v in self.vertices}
        for child, par in self.parent.items():
            kids[par].append(child)
        return {v: tuple(sorted(cs)) for v, cs in kids.items()}

    @cached_property
    def _preorder(self) -> tuple[tuple[str, ...], list[int], list[int]]:
        """One depth-first pass from the root, children in name order: the
        preorder, and per position the depth (the root's is 1) and the end
        of the subtree, so that ``order[p:end[p]]`` is the subtree at
        position ``p``."""
        order: list[str] = []
        depth: list[int] = []
        stack = [(self.root, 1)]
        while stack:
            v, d = stack.pop()
            order.append(v)
            depth.append(d)
            stack.extend((c, d + 1) for c in reversed(self.children[v]))
        position = {v: p for p, v in enumerate(order)}
        end = list(range(1, len(order) + 1))
        for p in reversed(range(len(order))):  # children before their parent
            kids = self.children[order[p]]
            if kids:
                end[p] = end[position[kids[-1]]]
        return tuple(order), depth, end

    @cached_property
    def leaf_ranges(self) -> tuple[tuple[str, ...], dict[str, tuple[int, int]]]:
        """The leaves in :meth:`dfs_preorder` order, and each vertex's
        descendant leaves as one range ``[lo, hi)`` of that sequence.

        Children are visited in name order, so every subtree's leaves are
        contiguous; a leaf's range holds only itself.
        """
        order, _, end = self._preorder
        is_leaf = [not self.children[v] for v in order]
        before = list(accumulate(is_leaf, initial=0))  # leaves ahead of each position
        ranges = {v: (before[p], before[end[p]]) for p, v in enumerate(order)}
        return tuple(compress(order, is_leaf)), ranges

    def is_leaf(self, v: str) -> bool:
        kids = self.children.get(v)
        if kids is None:
            raise DomainError(f"unknown vertex {v!r}")
        return not kids

    def dfs_preorder(self) -> tuple[str, ...]:
        """Depth-first preorder from the root, children in name order."""
        return self._preorder[0]

    def restricted_to(self, keep: Iterable[str]) -> "Hierarchy":
        """Sub-hierarchy on an ancestor-closed subset containing the root."""
        kept = set(keep)
        if self.root not in kept:
            raise ValidationError("restriction must keep the root")
        for v in kept:
            if v != self.root and self.parent[v] not in kept:
                raise ValidationError(f"restriction is not ancestor-closed at {v!r}")
        parent = {v: p for v, p in self.parent.items() if v in kept}
        return Hierarchy(tuple(sorted(kept)), parent, self.root)


def _iter_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not raw or raw.startswith("#"):
            continue
        yield lineno, raw


def load_graph(text: str) -> Graph:
    """Parse an edge-list document.

    Raises :class:`ParseError` (with the line number) on a wrong field
    count, an invalid vertex name, a non-positive or unparsable weight, a
    self-loop, or duplicate edges whose summed weight overflows float64.
    Weights of duplicate edges are summed, in line order.

    The whole document is parsed at once into name ids and weight arrays;
    on any problem the line-by-line parse below runs instead, so that it
    alone words every error and names its line.
    """
    lines = [raw for raw in text.split("\n") if raw and raw[0] != "#"]
    m = len(lines)
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64, count=m)
    if not m or not np.isin(tabs, (1, 2)).all():
        return _load_graph_lines(text)
    if tabs.min() < tabs.max():  # give the 2-field lines their weight 1
        lines = [raw if k == 2 else raw + "\t1" for raw, k in zip(lines, tabs.tolist())]
    k = int(tabs.max()) + 1
    fields = "\t".join(lines).split("\t")
    del lines  # lower the peak: the lines' strings are not needed beside their fields
    src, dst = fields[0::k], fields[1::k]
    names = sorted(set(src).union(dst))
    index = {v: i for i, v in enumerate(names)}
    s, d = (np.fromiter(map(index.__getitem__, ends), dtype=np.int64, count=m) for ends in (src, dst))
    try:
        w = np.fromiter(map(float, fields[2::3]), dtype=float, count=m) if k == 3 else np.ones(m)
    except ValueError:
        return _load_graph_lines(text)
    if not (all(map(_valid_name, names)) and (s != d).all() and np.isfinite(w).all() and (w > 0).all()):
        return _load_graph_lines(text)
    keys, first, inverse = np.unique(s * len(names) + d, return_index=True, return_inverse=True)
    if len(keys) < m:  # sum duplicate lines in line order; keep keys in order of first appearance
        order = np.argsort(first)
        w = np.bincount(np.argsort(order)[inverse], weights=w, minlength=len(keys))
        if np.isinf(w).any():
            return _load_graph_lines(text)
        first = first[order].tolist()
        s, d, src, dst = s[first], d[first], list(map(src.__getitem__, first)), list(map(dst.__getitem__, first))
    return Graph._trusted(tuple(names), dict(zip(zip(src, dst), w.tolist())), (s, d, w))


def _load_graph_lines(text: str) -> Graph:
    """:func:`load_graph` one line at a time, raising at the first bad line."""
    weights: dict[Edge, float] = {}
    for lineno, raw in _iter_lines(text):
        fields = raw.split("\t")
        if len(fields) not in (2, 3):
            raise ParseError(f"expected 2 or 3 tab-separated fields, got {len(fields)}", lineno)
        src, dst = fields[0], fields[1]
        for token in (src, dst):
            if not _valid_name(token):
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
    return Graph.from_edges(weights)


def load_hierarchy(text: str, graph: Graph) -> Hierarchy:
    """Parse a parent-child document and check it covers ``graph``.

    Raises :class:`ParseError` for malformed lines and
    :class:`ValidationError` for a child with two parents, multiple roots,
    cycles, or a graph vertex missing from the tree (named in the message).
    """
    parent: dict[str, str] = {}
    universe: set[str] = set()
    for lineno, raw in _iter_lines(text):
        fields = raw.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected 2 tab-separated fields, got {len(fields)}", lineno)
        par, child = fields
        for token in (par, child):
            if not _valid_name(token):
                raise ParseError(f"invalid vertex name {token!r}", lineno)
        if child in parent and parent[child] != par:
            raise ValidationError(f"vertex {child!r} has two parents: {parent[child]!r} and {par!r}")
        parent[child] = par
        universe.add(par)
        universe.add(child)
    roots = sorted(universe - set(parent))
    if not universe:
        raise ValidationError("hierarchy document contains no tree edges")
    if not roots:
        raise ValidationError("no root vertex: parent links form a cycle")
    if len(roots) > 1:
        raise ValidationError(f"multiple roots: {roots}")
    for v in graph.vertices:
        if v not in universe:
            raise ValidationError(f"graph vertex {v!r} missing from the hierarchy")
    return Hierarchy(tuple(sorted(universe)), parent, roots[0])


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text: sorted lines, explicit weights."""
    src, dst, w = g.arrays
    order = np.argsort(src * len(g.vertices) + dst)  # ids follow name order, so this is name-pair order
    names, edges = g.vertices, zip(src[order].tolist(), dst[order].tolist(), w[order].tolist())
    lines = [f"{names[u]}\t{names[v]}\t{x!r}" for u, v, x in edges]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_hierarchy(h: Hierarchy) -> str:
    """Canonical parent-child text: one line per tree edge, sorted."""
    lines = [f"{p}\t{c}" for c, p in sorted(h.parent.items(), key=lambda it: (it[1], it[0]))]
    return "\n".join(lines) + ("\n" if lines else "")


def check_pair(g: Graph, t: Hierarchy) -> None:
    """Every graph vertex must sit in the hierarchy."""
    tree = set(t.vertices)
    for v in g.vertices:
        if v not in tree:
            raise ValidationError(f"graph vertex {v!r} missing from the hierarchy")
