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
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
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


def _pairs(names: tuple[str, ...], keys: np.ndarray) -> list[Edge]:
    """The name pairs ``(s, d)`` of keys ``id(s) * n + id(d)``."""
    s, d = np.divmod(keys, len(names))
    return list(zip(map(names.__getitem__, s.tolist()), map(names.__getitem__, d.tolist())))


@dataclass(frozen=True, eq=False)
class Graph:
    """A directed weighted graph without self-loops or parallel edges.

    ``vertices`` is the full vertex universe in sorted order; the position
    of a name in it is the vertex's dense integer id.  Edge ``k`` runs from
    ``src[k]`` to ``dst[k]`` with weight ``w[k]``; the constructor checks
    them and stores read-only copies.  Vertices without any incident edge
    are allowed (hierarchy-only container vertices).
    """

    vertices: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        for name, dtype in (("src", np.int64), ("dst", np.int64), ("w", np.float64)):
            given = np.asarray(getattr(self, name))
            if given.size and not np.can_cast(given.dtype, dtype, "same_kind"):
                raise ValidationError(f"{name} holds {given.dtype}, not {np.dtype(dtype)}")
            object.__setattr__(self, name, given.astype(dtype))
            getattr(self, name).flags.writeable = False
        names, src, dst, w, n = self.vertices, self.src, self.dst, self.w, len(self.vertices)
        if not (w.ndim == 1 and src.shape == dst.shape == w.shape):
            raise ValidationError("src, dst and w must be 1-D arrays of one length")
        _check_names(names)
        if any(a >= b for a, b in zip(names, names[1:])):
            raise ValidationError("vertices must be sorted and distinct")
        if not ((src >= 0) & (src < n) & (dst >= 0) & (dst < n)).all():
            raise ValidationError(f"edge id outside the {n} vertex ids")
        loops = np.flatnonzero(src == dst)
        if len(loops):
            raise ValidationError(f"self-loop at {names[src[loops[0]]]!r}")
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
        if len(bad):
            u, v, x = names[src[bad[0]]], names[dst[bad[0]]], w[bad[0]].item()
            raise ValidationError(f"edge ({u!r}, {v!r}) has non-positive weight {x!r}")
        keys = np.sort(src * n + dst)
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if len(repeated):
            u, v = divmod(int(keys[repeated[0]]), n)
            raise ValidationError(f"parallel edges ({names[u]!r}, {names[v]!r})")

    @classmethod
    def from_edges(cls, weights: Mapping[Edge, float], vertices: Iterable[str] = ()) -> "Graph":
        """Build a graph from a weight map, with edges in its order; the
        universe is the union of the given vertices and all edge endpoints."""
        names = tuple(sorted(set(vertices).union(*weights)))
        index = {v: i for i, v in enumerate(names)}
        return cls(names, [index[u] for u, _ in weights], [index[v] for _, v in weights], list(weights.values()))

    @cached_property
    def weights(self) -> dict[Edge, float]:
        """The edges as a name-pair → weight map in edge order, built on
        first use; treat it as read-only."""
        return dict(zip(_pairs(self.vertices, self.src * len(self.vertices) + self.dst), self.w.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.w)

    def with_vertices(self, extra: Iterable[str]) -> "Graph":
        """The same edges, in the same order, over a universe extended by
        ``extra`` names."""
        vertices = tuple(sorted(set(self.vertices).union(extra)))
        index = {v: i for i, v in enumerate(vertices)}
        new_id = np.fromiter(map(index.__getitem__, self.vertices), dtype=np.int64, count=len(self.vertices))
        return Graph(vertices, new_id[self.src], new_id[self.dst], self.w)


# A Hierarchy on its dense vertex ids: see Hierarchy.ids.
TreeIds = namedtuple("TreeIds", "order end depth leaf lo hi")


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
        self.ids  # its preorder pass rejects cycles

    @cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        kids: dict[str, list[str]] = {v: [] for v in self.vertices}
        for child, par in self.parent.items():
            kids[par].append(child)
        return {v: tuple(sorted(cs)) for v, cs in kids.items()}

    @cached_property
    def ids(self) -> TreeIds:
        """The tree on its dense vertex ids (positions in ``vertices``) as
        read-only arrays, from one depth-first pass from the root with
        children in name order.

        ``order`` is the preorder and ``order[p:end[p]]`` the subtree at
        position ``p``.  Per id: ``depth`` (the root's is 1), ``leaf``, and
        the descendant leaves as the range ``[lo, hi)`` of the leaves in
        preorder, ``order[leaf[order]]``; a leaf's range holds only itself.
        No cycle is reachable from the root, as every vertex but the root
        has one parent: a vertex the pass misses is on a cycle and raises
        :class:`ValidationError`.
        """
        index, n = {v: i for i, v in enumerate(self.vertices)}, len(self.vertices)
        kids = [list(map(index.__getitem__, self.children[v])) for v in self.vertices]
        order, depth, stop = [], [0] * n, [0] * n  # per id: depth, and the position after its subtree
        stack = [(index[self.root], 1)]
        while stack:
            v, d = stack.pop()
            if v < 0:  # the subtree of ~v is listed
                stop[~v] = len(order)
                continue
            order.append(v)
            depth[v] = d
            stack.append((~v, 0))
            stack.extend((c, d + 1) for c in reversed(kids[v]))
        if len(order) != n:
            stranded = list(compress(self.vertices, [not d for d in depth]))
            raise ValidationError(f"cycle: vertices {stranded[:3]} unreachable from root {self.root!r}")
        preorder, stop, leaf = np.array(order), np.array(stop), np.array([not k for k in kids], dtype=bool)
        before = np.concatenate(([0], np.cumsum(leaf[preorder])))  # leaves ahead of each position
        lo, hi = before[np.argsort(preorder)], before[stop]
        view = TreeIds(preorder, stop[preorder], np.array(depth), leaf, lo, hi)
        for array in view:
            array.flags.writeable = False
        return view

    def is_leaf(self, v: str) -> bool:
        kids = self.children.get(v)
        if kids is None:
            raise DomainError(f"unknown vertex {v!r}")
        return not kids

    def restricted_to(self, keep: Iterable[str]) -> "Hierarchy":
        """Sub-hierarchy on an ancestor-closed subset containing the root."""
        kept = set(keep)
        unknown = kept.difference(self.children)
        if unknown:
            raise ValidationError(f"restriction names {min(unknown)!r}, which is not in the hierarchy")
        if self.root not in kept:
            raise ValidationError("restriction must keep the root")
        for v in kept:
            if v != self.root and self.parent[v] not in kept:
                raise ValidationError(f"restriction is not ancestor-closed at {v!r}")
        parent = {v: p for v, p in self.parent.items() if v in kept}
        return Hierarchy(tuple(sorted(kept)), parent, self.root)


def _first_sums(keys: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions where the distinct ``keys`` first appear, ascending, and
    per distinct key its weights ``0.0 + w[k1] + w[k2] + ...`` in input order."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.bincount(np.argsort(order)[inverse], weights=w, minlength=len(order))


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
    if not (w > 0).all():  # before summing, which could hide a bad weight
        return _load_graph_lines(text)
    first, w = _first_sums(s * len(names) + d, w)  # duplicate lines summed in line order
    try:  # names, self-loops, and sums that overflow
        return Graph(tuple(names), s[first], d[first], w)
    except ValidationError:
        return _load_graph_lines(text)


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
    check_pair(graph, universe)
    return Hierarchy(tuple(sorted(universe)), parent, roots[0])


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text: sorted lines, explicit weights."""
    src, dst, w = g.src, g.dst, g.w
    order = np.argsort(src * len(g.vertices) + dst)  # ids follow name order, so this is name-pair order
    names, edges = g.vertices, zip(src[order].tolist(), dst[order].tolist(), w[order].tolist())
    lines = [f"{names[u]}\t{names[v]}\t{x!r}" for u, v, x in edges]
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_hierarchy(h: Hierarchy) -> str:
    """Canonical parent-child text: one line per tree edge, sorted."""
    lines = [f"{p}\t{c}" for c, p in sorted(h.parent.items(), key=lambda it: (it[1], it[0]))]
    return "\n".join(lines) + ("\n" if lines else "")


def check_pair(g: Graph, tree: Iterable[str]) -> None:
    """Every graph vertex must sit in the hierarchy whose vertex names are ``tree``."""
    missing = set(g.vertices).difference(tree)
    if missing:
        raise ValidationError(f"graph vertex {min(missing)!r} missing from the hierarchy")
