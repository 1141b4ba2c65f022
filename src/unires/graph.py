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

from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, filterfalse, repeat
from typing import Iterable, Iterator

import numpy as np

Edge = tuple[str, str]

# Edge lists are parsed in blocks of about BLOCK characters cut at line ends, and
# written BLOCK // 8 rows at a time, so that no step holds an object per line.
BLOCK = 1 << 16


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
    """Non-empty, unpadded, without tab, LF or CR (read as LF), and not
    starting with ``#``: such a name would turn its lines into comments."""
    return (bool(token) and token == token.strip() and token[0] != "#"
            and "\t" not in token and "\n" not in token and "\r" not in token)


def _check_names(names: tuple[str, ...]) -> None:
    for name in names:
        if not _valid_name(name):
            raise ValidationError(f"invalid vertex name {name!r}")
    if any(a >= b for a, b in zip(names, names[1:])):
        raise ValidationError("vertices must be sorted and distinct")


def _intake(name: str, given, dtype) -> np.ndarray:
    """``given`` as a read-only ``dtype`` copy; another kind (a float id) raises."""
    given = np.asarray(given)
    if given.size and not np.can_cast(given.dtype, dtype, "same_kind"):
        raise ValidationError(f"{name} holds {given.dtype}, not {np.dtype(dtype)}")
    array = given.astype(dtype)
    array.flags.writeable = False
    return array


def _pairs(names: tuple[str, ...], keys: np.ndarray) -> Iterator[Edge]:
    """The name pairs ``(s, d)`` of keys ``id(s) * n + id(d)``, one by one."""
    table = np.array(names, dtype=object)  # indexing it makes no int per id
    for part in np.split(keys, range(BLOCK // 8, len(keys), BLOCK // 8)):
        s, d = np.divmod(part, len(names))
        yield from zip(table[s].tolist(), table[d].tolist())


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
            object.__setattr__(self, name, _intake(name, getattr(self, name), dtype))
        names, src, dst, w, n = self.vertices, self.src, self.dst, self.w, len(self.vertices)
        if not (w.ndim == 1 and src.shape == dst.shape == w.shape):
            raise ValidationError("src, dst and w must be 1-D arrays of one length")
        _check_names(names)
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

    @cached_property
    def weights(self) -> dict[Edge, float]:
        """The edges as a name-pair → weight map in edge order, built on
        first use; treat it as read-only."""
        return dict(zip(_pairs(self.vertices, self.src * len(self.vertices) + self.dst), self.w.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.w)


# A Hierarchy on its dense vertex ids: see Hierarchy.ids.
TreeIds = namedtuple("TreeIds", "order end depth leaf lo hi")


@dataclass(frozen=True, eq=False)
class Hierarchy:
    """A rooted tree on sorted, distinct vertex names: ``parent[i]`` is the
    id (position in ``vertices``) of vertex ``i``'s parent, -1 at the root
    alone; the constructor checks it and stores a read-only int64 copy."""

    vertices: tuple[str, ...]
    parent: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "parent", _intake("parent", self.parent, np.int64))
        parent, n = self.parent, len(self.vertices)
        _check_names(self.vertices)
        if parent.shape != (n,) or not ((parent >= -1) & (parent < n)).all():
            raise ValidationError(f"parent must be {n} ids in [-1, {n})")
        roots = np.count_nonzero(parent < 0)
        if roots != 1:
            raise ValidationError(f"a tree has one root, not {roots}")
        self.ids  # its preorder pass rejects cycles

    @cached_property
    def ids(self) -> TreeIds:
        """The tree on its dense vertex ids (positions in ``vertices``) as
        read-only arrays, from one depth-first pass from the root with
        each vertex's subtrees in name order.

        ``order`` is the preorder and ``order[p:end[p]]`` the subtree at
        position ``p``.  Per id: ``depth`` (the root's is 1), ``leaf``, and
        the descendant leaves as the range ``[lo, hi)`` of the leaves in
        preorder, ``order[leaf[order]]``; a leaf's range holds only itself.
        No cycle is reachable from the root, as every vertex but the root
        has one parent: a vertex the pass misses is on a cycle and raises
        :class:`ValidationError`.
        """
        n = len(self.vertices)
        kids = np.argsort(self.parent, kind="stable").tolist()  # the root, then the ids under each parent id in turn
        first = np.cumsum(np.bincount(self.parent + 1, minlength=n + 1)).tolist()  # those under v: kids[first[v]:first[v + 1]]
        order, depth, stop = [], [0] * n, [0] * n  # per id: depth, and the position after its subtree
        stack = [(kids[0], 1)]
        while stack:
            v, d = stack.pop()
            if v < 0:  # the subtree of ~v is listed
                stop[~v] = len(order)
                continue
            order.append(v)
            depth[v] = d
            stack.append((~v, 0))
            stack.extend((c, d + 1) for c in reversed(kids[first[v]:first[v + 1]]))
        if len(order) != n:
            stranded = list(compress(self.vertices, [not d for d in depth]))
            raise ValidationError(f"cycle: vertices {stranded[:3]} unreachable from root {self.vertices[kids[0]]!r}")
        preorder, stop, leaf = np.array(order), np.array(stop), np.diff(first) == 0
        before = np.concatenate(([0], np.cumsum(leaf[preorder])))  # leaves ahead of each position
        lo, hi = before[np.argsort(preorder)], before[stop]
        view = TreeIds(preorder, stop[preorder], np.array(depth), leaf, lo, hi)
        for array in view:
            array.flags.writeable = False
        return view

    def is_leaf(self, v: str) -> bool:
        i = bisect_left(self.vertices, v)
        if self.vertices[i:i + 1] != (v,):
            raise DomainError(f"unknown vertex {v!r}")
        return bool(self.ids.leaf[i])


def _first_sums(keys: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in the order they first appear, and per distinct
    key its weights ``0.0 + w[k1] + w[k2] + ...`` in input order."""
    order = np.argsort(keys, kind="stable")  # each key's positions stay in input order
    new = np.diff(keys[order], prepend=-1) != 0  # where a key's positions begin, as keys are >= 0
    by_first = np.argsort(order[new])  # np.bincount adds a bin's weights in turn, here in input order
    return keys[order[new][by_first]], np.bincount(np.cumsum(new), weights=w[order])[1:][by_first]


def _first_fault(fields: list[str], k: int, pair: np.ndarray, new: set[str]) -> tuple[int, str]:
    """The place of a block's first bad line among its lines, and its error.

    ``fields`` holds the block's lines split at tabs, ``k`` to a line, and
    ``pair`` their ids; ``new`` the names the block brings.  Names and
    self-loops are checked by masks; as a line's weight is checked after
    them, only the weights of the lines before the first they fail are
    scanned.
    """
    m, bad = pair.shape[1], set(filterfalse(_valid_name, new))
    masks = [np.fromiter(map(bad.__contains__, fields[f::k]), dtype=bool, count=m) for f in (0, 1)]
    first = [int(mask.argmax()) if mask.any() else m for mask in (*masks, pair[0] == pair[1])]
    p = min(first)
    for q, token in enumerate(fields[2:3 * p:3] if k == 3 else ()):
        try:
            x = float(token)
        except ValueError:
            return q, f"unparsable weight {token!r}"
        if not 0 < x < np.inf:
            return q, f"weight must be positive and finite, got {token!r}"
    f = first.index(p)  # source name, target name, self-loop: their order within a line
    return p, f"self-loop at {fields[k * p]!r}" if f == 2 else f"invalid vertex name {fields[k * p + f]!r}"


def load_graph(text: str) -> Graph:
    """Parse an edge-list document.

    Raises :class:`ParseError` for the first bad line, with its number: a
    wrong field count, an invalid vertex name, a self-loop, an unparsable
    or non-positive weight (checked in that order within a line), or a
    duplicate line whose running weight sum overflows float64.  Weights of
    duplicate edges are summed, in line order.

    The text is cut at line ends into blocks of about :data:`BLOCK`
    characters; each block's lines are split into fields at once, names
    mapped to first-seen ids and weights to floats, and checked as arrays.
    A block that fails keeps only its lines before the first bad one and
    ends the parse; the duplicate sums of the lines kept may still find an
    overflow on an earlier line.
    """
    index: dict[str, int] = {}  # name -> first-seen id
    ids, w = [np.zeros((2, 0), dtype=np.int64)], [np.zeros(0)]
    blocks, fault, start, lines_before = [], None, 0, 0
    while start < len(text) and fault is None:
        end = text.find("\n", start + BLOCK)
        end = len(text) if end < 0 else end
        lines = [raw for raw in text[start:end].split("\n") if raw and raw[0] != "#"]
        span, start, m = (start, end), end + 1, len(lines)
        tabs = np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64, count=m)
        counted = (tabs == 1) | (tabs == 2)
        if not counted.all():  # keep the lines before the first with a wrong field count
            m = int(counted.argmin())
            fault = span, m, f"expected 2 or 3 tab-separated fields, got {tabs[m] + 1}"
            lines, tabs = lines[:m], tabs[:m]
        if not m:
            continue
        if tabs.min() < tabs.max():  # give the 2-field lines their weight 1
            lines = [raw if k == 2 else raw + "\t1" for raw, k in zip(lines, tabs.tolist())]
        k = int(tabs.max()) + 1
        fields = "\t".join(lines).split("\t")
        del lines  # lower the peak: the lines' strings are not needed beside their fields
        ends = fields[0::k] + fields[1::k]
        new = set(ends).difference(index)
        index.update({v: len(index) + i for i, v in enumerate(new)})
        ids.append(np.fromiter(map(index.__getitem__, ends), dtype=np.int64, count=2 * m).reshape(2, m))
        try:
            w.append(np.fromiter(map(float, fields[2::3]), dtype=float, count=m) if k == 3 else np.ones(m))
        except ValueError:  # as NaN, for _first_fault to find
            w.append(np.full(m, np.nan))
        if not (np.isfinite(w[-1]) & (w[-1] > 0)).all() or (ids[-1][0] == ids[-1][1]).any() or not all(map(_valid_name, new)):
            m, message = _first_fault(fields, k, ids[-1], new)  # keep the lines before the first bad one
            fault = span, m, message
            ids[-1] = ids[-1][:, :m]
            w[-1] = np.fromiter(map(float, fields[2:3 * m:3]), dtype=float, count=m) if k == 3 else np.ones(m)
        blocks.append((*span, lines_before))
        lines_before += m
    names, w = sorted(index), np.concatenate(w)  # rebinding frees the blocks' arrays as they are joined
    ids = np.argsort(np.fromiter(map(index.__getitem__, names), dtype=np.int64))[np.concatenate(ids, axis=1)]
    ids = ids[0] * len(names) + ids[1]  # one key id(s) * n + id(d) a line; rebinding frees the pairs
    edges, sums = _first_sums(ids, w)  # duplicate lines summed in line order
    if np.isinf(sums.max(initial=0.0)):  # kept lines come before any bad one, so an overflow among them comes first
        over = np.flatnonzero(np.isin(ids, edges[np.isinf(sums)]))
        over = over[np.argsort(ids[over], kind="stable")]  # each edge's lines in line order
        with np.errstate(over="ignore"):
            g = min(int(part[np.isinf(np.cumsum(w[part])).argmax()])
                    for part in np.split(over, np.flatnonzero(np.diff(ids[over])) + 1))
        *span, first = blocks[int(np.searchsorted([b[2] for b in blocks], g, side="right")) - 1]
        u, v = divmod(int(ids[g]), len(names))
        fault = span, g - first, f"summed weight of duplicate edge ({names[u]!r}, {names[v]!r}) overflows float64"
    if fault:  # the line number: the block's first line's, plus the bad line's place among the block's lines
        (start, end), p, message = fault
        places = [i for i, raw in enumerate(text[start:end].split("\n")) if raw and raw[0] != "#"]
        raise ParseError(message, text.count("\n", 0, start) + 1 + places[p])
    del ids, w  # lower the peak: the graph needs only the sums
    return Graph(tuple(names), *np.divmod(edges, len(names)), sums)


def load_hierarchy(text: str, graph: Graph) -> Hierarchy:
    """Parse a parent-child document into parent ids over the sorted names
    it holds, and check that the tree covers ``graph``.  Raises
    :class:`ParseError` for malformed lines and :class:`ValidationError`
    for a child with two parents, multiple roots, cycles, or a graph vertex
    missing from the tree (named in the message)."""
    parent: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not raw or raw[0] == "#":
            continue
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
    universe = set(parent).union(parent.values())
    roots = sorted(universe - set(parent))
    if not universe:
        raise ValidationError("hierarchy document contains no tree edges")
    if not roots:
        raise ValidationError("no root vertex: parent links form a cycle")
    if len(roots) > 1:
        raise ValidationError(f"multiple roots: {roots}")
    check_pair(graph, universe)
    vertices = tuple(sorted(universe))
    index = {v: i for i, v in enumerate(vertices)}
    return Hierarchy(vertices, [index[parent[v]] if v in parent else -1 for v in vertices])


def _graph_blocks(g: Graph) -> Iterator[str]:
    """The text of :func:`serialize_graph`, ``BLOCK // 8`` lines at a time."""
    order = np.argsort(g.src * len(g.vertices) + g.dst)  # ids follow name order, so this is name-pair order
    names = np.array(g.vertices, dtype=object)
    for p in np.split(order, range(BLOCK // 8, len(order), BLOCK // 8)):
        rows = zip(names[g.src[p]].tolist(), names[g.dst[p]].tolist(), g.w[p].tolist())
        yield "".join([f"{u}\t{v}\t{x!r}\n" for u, v, x in rows])


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list text: one line per edge in name-pair order, with explicit weights."""
    return "".join(_graph_blocks(g))


def serialize_hierarchy(h: Hierarchy) -> str:
    """Canonical parent-child text: one line per tree edge, sorted by names."""
    child = np.argsort(h.parent, kind="stable")[1:]  # all but the root, by parent id and then id, which is name order
    return "".join([f"{h.vertices[p]}\t{h.vertices[c]}\n" for p, c in zip(h.parent[child].tolist(), child.tolist())])


def check_pair(g: Graph, tree: Iterable[str]) -> None:
    """Every graph vertex must sit in the hierarchy whose vertex names are ``tree``."""
    missing = set(g.vertices).difference(tree)
    if missing:
        raise ValidationError(f"graph vertex {min(missing)!r} missing from the hierarchy")


def on_tree(g: Graph, t: Hierarchy) -> Graph:
    """``g`` on the vertex ids of ``t``, which must hold all its vertices:
    the same edges in the same order, and ``g`` itself when already there."""
    if g.vertices == t.vertices:
        return g
    check_pair(g, t.vertices)
    index = {v: i for i, v in enumerate(t.vertices)}  # Python names: numpy strings drop trailing NULs
    new_id = np.fromiter(map(index.__getitem__, g.vertices), dtype=np.int64, count=len(g.vertices))
    return Graph(t.vertices, new_id[g.src], new_id[g.dst], g.w)
