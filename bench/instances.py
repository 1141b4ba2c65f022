"""Seeded synthetic (network, hierarchy) instances for the benchmark.

Pure standard library, so the inputs do not depend on the package under
test.  Two tree shapes:

* ``branching`` -- every internal vertex has at least two children and the
  tree is shallow (depth <= 4), like a parcellation atlas;
* ``deep``      -- random recursive attachment, so unary chains occur and
  depth grows to about 14 at n=700.

Edges are drawn uniformly from every tree vertex except the root.  An edge
on the root would make disinherit anchor the whole network there and write
no edge at all, which is not the paper's study.

On a branching tree the edge count is a fixed budget of draws.  On a deep
tree one edge near the root covers a large share of all leaf pairs, so a
fixed budget gives inherit outputs that differ by half from seed to seed;
there edges are drawn until the inherit output would cover a target number
of leaf pairs, which keeps the work of one seed close to that of another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Instance:
    """A tree as a parent map plus directed weighted edges over its vertices."""

    root: str
    parent: dict[str, str]
    weights: dict[tuple[str, str], float]

    def leafsets(self) -> tuple[dict[str, frozenset[str]], dict[str, int]]:
        """Descendant leaves and depth (root at 1) of every vertex."""
        kids: dict[str, list[str]] = {}
        for child, par in self.parent.items():
            kids.setdefault(par, []).append(child)
        order = [self.root]
        depth = {self.root: 1}
        for v in order:
            for c in kids.get(v, ()):
                depth[c] = depth[v] + 1
                order.append(c)
        leaves: dict[str, frozenset[str]] = {}
        for v in reversed(order):
            leaves[v] = frozenset().union(*(leaves[c] for c in kids[v])) if v in kids else frozenset((v,))
        return leaves, depth

    def work_counts(self) -> dict[str, int]:
        """Size of the instance; ``candidates`` is the sum over input edges
        of |leafset(u)| * |leafset(v)|, the leaf pairs inherit and kron visit."""
        leaves, depth = self.leafsets()
        return {
            "vertices": len(depth),
            "leaves": sum(1 for v in leaves if leaves[v] == {v}),
            "depth": max(depth.values()),
            "input_edges": len(self.weights),
            "candidates": sum(len(leaves[u]) * len(leaves[v]) for u, v in self.weights),
        }

    def graph_tsv(self) -> str:
        lines = [f"{u}\t{v}\t{w!r}" for (u, v), w in sorted(self.weights.items())]
        return "\n".join(lines) + "\n"

    def hierarchy_tsv(self) -> str:
        lines = [f"{p}\t{c}" for c, p in sorted(self.parent.items())]
        return "\n".join(lines) + "\n"


def names(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"n{i:0{width}d}" for i in range(n)]


def deep_tree(rng: random.Random, labels: list[str]) -> tuple[str, dict[str, str]]:
    """Random recursive tree: each vertex attaches to a uniform earlier one."""
    order = labels[:]
    rng.shuffle(order)
    parent = {v: order[rng.randrange(i)] for i, v in enumerate(order[1:], start=1)}
    return order[0], parent


def branching_tree(rng: random.Random, labels: list[str]) -> tuple[str, dict[str, str]]:
    """Random tree in which every internal vertex has at least two children.

    Each subtree pool is split into parts of size 1 or 3..6, so no subtree
    root ends up with a single child and the depth stays small.
    """
    order = labels[:]
    rng.shuffle(order)
    parent: dict[str, str] = {}
    stack = [(order[0], order[1:])]
    while stack:
        root, pool = stack.pop()
        if not pool:
            continue
        sizes: list[int] = []
        remaining = len(pool)
        while remaining:
            if remaining == 2:
                sizes += [1, 1]
                break
            allowed = [1] + [s for s in range(3, min(remaining, 6) + 1)]
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
            parent[part[0]] = root
            stack.append((part[0], part[1:]))
    return order[0], parent


def _draw(rng: random.Random, pool: list[str], weights: dict[tuple[str, str], float]) -> tuple[str, str] | None:
    u = rng.choice(pool)
    v = rng.choice(pool)
    if u == v:
        return None
    weights[(u, v)] = weights.get((u, v), 0.0) + rng.choice((1.0, 1.0, 2.0, 3.0))
    return u, v


def make_instance(seed: int, n: int, shape: str, budget: int = 0, target_pairs: int = 0) -> Instance:
    """The instance for one seed: a tree of ``n`` vertices, then edges over
    its non-root vertices.  Repeated draws of a pair sum their weights.

    With ``budget`` the edges are that many draws.  With ``target_pairs``
    edges are drawn until the distinct off-diagonal leaf pairs under them,
    which is the inherit output, number at least ``target_pairs``.
    """
    rng = random.Random(seed)
    labels = names(n)
    tree = {"branching": branching_tree, "deep": deep_tree}[shape]
    root, parent = tree(rng, labels)
    pool = sorted(parent)  # every vertex but the root
    weights: dict[tuple[str, str], float] = {}
    if budget:
        for _ in range(budget):
            _draw(rng, pool, weights)
        return Instance(root, parent, weights)
    leaves, _ = Instance(root, parent, {}).leafsets()
    covered: set[tuple[str, str]] = set()
    while len(covered) < target_pairs:
        edge = _draw(rng, pool, weights)
        if edge is not None:
            covered.update((s, d) for s in leaves[edge[0]] for d in leaves[edge[1]] if s != d)
    return Instance(root, parent, weights)
