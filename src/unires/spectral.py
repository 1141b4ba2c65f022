"""Dense Laplacian algebra over symmetrized networks.

Directed weights are symmetrized as ``w_sym(u,v) = w(u,v) + w(v,u)`` before
any spectral work, so the total reported connection strength is preserved.
All solves are per connected component with one vertex grounded (the
lexicographically smallest, i.e. the lowest dense id), which replaces the
Moore-Penrose pseudoinverse at lower cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .graph import DomainError, Edge, Graph

# scipy.linalg is imported inside the functions that factorize: importing it
# takes about 0.3 s, which commands without linear algebra should not pay.

# Relative threshold below which a reduced-Laplacian entry counts as exact
# cancellation rather than an edge.
FILL_EPS = 1e-12


class NumericalError(RuntimeError):
    """Linear algebra failed where the inputs should have made it impossible."""


@dataclass(frozen=True, eq=False)
class LaplacianView:
    """Symmetric Laplacian matrix indexed by an explicit vertex ordering."""

    ordering: tuple[str, ...]
    matrix: np.ndarray

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.ordering)}


def symmetrized_weights(g: Graph) -> dict[Edge, float]:
    """Undirected weight map keyed by (min, max) name pairs."""
    sym: dict[Edge, float] = {}
    for (u, v), w in g.weights.items():
        key = (u, v) if u < v else (v, u)
        sym[key] = sym.get(key, 0.0) + w
    return sym


def _components(g: Graph) -> list[tuple[str, ...]]:
    """Connected components of the symmetrized graph, each sorted, the list
    ordered by first member.  Isolated vertices form singleton components."""
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    for u, v in g.weights:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[str] = set()
    comps: list[tuple[str, ...]] = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return comps


def laplacian(g: Graph) -> LaplacianView:
    """Laplacian ``D - W`` of the symmetrized graph, ordered by dense id."""
    n = len(g.vertices)
    idx = g.index
    w = np.zeros((n, n))
    for (u, v), weight in g.weights.items():
        i, j = idx[u], idx[v]
        w[i, j] += weight
        w[j, i] += weight
    lap = np.diag(w.sum(axis=1)) - w
    return LaplacianView(g.vertices, lap)


def _local_laplacian(sym: dict[Edge, float], comp: Sequence[str]) -> np.ndarray:
    idx = {v: i for i, v in enumerate(comp)}
    lap = np.zeros((len(comp), len(comp)))
    for (u, v), w in sym.items():
        if u in idx and v in idx:
            i, j = idx[u], idx[v]
            lap[i, j] -= w
            lap[j, i] -= w
            lap[i, i] += w
            lap[j, j] += w
    return lap


def kron_reduce(g: Graph, retain: Iterable[str]) -> Graph:
    """Eliminate all non-retained vertices by Schur complement.

    The result is an undirected weighted graph on ``retain`` (each edge
    stored once, endpoints in name order) whose Laplacian is the Schur
    complement of the symmetrized input Laplacian.  Components without a
    retained vertex are dropped; retained vertices that end up with no
    neighbours persist edgeless.  Pairwise effective resistance among
    retained vertices is preserved.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    retain_set = set(retain)
    for v in retain_set:
        if not g.has_vertex(v):
            raise DomainError(f"unknown vertex {v!r}")
    sym = symmetrized_weights(g)
    out: dict[Edge, float] = {}
    for comp in _components(g):
        comp_set = set(comp)
        keep = [v for v in comp if v in retain_set]
        if not keep:
            continue
        if len(keep) == len(comp):
            for (u, v), w in sym.items():
                if u in comp_set:
                    out[(u, v)] = w
            continue
        lap = _local_laplacian(sym, comp)
        keep_idx = [i for i, v in enumerate(comp) if v in retain_set]
        elim_idx = [i for i, v in enumerate(comp) if v not in retain_set]
        l_rr = lap[np.ix_(keep_idx, keep_idx)]
        l_re = lap[np.ix_(keep_idx, elim_idx)]
        l_ee = lap[np.ix_(elim_idx, elim_idx)]
        try:
            factor = cho_factor(l_ee)
        except LinAlgError as exc:  # pragma: no cover - impossible for connected components
            raise NumericalError(f"singular elimination block in component {comp[:3]}") from exc
        reduced = l_rr - l_re @ cho_solve(factor, l_re.T)
        scale = float(np.abs(reduced).max()) if reduced.size else 0.0
        threshold = FILL_EPS * scale
        for a in range(len(keep)):
            for b in range(a + 1, len(keep)):
                entry = reduced[a, b]
                if entry < -threshold:
                    out[(keep[a], keep[b])] = -entry
                elif entry > threshold:  # pragma: no cover - Kron reduction keeps off-diagonals <= 0
                    raise NumericalError(f"positive off-diagonal {entry!r} in reduced Laplacian")
    return Graph.from_edges(out, vertices=retain_set)


def _grounded_inverse(lap: np.ndarray) -> np.ndarray:
    """Inverse of the Laplacian grounded at index 0, re-embedded with a zero
    row/column at the ground.  Symmetrized to make resistances exact under
    argument swap."""
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    n = lap.shape[0]
    full = np.zeros((n, n))
    if n > 1:
        block = lap[1:, 1:]
        try:
            factor = cho_factor(block)
        except LinAlgError as exc:  # pragma: no cover - SPD for connected components
            raise NumericalError("singular grounded Laplacian block") from exc
        inv = cho_solve(factor, np.eye(n - 1))
        full[1:, 1:] = (inv + inv.T) / 2.0
    return full


def effective_resistance(g: Graph, pairs: Iterable[Edge]) -> dict[Edge, float]:
    """Effective resistance of the symmetrized graph for each requested pair.

    Identical endpoints give 0; endpoints in different components give
    ``math.inf``.  Unknown vertices raise :class:`~unires.graph.DomainError`.
    """
    wanted = list(pairs)
    for u, v in wanted:
        for x in (u, v):
            if not g.has_vertex(x):
                raise DomainError(f"unknown vertex {x!r}")
    comps = _components(g)
    comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
    by_comp: dict[int, set[Edge]] = {}
    for u, v in wanted:
        if u != v and comp_of[u] == comp_of[v]:
            by_comp.setdefault(comp_of[u], set()).add((u, v) if u < v else (v, u))
    sym = symmetrized_weights(g)
    values: dict[Edge, float] = {}
    for k, need in sorted(by_comp.items()):
        comp = comps[k]
        idx = {v: i for i, v in enumerate(comp)}
        inv = _grounded_inverse(_local_laplacian(sym, comp))
        for a, b in need:
            i, j = idx[a], idx[b]
            values[(a, b)] = inv[i, i] + inv[j, j] - 2.0 * inv[i, j]
    out: dict[Edge, float] = {}
    for u, v in wanted:
        if u == v:
            out[(u, v)] = 0.0
        elif comp_of[u] != comp_of[v]:
            out[(u, v)] = math.inf
        else:
            out[(u, v)] = values[(u, v) if u < v else (v, u)]
    return out


def grounded_solve(lap: LaplacianView, component: Iterable[str], rhs: np.ndarray) -> np.ndarray:
    """Solve ``lap @ x = rhs`` on one component with the ground pinned to 0.

    The ground is the component member with the lowest dense id.  ``rhs``
    is a full-length vector whose entries must sum to 0 over the component
    (balanced current injection); :class:`~unires.graph.DomainError`
    otherwise.  The returned vector is 0 outside the component.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve

    members = set(component)
    for v in members:
        if v not in lap.index:
            raise DomainError(f"unknown vertex {v!r}")
    order = [v for v in lap.ordering if v in members]
    if not order:
        raise DomainError("empty component")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (len(lap.ordering),):
        raise DomainError(f"rhs must have length {len(lap.ordering)}")
    idxs = [lap.index[v] for v in order]
    sub_rhs = rhs[idxs]
    scale = max(1.0, float(np.abs(sub_rhs).max()) if sub_rhs.size else 0.0)
    if abs(float(sub_rhs.sum())) > 1e-9 * scale:
        raise DomainError("unbalanced rhs: entries must sum to 0 over the component")
    x = np.zeros(len(lap.ordering))
    if len(idxs) > 1:
        rest = idxs[1:]
        block = lap.matrix[np.ix_(rest, rest)]
        try:
            factor = cho_factor(block)
        except LinAlgError as exc:
            raise NumericalError("singular grounded system; is the set a connected component?") from exc
        x[rest] = cho_solve(factor, rhs[rest])
    return x
