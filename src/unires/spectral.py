"""Dense Laplacian algebra over symmetrized networks.

Directed weights are symmetrized as ``w_sym(u,v) = w(u,v) + w(v,u)`` before
any spectral work, so the total reported connection strength is preserved.
All solves are per connected component with one vertex grounded (the
lexicographically smallest, i.e. the lowest dense id), which replaces the
Moore-Penrose pseudoinverse at lower cost.  The solves are LU
factorizations from ``numpy.linalg``.

Internally a network is a tuple of vertex names plus its undirected edges
as index arrays ``i < j`` and weights ``w``, each pair once.  Every
Laplacian is built from those arrays by :func:`_laplacian`, which sums each
diagonal entry in edge order, so a given edge order fixes every bit: an
input network's pairs keep the order of their first appearance.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .graph import DomainError, Edge, Graph

# Relative threshold below which a reduced-Laplacian entry counts as exact
# cancellation rather than an edge.
FILL_EPS = 1e-12


class NumericalError(RuntimeError):
    """Linear algebra failed where the inputs should have made it impossible."""


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetrized network as dense ids ``i < j`` and weights
    ``0.0 + w(u,v) + w(v,u)`` summed in edge order, each pair once, in the
    order in which it first appears among ``g``'s edges."""
    src, dst, w = g.src, g.dst, g.w
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    _, first, inverse = np.unique(lo * len(g.vertices) + hi, return_index=True, return_inverse=True)
    order = np.argsort(first)  # distinct pairs, by first appearance
    sums = np.bincount(np.argsort(order)[inverse], weights=w, minlength=len(order))
    return lo[first[order]], hi[first[order]], sums


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Label of each of ``n`` vertices: the lowest index in its component.

    Minimum-label propagation over the edges, with pointer jumping after
    each round so that long paths settle in logarithmically many rounds.
    """
    labels = np.arange(n)
    while True:
        low = np.minimum(labels[i], labels[j])
        hooked = labels.copy()
        np.minimum.at(hooked, i, low)
        np.minimum.at(hooked, j, low)
        while not np.array_equal(hooked[hooked], hooked):
            hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _group(keys: np.ndarray, roots: np.ndarray) -> list[np.ndarray]:
    """Positions in ``keys`` split by value, one array per entry of the
    ascending ``roots`` (which include every key), each in input order."""
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.searchsorted(keys[order], roots[1:]))


def _laplacian(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Laplacian of undirected edges given once each; every diagonal entry
    is summed sequentially in edge order."""
    lap = np.zeros((n, n))
    lap[i, j] = -w
    lap[j, i] = -w
    ends = np.column_stack((i, j)).ravel()
    np.fill_diagonal(lap, np.bincount(ends, weights=np.repeat(w, 2), minlength=n))
    return lap


def _kron_edges(g: Graph, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Kron reduction of ``g`` onto the ids where the mask ``keep`` is
    set: its edges as index arrays into the retained ids in order, and
    their weights, component by component.

    A component whose vertices are all retained keeps its symmetrized edges
    in :func:`_edge_arrays` order; any other component with a
    retained vertex contributes the thresholded Schur complement's upper
    triangle in row-major order.
    """
    n = len(g.vertices)
    i, j, w = _edge_arrays(g)
    position = np.cumsum(keep) - 1  # index among the retained ids
    labels = _components(n, i, j)
    roots = np.flatnonzero(labels == np.arange(n))
    parts: list[tuple[np.ndarray, ...]] = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for members, edges in zip(_group(labels, roots), _group(labels[i], roots)):
        kept = keep[members]
        if not kept.any():
            continue
        if kept.all():
            parts.append((position[i[edges]], position[j[edges]], w[edges]))
            continue
        local_i, local_j = np.searchsorted(members, i[edges]), np.searchsorted(members, j[edges])
        lap = _laplacian(len(members), local_i, local_j, w[edges])
        keep_idx, elim_idx = np.flatnonzero(kept), np.flatnonzero(~kept)
        reduced = lap[np.ix_(keep_idx, keep_idx)]
        l_re = lap[np.ix_(keep_idx, elim_idx)]
        l_ee = lap[np.ix_(elim_idx, elim_idx)]
        del lap
        try:
            reduced -= l_re @ np.linalg.solve(l_ee, l_re.T)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - impossible for connected components
            first = [g.vertices[x] for x in members[:3]]
            raise NumericalError(f"singular elimination block in component {first}") from exc
        threshold = FILL_EPS * max(float(reduced.max()), -float(reduced.min()))
        positive = np.triu(reduced > threshold, 1)
        if positive.any():  # pragma: no cover - Kron reduction keeps off-diagonals <= 0
            raise NumericalError(f"positive off-diagonal {reduced[positive][0]!r} in reduced Laplacian")
        a, b = np.nonzero(np.triu(reduced < -threshold, 1))
        ids = position[members[keep_idx]]
        parts.append((ids[a], ids[b], -reduced[a, b]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _resistances(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Effective resistance between vertices ``a[p]`` and ``b[p]`` of the
    network on ``n`` vertices with edges ``(i, j, w)``: 0 for equal
    endpoints, ``inf`` across components.  Each component is grounded at
    its lowest index, and ``R(x, y) = d[x] + d[y] - (inv[x, y] + inv[y, x])``
    is read from the LU inverse of the grounded block, whose ground row and
    column are 0: a sum of commuting terms, so ``R(x, y) == R(y, x)``
    exactly."""
    labels = _components(n, i, j)
    out = np.where(a == b, 0.0, np.inf)
    solve = np.flatnonzero((a != b) & (labels[a] == labels[b]))
    roots = np.flatnonzero(labels == np.arange(n))
    groups = zip(_group(labels, roots), _group(labels[i], roots), _group(labels[a[solve]], roots))
    for members, edges, asked in groups:
        if not asked.size:
            continue
        lap = _laplacian(len(members), np.searchsorted(members, i[edges]), np.searchsorted(members, j[edges]), w[edges])
        try:
            inv = np.linalg.inv(lap[1:, 1:])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD for connected components
            raise NumericalError("singular grounded Laplacian block") from exc
        asked = solve[asked]
        x, y = np.searchsorted(members, a[asked]), np.searchsorted(members, b[asked])
        diag = np.concatenate(([0.0], inv.diagonal()))  # the ground, index 0, reads as 0
        cross = np.where((x > 0) & (y > 0), inv[x - 1, y - 1] + inv[y - 1, x - 1], 0.0)
        out[asked] = diag[x] + diag[y] - cross
    return out


def effective_resistance(g: Graph, pairs: Iterable[Edge]) -> dict[Edge, float]:
    """Effective resistance of the symmetrized graph for each requested pair.

    Identical endpoints give 0; endpoints in different components give
    ``math.inf``.  Unknown vertices raise :class:`~unires.graph.DomainError`.
    """
    wanted = list(pairs)
    for pair in wanted:
        for v in pair:
            if v not in g.index:
                raise DomainError(f"unknown vertex {v!r}")
    a = np.fromiter((g.index[u] for u, _ in wanted), dtype=np.intp, count=len(wanted))
    b = np.fromiter((g.index[v] for _, v in wanted), dtype=np.intp, count=len(wanted))
    return dict(zip(wanted, _resistances(len(g.vertices), *_edge_arrays(g), a, b).tolist()))


def _kron_resistance(g: Graph, keep: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Effective resistance between ids ``a[p]`` and ``b[p]`` (all kept) in
    the Kron reduction of ``g`` onto the mask ``keep``, bit for bit that of
    the reduced network built as a graph, without building it."""
    position = np.cumsum(keep) - 1  # index among the kept ids
    return _resistances(int(keep.sum()), *_kron_edges(g, keep), position[a], position[b])
