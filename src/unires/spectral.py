"""Dense Laplacian algebra over symmetrized networks.

Directed weights are symmetrized as ``w_sym(u,v) = w(u,v) + w(v,u)`` before
any spectral work, so the total reported connection strength is preserved.
All solves are per connected component of the input network.  Vertices
that a Kron reduction eliminates leave through one Schur complement, and
the component is grounded at its lowest kept id (its lexicographically
smallest kept name), which replaces the Moore-Penrose pseudoinverse at
lower cost.  Both the eliminated block and the grounded block are
symmetric positive definite, and :func:`_spd_inverse` inverts each in
place by halves on matrix products, which run through BLAS at GEMM speed;
only blocks of at most ``SPD_BLOCK`` rows reach ``numpy.linalg.inv``.  The
complement's product is one symmetric rank-e product ``y yᵀ`` (a BLAS
syrk), with ``y`` the kept-eliminated block times the Cholesky factor of
the eliminated block's inverse; a component where that route fails under
rounding is factorized again with the product as two GEMMs.

A network's undirected edges are index arrays ``i < j`` and weights ``w``,
each pair once, in the order of its first appearance among the directed
edges, which a :class:`~unires.graph.Graph` holds in name-pair order.
:func:`_laplacian` builds a component's Laplacian blocks from them, never
the whole matrix, summing each diagonal entry in edge order, so the edge
set fixes every bit.
"""

from __future__ import annotations

import numpy as np

from .graph import DomainError, Graph

# Rows at and below which _spd_inverse hands a block to LAPACK's LU inverse.
SPD_BLOCK = 64


class NumericalError(RuntimeError):
    """Linear algebra failed where the inputs should have made it impossible."""


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetrized network as dense ids ``i < j`` and weights
    ``0.0 + w(u,v) + w(v,u)`` summed in edge order, each pair once, in the
    order in which it first appears among ``g``'s edges (name-pair order).
    A sum that overflows float64 raises :class:`~unires.graph.DomainError`."""
    lo, hi = np.minimum(g.src, g.dst), np.maximum(g.src, g.dst)
    keys = lo * len(g.vertices) + hi
    order = np.argsort(keys, kind="stable")  # each pair's edges stay in edge order
    new = np.diff(keys[order], prepend=-1) != 0  # where a pair's edges begin, as keys are >= 0
    first = np.argsort(order[new])  # the pairs by first appearance
    i, j = np.divmod(keys[order[new]][first], len(g.vertices))
    sums = np.bincount(np.cumsum(new), weights=g.w[order])[1:][first]  # np.bincount adds a bin's weights in turn
    if not np.isfinite(sums).all():
        k = int(np.flatnonzero(~np.isfinite(sums))[0])
        u, v = g.vertices[i[k]], g.vertices[j[k]]
        raise DomainError(f"symmetrized weight of ({u!r}, {v!r}) overflows float64")
    return i, j, sums


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


def _laplacian(kept: np.ndarray, i: np.ndarray, j: np.ndarray, w: np.ndarray):
    """The Laplacian of undirected edges ``i < j`` given once each, in the
    blocks of ids split by the mask ``kept``, each part in id order: the
    eliminated-eliminated and kept-eliminated blocks dense, and the
    kept-kept block as the entries ``(rows, cols, values)`` of its edges and
    diagonal, each position once, so that a scatter with ``+=`` never meets
    a repeated index.  Every diagonal entry is summed in edge order."""
    ids = np.arange(len(kept))
    diagonal = np.bincount(np.column_stack((i, j)).ravel(), weights=np.repeat(w, 2), minlength=len(ids))
    if not np.isfinite(diagonal).all():
        raise DomainError("summed symmetrized weight at a vertex overflows float64")
    at = np.where(kept, np.cumsum(kept), np.cumsum(~kept)) - 1  # place within its part
    r, c, v = np.concatenate((i, j, ids)), np.concatenate((j, i, ids)), np.concatenate((-w, -w, diagonal))
    e = np.count_nonzero(~kept)
    l_ee, l_ke = np.zeros((e, e)), np.zeros((len(ids) - e, e))
    for block, rows in ((l_ee, ~kept), (l_ke, kept)):
        s = rows[r] & ~kept[c]
        block[at[r[s]], at[c[s]]] = v[s]
    s = kept[r] & kept[c]
    return l_ee, l_ke, (at[r[s]], at[c[s]], v[s])


def _spd_inverse(a: np.ndarray) -> np.ndarray:
    """``a``, symmetric positive definite, overwritten with its inverse by
    halves (block inversion through the Schur complement; Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., ch. 13).  With ``x``
    the leading half inverted in place and ``y = x @ a12``, the trailing
    Schur complement ``a22 - a21 @ y`` is written over ``a22`` and inverted
    in place to ``z``, and the inverse ``[[x + y z yᵀ, -y z], [-(y z)ᵀ, z]]``
    over ``a``.  Four half-size GEMMs per level make 4/3·k³ flops; blocks of
    at most ``SPD_BLOCK`` rows go to ``np.linalg.inv``, whose
    ``LinAlgError`` on a singular block passes through."""
    k = len(a)
    if k <= SPD_BLOCK:
        a[...] = np.linalg.inv(a)
        return a
    h = k // 2
    x = _spd_inverse(a[:h, :h])
    y = x @ a[:h, h:]
    z = _spd_inverse(np.subtract(a[h:, h:], a[h:, :h] @ y, out=a[h:, h:]))
    yz = np.matmul(y, z, out=a[:h, h:])
    x += yz @ y.T
    np.negative(yz, out=yz)
    a[h:, :h] = yz.T
    return a


def _grounded_inverse(edge_arrays: tuple, edges: np.ndarray, members: np.ndarray, kept: np.ndarray,
                      symmetric: bool, first: list[str]) -> np.ndarray:
    """:func:`_spd_inverse` of the Schur complement of the Laplacian of a
    component, its ``members`` and the ``edges`` among :func:`_edge_arrays`,
    onto the members set in ``kept``, grounded at the first of them.

    With ``symmetric``, the product ``l_ke l_ee⁻¹ l_keᵀ`` is ``y yᵀ`` with
    ``y = l_ke m``, where ``m`` is the Cholesky factor of
    :func:`_spd_inverse` of the eliminated block, so ``m mᵀ = l_ee⁻¹``: one
    BLAS syrk, mirrored, so exactly symmetric, and its k×k buffer is
    allocated only once the blocks and ``m`` are freed, beside ``y`` alone.
    With nothing eliminated ``y`` is k×0 and the product +0.  Otherwise the
    product is ``l_ke (l_ee⁻¹ l_keᵀ)``, two GEMMs, whose e×k product sits
    beside the k×k buffer.  A block that rounds to one that is not positive
    definite, where a factorization meets it, or a complement that is not
    finite raises :class:`NumericalError`."""
    i, j, w = edge_arrays
    l_ee, l_ke, (r, c, v) = _laplacian(kept, *np.searchsorted(members, (i[edges], j[edges])), w[edges])
    try:
        p = _spd_inverse(l_ee)
        del l_ee
        if symmetric:
            m = np.linalg.cholesky(p)
            del p
            y = l_ke @ m
            del l_ke, m
            schur = y @ y.T
            del y
        else:
            x = p @ l_ke.T
            del p
            schur = l_ke @ x
            del l_ke, x
        # l_kk - product in one k×k buffer as (0 - product) + l_kk, the same
        # bits with signed zeros: 0 - (+0) is +0, where -(+0) is -0.
        np.subtract(0.0, schur, out=schur)
        schur[r, c] += v
        if not np.isfinite(schur).all():
            raise NumericalError(f"non-finite Schur complement in component {first}")
        return _spd_inverse(schur[1:, 1:])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular positive-definite block in component {first}") from exc


def _resistances(g: Graph, keep: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Effective resistance between ids ``a[p]`` and ``b[p]``, all set in the
    mask ``keep``, in the Kron reduction of ``g`` onto ``keep``: 0 for equal
    endpoints, ``inf`` across components.  Kron reduction leaves the
    resistance between kept ids unchanged, so the reduced network is never
    built.

    Each component with an asked pair is factorized once: the Schur
    complement of its Laplacian onto its kept ids (the Laplacian itself when
    all are kept) is grounded at its lowest kept id, and ``R(x, y) = d[x] +
    d[y] - (inv[x, y] + inv[y, x])`` is read from :func:`_grounded_inverse`,
    whose ground row and column are 0: a sum of commuting terms, so ``R(x,
    y) == R(y, x)`` exactly, although ``inv`` is not exactly symmetric.

    The complement's product is the symmetric one.  Where that fails, which
    only rounding far from exact arithmetic brings about (the inverse of the
    eliminated block has no Cholesky factor as rounded, say), or reads a
    resistance that is not finite, the component is factorized again with
    the two GEMMs, and its failures stand."""
    n = len(g.vertices)
    i, j, w = edge_arrays = _edge_arrays(g)
    labels = _components(n, i, j)
    out = np.where(a == b, 0.0, np.inf)
    solve = np.flatnonzero((a != b) & (labels[a] == labels[b]))
    roots = np.flatnonzero(labels == np.arange(n))
    groups = zip(_group(labels, roots), _group(labels[i], roots), _group(labels[a[solve]], roots))
    # Rounding, or weights far apart in scale, can leave a block that is
    # positive definite only on paper: a base block that LAPACK finds
    # singular raises, and an overflow fails the finiteness checks.
    with np.errstate(over="ignore", invalid="ignore"):
        for members, edges, asked in groups:
            if not asked.size:
                continue
            kept = keep[members]
            first = [g.vertices[x] for x in members[:3]]
            for symmetric in (True, False):
                try:
                    inv = _grounded_inverse(edge_arrays, edges, members, kept, symmetric, first)
                except NumericalError:
                    if symmetric:
                        continue
                    raise
                at = solve[asked]
                x, y = np.searchsorted(members[kept], (a[at], b[at]))
                diag = np.concatenate(([0.0], inv.diagonal()))  # the ground, index 0, reads as 0
                cross = np.where((x > 0) & (y > 0), inv[x - 1, y - 1] + inv[y - 1, x - 1], 0.0)
                out[at] = diag[x] + diag[y] - cross
                if np.isfinite(out[at]).all():
                    break
    if not np.isfinite(out[solve]).all():
        raise NumericalError("effective resistance within a component is not finite")
    return out
