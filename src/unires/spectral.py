"""Dense Laplacian algebra over symmetrized networks.

Directed weights are symmetrized as ``w_sym(u,v) = w(u,v) + w(v,u)`` before
any spectral work, so the total reported connection strength is preserved.
All solves are per connected component of the input network.  Vertices
that a Kron reduction eliminates leave through one Schur complement, and
the component is grounded at its lowest kept id (its lexicographically
smallest kept name), which replaces the Moore-Penrose pseudoinverse at
lower cost.  Both the eliminated block and the grounded block are
symmetric positive definite, and :func:`_spd_inverse` inverts each by
halves on matrix products, which run through BLAS at GEMM speed; only
blocks of at most ``SPD_BLOCK`` rows reach ``numpy.linalg.inv``.

A network's undirected edges are index arrays ``i < j`` and weights ``w``,
each pair once, in the order of its first appearance.  Every Laplacian is
built from those arrays by :func:`_laplacian`, which sums each diagonal
entry in edge order, so a given edge order fixes every bit.
"""

from __future__ import annotations

import numpy as np

from .graph import DomainError, Graph, _first_sums

# Rows at and below which _spd_inverse hands a block to LAPACK's LU inverse.
SPD_BLOCK = 64


class NumericalError(RuntimeError):
    """Linear algebra failed where the inputs should have made it impossible."""


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetrized network as dense ids ``i < j`` and weights
    ``0.0 + w(u,v) + w(v,u)`` summed in edge order, each pair once, in the
    order in which it first appears among ``g``'s edges.  A sum that
    overflows float64 raises :class:`~unires.graph.DomainError`."""
    lo, hi = np.minimum(g.src, g.dst), np.maximum(g.src, g.dst)
    first, sums = _first_sums(lo * len(g.vertices) + hi, g.w)
    i, j = lo[first], hi[first]
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


def _laplacian(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Laplacian of undirected edges given once each; every diagonal entry
    is summed sequentially in edge order."""
    lap = np.zeros((n, n))
    lap[i, j] = -w
    lap[j, i] = -w
    ends = np.column_stack((i, j)).ravel()
    diagonal = np.bincount(ends, weights=np.repeat(w, 2), minlength=n)
    if not np.isfinite(diagonal).all():
        raise DomainError("summed symmetrized weight at a vertex overflows float64")
    np.fill_diagonal(lap, diagonal)
    return lap


def _spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of the symmetric positive-definite ``a`` by halves (block
    inversion through the Schur complement; Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., ch. 13).  With ``x`` the inverse of
    the leading half and ``y = x @ a12``, the trailing Schur complement
    ``a22 - a21 @ y`` is inverted to ``z``, and the inverse is
    ``[[x + y z yᵀ, -y z], [-(y z)ᵀ, z]]``, each block written in place
    into the result.  Four half-size GEMMs per level make 4/3·k³ flops in
    all; blocks of at most ``SPD_BLOCK`` rows go to ``np.linalg.inv``,
    whose ``LinAlgError`` on a singular block passes through."""
    k = len(a)
    if k <= SPD_BLOCK:
        return np.linalg.inv(a)
    h = k // 2
    out = np.empty_like(a)
    out[:h, :h] = _spd_inverse(a[:h, :h])
    y = out[:h, :h] @ a[:h, h:]
    s = a[h:, :h] @ y
    out[h:, h:] = _spd_inverse(np.subtract(a[h:, h:], s, out=s))
    del s
    yz = np.matmul(y, out[h:, h:], out=out[:h, h:])
    out[:h, :h] += yz @ y.T
    np.negative(yz, out=yz)
    out[h:, :h] = yz.T
    return out


def _resistances(g: Graph, keep: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Effective resistance between ids ``a[p]`` and ``b[p]``, all set in the
    mask ``keep``, in the Kron reduction of ``g`` onto ``keep``: 0 for equal
    endpoints, ``inf`` across components.  Kron reduction leaves the
    resistance between kept ids unchanged, so the reduced network is never
    built.

    Each component with an asked pair is factorized once: its Laplacian, or
    when some of its ids are not kept the Schur complement onto the kept
    ones, is grounded at its lowest kept id, and ``R(x, y) = d[x] + d[y] -
    (inv[x, y] + inv[y, x])`` is read from :func:`_spd_inverse` of the
    grounded block, whose ground row and column are 0: a sum of commuting
    terms, so ``R(x, y) == R(y, x)`` exactly, although ``inv`` is not
    exactly symmetric."""
    n = len(g.vertices)
    i, j, w = _edge_arrays(g)
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
            lap = _laplacian(len(members), np.searchsorted(members, i[edges]), np.searchsorted(members, j[edges]), w[edges])
            kept = keep[members]
            first = [g.vertices[x] for x in members[:3]]
            try:
                if not kept.all():
                    k, e = np.flatnonzero(kept), np.flatnonzero(~kept)
                    reduced, l_ke, l_ee = lap[np.ix_(k, k)], lap[np.ix_(k, e)], lap[np.ix_(e, e)]
                    del lap
                    reduced -= l_ke @ (_spd_inverse(l_ee) @ l_ke.T)
                    if not np.isfinite(reduced).all():
                        raise NumericalError(f"non-finite Schur complement in component {first}")
                    lap, members = reduced, members[k]
                inv = _spd_inverse(lap[1:, 1:])
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"singular positive-definite block in component {first}") from exc
            asked = solve[asked]
            x, y = np.searchsorted(members, a[asked]), np.searchsorted(members, b[asked])
            diag = np.concatenate(([0.0], inv.diagonal()))  # the ground, index 0, reads as 0
            cross = np.where((x > 0) & (y > 0), inv[x - 1, y - 1] + inv[y - 1, x - 1], 0.0)
            out[asked] = diag[x] + diag[y] - cross
    if not np.isfinite(out[solve]).all():
        raise NumericalError("effective resistance within a component is not finite")
    return out
