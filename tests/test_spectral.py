import math
import random

import numpy as np
import pytest

import unires.spectral
from unires.graph import Graph, ValidationError, load_graph
from unires.resolution import inherit, kron_sampling
from unires.spectral import SPD_BLOCK, _components, _edge_arrays, _laplacian, _resistances, _spd_inverse

from oracles import (
    children,
    cholesky_inverse,
    cholesky_solve,
    degree_loop,
    from_edges,
    inverse_by_halves,
    kron_reduce_loop,
    kron_resistance_reference,
    laplacian_loop,
    resistance_grounded,
    resistance_pinv,
    symmetrized,
    tree,
)
from conftest import (
    kron_mask, kron_resistances, laplacian, names, networkx_graph, random_connected_weighted, random_pair, traced_peak,
)


def test_laplacian_single_edge():
    assert np.array_equal(laplacian(load_graph("a\tb\n")), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_symmetrization_sums_both_directions():
    assert np.array_equal(laplacian(load_graph("a\tb\nb\ta\n")), [[2.0, -2.0], [-2.0, 2.0]])


def test_laplacian_triangle():
    lap = laplacian(load_graph("a\tb\nb\tc\nc\ta\n"))
    assert np.array_equal(np.diag(lap), [2.0, 2.0, 2.0])
    off = lap[~np.eye(3, dtype=bool)]
    assert np.array_equal(off, [-1.0] * 6)


def test_laplacian_matches_edge_by_edge_reference_exactly():
    rng = random.Random(3)
    for _ in range(40):
        g = random_connected_weighted(rng, rng.randrange(2, 40))
        reversed_too = {(v, u): w * 0.7 for (u, v), w in list(g.weights.items())[::3]}
        g = from_edges({**g.weights, **reversed_too}, vertices=g.vertices)
        assert np.array_equal(laplacian(g), laplacian_loop(g))


def shuffled_with_reciprocals(rng: random.Random, g: Graph) -> Graph:
    """``g`` plus reversed copies of a third of its edges, inserted in
    random order."""
    items = list(g.weights.items())
    items += [((v, u), w * 0.7) for (u, v), w in items[::3]]
    rng.shuffle(items)
    return from_edges(dict(items), g.vertices)


def test_edge_arrays_match_symmetrized_oracle_in_first_appearance_order():
    rng = random.Random(9)
    hubs = 0
    for _ in range(40):
        g = shuffled_with_reciprocals(rng, random_connected_weighted(rng, rng.randrange(2, 40)))
        hubs += max(degree_loop(g).values()) >= 3
        i, j, w = _edge_arrays(g)
        names = g.vertices
        pairs = list(zip([names[x] for x in i.tolist()], [names[x] for x in j.tolist()]))
        sym = symmetrized(g)
        assert pairs == list(sym)
        assert w.tolist() == list(sym.values())
        assert np.array_equal(laplacian(g), laplacian_loop(g))
    assert hubs >= 30
    i, j, w = _edge_arrays(from_edges({}, ("a", "b")))
    assert i.size == j.size == w.size == 0


def test_laplacian_structural_invariants():
    rng = random.Random(5)
    for _ in range(25):
        g = random_connected_weighted(rng, rng.randrange(2, 30))
        m = laplacian(g)
        assert np.allclose(m, m.T)
        row_scale = np.abs(m).max(axis=1)
        assert (np.abs(m.sum(axis=1)) <= 1e-12 * np.maximum(row_scale, 1.0)).all()
        assert (m[~np.eye(len(m), dtype=bool)] <= 0).all()
        assert np.linalg.eigvalsh(m).min() >= -1e-9


def test_laplacian_blocks_match_the_whole_laplacian_exactly():
    # The block builder against index gathers of the edge-by-edge
    # Laplacian: the dense blocks byte for byte, and the kept-kept entries,
    # each position once, written onto zeros.
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 30, 140):
        g = random_connected_weighted(random.Random(n), n)
        lap = laplacian_loop(g)
        for kept in (np.ones(n, dtype=bool), np.zeros(n, dtype=bool), rng.random(n) < 0.6):
            k, e = np.flatnonzero(kept), np.flatnonzero(~kept)
            l_ee, l_ke, (r, c, v) = _laplacian(kept, *_edge_arrays(g))
            assert l_ee.tobytes() == lap[np.ix_(e, e)].tobytes() and l_ee.shape == (len(e), len(e))
            assert l_ke.tobytes() == lap[np.ix_(k, e)].tobytes() and l_ke.shape == (len(k), len(e))
            assert len(np.unique(r * n + c)) == len(r)
            kk = np.zeros((len(k), len(k)))
            kk[r, c] = v
            assert kk.tobytes() == lap[np.ix_(k, k)].tobytes()


def test_kron_series_path():
    k = kron_reduce_loop(load_graph("a\tb\nb\tc\n"), ["a", "c"])
    assert set(k.weights) == {("a", "c")}
    assert k.weights[("a", "c")] == pytest.approx(0.5, rel=1e-12)


def test_kron_star_elimination():
    k = kron_reduce_loop(load_graph("s\tx\ns\ty\ns\tz\n"), ["x", "y", "z"])
    assert set(k.weights) == {("x", "y"), ("x", "z"), ("y", "z")}
    for w in k.weights.values():
        assert w == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_kron_retain_all_is_symmetrized_input():
    g = load_graph("a\tb\t2\nb\ta\t1\nb\tc\t4\n")
    k = kron_reduce_loop(g, g.vertices)
    assert k.weights == {("a", "b"): 3.0, ("b", "c"): 4.0}
    assert k.vertices == g.vertices


def test_kron_drops_unretained_components_keeps_isolated_retained():
    g = load_graph("a\tb\nc\td\n")
    k = kron_reduce_loop(g, ["a", "b", "c"])
    assert k.vertices == ("a", "b", "c")
    # c's partner was eliminated, so c persists edgeless.
    assert set(k.weights) == {("a", "b")}


def test_kron_unknown_vertex():
    # Kron works on the tree's ids, so a graph vertex outside the tree is
    # refused before any id is mapped.
    g = load_graph("a\tb\nb\tzz\n")
    with pytest.raises(ValidationError, match="'zz'"):
        kron_sampling(g, tree({"a": "r", "b": "r"}, "r"))


def test_kron_output_is_valid_laplacian():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected_weighted(rng, rng.randrange(4, 25))
        retain = rng.sample(list(g.vertices), rng.randrange(2, len(g.vertices)))
        m = laplacian_loop(kron_reduce_loop(g, retain))
        scale = max(1.0, np.abs(m).max())
        assert np.abs(m.sum(axis=1)).max() <= 1e-9 * scale
        assert (m[~np.eye(len(m), dtype=bool)] <= 0).all()


def test_resistance_single_edge_is_inverse_weight():
    g = load_graph("a\tb\t4.0\n")
    assert kron_resistances(g, g.vertices, [("a", "b")]) == {("a", "b"): pytest.approx(0.25)}


def test_resistance_series_and_triangle():
    path, triangle = load_graph("a\tb\nb\tc\n"), load_graph("a\tb\nb\tc\nc\ta\n")
    series = kron_resistances(path, path.vertices, [("a", "c")])
    assert series[("a", "c")] == pytest.approx(2.0, rel=1e-12)
    tri = kron_resistances(triangle, triangle.vertices, [("a", "b")])
    assert tri[("a", "b")] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_resistance_same_vertex_and_cross_component():
    g = load_graph("a\tb\nc\td\n")
    out = kron_resistances(g, g.vertices, [("a", "a"), ("a", "c")])
    assert out[("a", "a")] == 0.0
    assert math.isinf(out[("a", "c")])


def test_resistance_matches_pseudoinverse_oracle():
    rng = random.Random(13)
    for _ in range(20):
        g = random_connected_weighted(rng, rng.randrange(2, 15))
        pairs = [tuple(rng.sample(list(g.vertices), 2)) for _ in range(5)] if len(g.vertices) > 1 else []
        got = kron_resistances(g, g.vertices, pairs)
        for u, v in pairs:
            assert got[(u, v)] == pytest.approx(resistance_pinv(g, u, v), rel=1e-9, abs=1e-12)


def test_resistance_is_a_metric():
    rng = random.Random(17)
    for _ in range(10):
        g = random_connected_weighted(rng, rng.randrange(3, 12))
        vs = list(g.vertices)
        pairs = [(u, v) for u in vs for v in vs]
        r = kron_resistances(g, g.vertices, pairs)
        for u in vs:
            for v in vs:
                assert r[(u, v)] == pytest.approx(r[(v, u)], abs=1e-12)
                assert (r[(u, v)] == 0.0) == (u == v)
        for u in vs:
            for v in vs:
                for w in vs:
                    assert r[(u, w)] <= r[(u, v)] + r[(v, w)] + 1e-9


def test_rayleigh_monotonicity():
    rng = random.Random(19)
    for _ in range(10):
        g = random_connected_weighted(rng, rng.randrange(3, 15))
        vs = list(g.vertices)
        pairs = [(u, v) for u in vs for v in vs if u < v]
        before = kron_resistances(g, g.vertices, pairs)
        u, v = rng.sample(vs, 2)
        augmented = dict(g.weights)
        augmented[(u, v)] = augmented.get((u, v), 0.0) + rng.uniform(0.1, 5.0)
        after = kron_resistances(from_edges(augmented, vertices=vs), vs, pairs)
        for pair in pairs:
            assert after[pair] <= before[pair] + 1e-9


def test_kron_preserves_resistance_small():
    # Kron reduction leaves resistances between kept vertices unchanged, so
    # the kernel must agree with the unreduced graph and with networkx,
    # neither of which eliminates anything.
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    for _ in range(25):
        g = random_connected_weighted(rng, rng.randrange(3, 20))
        retain = rng.sample(list(g.vertices), rng.randrange(2, len(g.vertices)))
        pairs = [(u, v) for u in retain for v in retain if u < v]
        got = kron_resistances(g, retain, pairs)
        full = kron_resistances(g, g.vertices, pairs)
        theirs = nx.resistance_distance(networkx_graph(nx, g), weight="weight", invert_weight=False)
        for u, v in pairs:
            assert got[(u, v)] == pytest.approx(full[(u, v)], rel=1e-9)
            assert got[(u, v)] == pytest.approx(theirs[u][v], rel=1e-9)


# --- Kron placement's resistances, without the reduced Graph ----------------


def kron_inputs(g, t):
    """The retained leaves, and each leaf pair that kron_sampling weighs,
    once, in name order."""
    degree = degree_loop(g)
    leaves = [v for v in t.vertices if not children(t)[v] and degree[v]]
    counts = inherit(g, t).network
    wanted = sorted({(s, d) if s < d else (d, s) for s, d in counts.weights if s in leaves and d in leaves})
    return leaves, wanted


@pytest.mark.parametrize("branching", [False, True])
def test_kron_resistance_equals_reference_random(branching):
    for seed in range(150):
        rng = random.Random(seed)
        g, t = random_pair(rng, rng.randrange(4, 40), branching=branching)
        leaves, wanted = kron_inputs(g, t)
        assert kron_resistances(g, leaves, wanted) == kron_resistance_reference(g, leaves, wanted)


def test_kron_resistance_equals_reference_weighted():
    rng = random.Random(41)
    for _ in range(60):
        g = random_connected_weighted(rng, rng.randrange(3, 30))
        retain = rng.sample(list(g.vertices), rng.randrange(1, len(g.vertices)))
        pairs = [(u, v) for u in retain for v in retain]
        assert kron_resistances(g, retain, pairs) == kron_resistance_reference(g, retain, pairs)


def check_against_reference(g, retain, expected):
    got = kron_resistances(g, retain, list(expected))
    assert got == kron_resistance_reference(g, retain, list(expected))
    for pair, value in expected.items():
        assert got[pair] == pytest.approx(value, rel=1e-12)


def test_kron_resistance_fully_retained_component():
    # The star is copied as it is; its centre's diagonal sums 0.3 + 0.2 + 0.1
    # in line order, which rounds differently from name order.  The path
    # x-e-y is reduced.
    g = load_graph("h\tc\t0.3\nh\tb\t0.2\nh\ta\t0.1\nx\te\ny\te\n")
    check_against_reference(g, ["a", "b", "c", "h", "x", "y"], {
        ("a", "b"): 15.0,
        ("c", "a"): 10.0 + 1.0 / 0.3,
        ("x", "y"): 2.0,
        ("a", "x"): math.inf,
        ("c", "c"): 0.0,
    })


def test_kron_resistance_retained_vertex_left_without_edges():
    g = load_graph("a\tb\nc\td\n")
    check_against_reference(g, ["a", "b", "c"], {("a", "b"): 1.0, ("a", "c"): math.inf, ("c", "c"): 0.0})


def test_kron_resistance_two_components_with_eliminated_vertices():
    g = load_graph("a\tx\nx\tb\nc\ty\ny\td\t3\n")
    check_against_reference(g, ["a", "b", "c", "d"], {
        ("a", "b"): 2.0,
        ("c", "d"): 1.0 + 1.0 / 3.0,
        ("b", "c"): math.inf,
    })


def test_kron_resistance_tiny_fill_stays_finite():
    # Eliminating x leaves a-b at about 1e-14, far below 1e-12 of the
    # largest reduced entry; the reduced network keeps it all the same.
    # Read from the Schur complement itself, R(a, b) is the series value
    # 1e14 + 1, up to cancellation in b's reduced diagonal.
    g = load_graph("a\tx\t1e-14\nx\tb\nb\tc\n")
    reduced = kron_reduce_loop(g, ["a", "b", "c"])
    assert set(reduced.weights) == {("a", "b"), ("b", "c")}
    pairs = [("a", "b"), ("b", "c")]
    got = kron_resistances(g, ["a", "b", "c"], pairs)
    assert got == kron_resistance_reference(g, ["a", "b", "c"], pairs)
    assert got[("a", "b")] == pytest.approx(1e14 + 1, rel=1e-3)
    assert got[("a", "b")] == pytest.approx(resistance_grounded(reduced, pairs)[("a", "b")], rel=1e-12)
    assert got[("b", "c")] == 1.0


# --- Numerics: close to the Cholesky route and to the reduced network,
# symmetric, exact at the ground ---------------------------------------------


@pytest.mark.parametrize("rows", [1, 2, 63, 64, 65, 127, 128, 129, 300])
def test_spd_inverse_matches_lu_and_cholesky(rows):
    # Grounded Laplacians on either side of each halving; the inverse of a
    # connected one is positive entrywise, so each entry is compared relative.
    rng = random.Random(rows)
    a = laplacian(random_connected_weighted(rng, rows + 1))[1:, 1:]
    got = _spd_inverse(a.copy())
    assert np.array_equal(got, inverse_by_halves(a))
    if rows <= SPD_BLOCK:
        assert np.array_equal(got, np.linalg.inv(a))
    for other in (np.linalg.inv(a), cholesky_inverse(a)):
        assert (other > 0).all()
        assert np.abs(got - other).max(initial=0.0) <= 1e-12 * other.min()


@pytest.mark.parametrize("rows", [1, 64, 65, 129, 300])
def test_spd_inverse_overwrites_its_argument(rows):
    # The result is the argument itself, holding the bytes of the oracle's
    # inverse of the original; on a strided view of a grounded Laplacian the
    # ground row and column are left as they were.
    rng = random.Random(rows)
    a = laplacian(random_connected_weighted(rng, rows + 1))[1:, 1:].copy()
    expected = inverse_by_halves(a)
    assert _spd_inverse(a) is a
    assert a.tobytes() == expected.tobytes()
    lap = laplacian(random_connected_weighted(rng, rows + 1))
    before, view = lap.copy(), lap[1:, 1:]
    expected = inverse_by_halves(view)
    assert _spd_inverse(view) is view
    assert view.tobytes() == expected.tobytes()
    assert lap[0].tobytes() == before[0].tobytes() and lap[:, 0].tobytes() == before[:, 0].tobytes()


def test_schur_complement_bytes_match_the_gathered_blocks(monkeypatch):
    # The complement, seen as the base of the grounded block handed to the
    # inverse, against lkk - lke @ x from index gathers of the whole
    # Laplacian.  Vertex 0 and all its neighbours are kept, so its row of
    # lke is zero and its row of the product +0, where the complement must
    # hold +0 (0 - (+0)) and not -0 (-(+0)).
    g = random_connected_weighted(random.Random(5), 200)
    lap = laplacian(g)
    rng = np.random.default_rng(5)
    kept = (rng.random(200) < 0.6) | (lap[0] != 0)
    k, e = np.flatnonzero(kept), np.flatnonzero(~kept)
    assert len(k) > SPD_BLOCK and len(e) > SPD_BLOCK
    l_ke = lap[np.ix_(k, e)]
    product = l_ke @ (inverse_by_halves(lap[np.ix_(e, e)]) @ l_ke.T)
    expected = lap[np.ix_(k, k)] - product
    assert ((product == 0) & ~np.signbit(product) & (expected == 0)).any()
    seen = []

    def spy(a):
        if a.base is not None and len(a) + 1 == len(a.base):  # the grounded block
            seen.append(a.base.copy())
        return inverse(a)

    inverse = unires.spectral._spd_inverse
    monkeypatch.setattr(unires.spectral, "_spd_inverse", spy)
    _resistances(g, kept, k[:1], k[-1:])
    assert len(seen) == 1 and seen[0].tobytes() == expected.tobytes()


def test_resistances_peak_memory_is_one_component_matrix():
    # One component of k kept and e eliminated vertices, both past
    # 2·SPD_BLOCK: the blocks, the product and the complement never hold
    # more than the component's (k + e)² Laplacian would.  With every vertex
    # kept the grounded inverse holds one n × n buffer and, at the top level
    # of the halving, two products of at most half size.  The slack covers
    # numpy's ufunc buffers and the arrays over the edges and pairs.
    g, t = random_pair(random.Random(3), 500, branching=True)
    i, j, _ = _edge_arrays(g)
    labels = _components(len(g.vertices), i, j)
    component = labels == np.bincount(labels).argmax()
    keep = component & np.array([not children(t)[v] for v in g.vertices])
    k, e = int(keep.sum()), int((component & ~keep).sum())
    assert k > 2 * SPD_BLOCK and e > 2 * SPD_BLOCK
    slack = 384 * 1024
    ids = np.flatnonzero(keep)
    assert traced_peak(_resistances, g, keep, ids[:-1], ids[1:]) <= 8 * (k * k + 2 * k * e + e * e) + slack
    n, ids = k + e, np.flatnonzero(component)
    every = np.ones(len(g.vertices), dtype=bool)
    assert traced_peak(_resistances, g, every, ids[:-1], ids[1:]) <= 8 * (n * n + 2 * ((n + 1) // 2) ** 2) + slack


def assert_close_to_other_routes(g, retain, pairs):
    """Kron resistances within 1e-12 (relative) of those of the same route
    through scipy's Cholesky factorization, and of the former route that
    builds the reduced network as a graph and solves it grounded, with the
    same zeros and infinities."""
    got = kron_resistances(g, retain, pairs)
    for old in (kron_resistance_reference(g, retain, pairs, cholesky_solve, cholesky_inverse),
                resistance_grounded(kron_reduce_loop(g, retain), pairs)):
        for pair in pairs:
            if old[pair] in (0.0, math.inf):
                assert got[pair] == old[pair]
            else:
                assert got[pair] == pytest.approx(old[pair], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("branching", [False, True])
def test_kron_resistance_near_cholesky_route_random(branching):
    for seed in range(150):
        rng = random.Random(seed)
        g, t = random_pair(rng, rng.randrange(4, 40), branching=branching)
        assert_close_to_other_routes(g, *kron_inputs(g, t))


def test_kron_resistance_near_cholesky_route_weighted():
    rng = random.Random(41)
    for _ in range(60):
        g = random_connected_weighted(rng, rng.randrange(3, 30))
        retain = rng.sample(list(g.vertices), rng.randrange(1, len(g.vertices)))
        assert_close_to_other_routes(g, retain, [(u, v) for u in retain for v in retain])
    # 70 of 200 vertices eliminated: a reduced network that cut its entries
    # above -1e-12 of the largest missed the 1e-12 bound on three of these
    # six draws, by up to 6e-11.
    rng = random.Random(0)
    random_pair(rng, 300, branching=True)
    for _ in range(6):
        g = random_connected_weighted(rng, 200)
        retain = rng.sample(list(g.vertices), 130)
        assert_close_to_other_routes(g, retain, [(u, v) for u in retain for v in retain])


@pytest.mark.parametrize("seed", [0, 1])
def test_kron_resistance_past_the_base_block(seed):
    # A component with about 200 kept leaves and 80 eliminated vertices, so
    # both the grounded block and the eliminated one recurse.
    rng = random.Random(seed)
    g, t = random_pair(rng, 300, branching=True)
    leaves, wanted = kron_inputs(g, t)
    kept = kron_mask(g, leaves)
    assert kept.sum() > 3 * SPD_BLOCK and (~kept).sum() > SPD_BLOCK
    assert kron_resistances(g, leaves, wanted) == kron_resistance_reference(g, leaves, wanted)
    assert_close_to_other_routes(g, leaves, wanted)


def test_resistance_is_symmetric_bit_for_bit():
    rng = random.Random(43)
    asymmetric = 0
    for _ in range(30):
        g = random_connected_weighted(rng, rng.randrange(3, 30))
        inv = np.linalg.inv(laplacian(g)[1:, 1:])
        asymmetric += not np.array_equal(inv, inv.T)
        vs = list(g.vertices)
        r = kron_resistances(g, g.vertices, [(u, v) for u in vs for v in vs])
        assert all(r[(u, v)] == r[(v, u)] for u in vs for v in vs)
        retain = rng.sample(vs, rng.randrange(2, len(vs) + 1))
        k = kron_resistances(g, retain, [(u, v) for u in retain for v in retain])
        assert all(k[(u, v)] == k[(v, u)] for u in retain for v in retain)
    assert asymmetric >= 10  # the LU inverse is not symmetric, the read must be


def test_resistance_is_symmetric_bit_for_bit_past_the_base_block():
    rng = random.Random(47)
    for n in (66, 130, 200):
        g = random_connected_weighted(rng, n)
        inv = _spd_inverse(laplacian(g)[1:, 1:])
        assert not np.array_equal(inv, inv.T)
        vs = list(g.vertices)
        r = kron_resistances(g, g.vertices, [(u, v) for u in vs for v in vs])
        assert all(r[(u, v)] == r[(v, u)] for u in vs for v in vs)
        retain = rng.sample(vs, n - 30)
        k = kron_resistances(g, retain, [(u, v) for u in retain for v in retain])
        assert all(k[(u, v)] == k[(v, u)] for u in retain for v in retain)


def test_resistance_to_the_ground_vertex():
    # Each component is grounded at its first name: "a" and "p".
    g = load_graph("a\tb\t2\nb\tc\nc\ta\t0.5\np\tq\t4\nq\tr\n")
    pairs = [("a", "b"), ("c", "a"), ("a", "c"), ("p", "r"), ("q", "p"), ("a", "p")]
    got = kron_resistances(g, g.vertices, pairs)
    assert got == resistance_grounded(g, pairs)
    assert got[("a", "c")] == got[("c", "a")]
    assert got[("a", "p")] == math.inf
    assert got[("p", "r")] == pytest.approx(1.25, rel=1e-12)
    assert got[("q", "p")] == pytest.approx(0.25, rel=1e-12)
    for u, v in pairs[:-1]:
        assert got[(u, v)] == pytest.approx(resistance_pinv(g, u, v), rel=1e-12)
    # In a reduction, the ground is the first retained name: "b" once "a" goes.
    pairs = [("b", "c"), ("c", "b"), ("b", "d"), ("c", "d")]
    g = load_graph("a\tb\na\tc\nb\tc\t3\nc\td\n")
    check_against_reference(g, ["b", "c", "d"], {("b", "c"): 2.0 / 7.0, ("c", "b"): 2.0 / 7.0,
                                                  ("b", "d"): 9.0 / 7.0, ("c", "d"): 1.0})
