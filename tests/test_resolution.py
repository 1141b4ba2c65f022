import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unires.resolution
from unires.cli import main
from unires.graph import DomainError, _pairs, load_graph, load_hierarchy, on_tree, serialize_graph, serialize_hierarchy
from unires.resolution import (
    MASS_TIE_RTOL,
    _masses,
    _depth_order,
    _edge_keys,
    disinherit,
    inherit,
    kron_sampling,
)
from unires.spectral import SPD_BLOCK

from oracles import (
    active_vertices,
    anchor_walk,
    children,
    degree_loop,
    disinherit_collapse,
    dropped,
    edge_order_sorted,
    from_edges,
    inherit_closure,
    inherit_loop,
    kron_reduce_loop,
    kron_resistance_reference,
    kron_sampling_loop,
    leafset_recursive,
    MASS_TIE_RTOL as DOCUMENTED_TIE_RTOL,
    parents,
    provenance,
    resistance_grounded,
    root,
    same_graph,
    same_tree,
    with_vertices,
)
from conftest import anchors_by_name, branching_hierarchy, kron_resistances, names, random_graph_on, random_pair

FOUR_GRAPH = "A\tB\na1\ta2\n"
FOUR_TREE = "Br\tA\nBr\tB\nA\ta1\nA\ta2\n"


def four_pair():
    g = load_graph(FOUR_GRAPH)
    t = load_hierarchy(FOUR_TREE, g)
    return with_vertices(g, t.vertices), t


# Non-integer weights: any summation order other than the loop's shows.
FRACTIONS = (0.1, 0.2, 0.3, 0.7)


def oracle_pair(seed):
    rng = random.Random(seed)
    return random_pair(rng, rng.randrange(4, 40), branching=seed % 2 == 0, weights_from=FRACTIONS)


def audit(result):
    return result.network.weights, provenance(result), dropped(result)


def by_id(resistances):
    """A stand-in for ``_resistances`` that asks ``resistances(g, retain,
    pairs)`` by names and answers by ids."""

    def kron_resistance(g, keep, a, b):
        names = g.vertices
        pairs = list(zip([names[x] for x in a.tolist()], [names[x] for x in b.tolist()]))
        retain = [v for v, k in zip(names, keep.tolist()) if k]
        found = resistances(g, retain, pairs)
        return np.array([found[p] for p in pairs])

    return kron_resistance


def assert_uniresolution(result):
    internal = {v for v, kids in children(result.hierarchy).items() if kids}
    for u, v in result.network.weights:
        assert u not in internal and v not in internal


def assert_provenance_partition(g, result):
    seen: dict = {}
    for out_edge, sources in provenance(result).items():
        for src in sources:
            assert src not in seen or seen[src] == out_edge
            seen.setdefault(src, out_edge)
    return seen


# --- inherit -----------------------------------------------------------------


def test_inherit_example():
    g, t = four_pair()
    result = inherit(g, t)
    assert result.network.weights == {("a1", "B"): 1.0, ("a2", "B"): 1.0, ("a1", "a2"): 1.0}
    assert result.hierarchy == t
    assert not dropped(result)


def test_inherit_leaf_only_is_identity():
    g = load_graph("a1\ta2\t2.5\n")
    t = load_hierarchy(FOUR_TREE, g)
    g = with_vertices(g, t.vertices)
    assert same_graph(inherit(g, t).network, g)


def test_inherit_two_internal_edges_same_leaf_pair():
    # A->b1 at two resolutions: the internal report and the leaf report.
    g = load_graph("A\tb1\na1\tb1\n")
    t = load_hierarchy("Br\tA\nBr\tB\nA\ta1\nB\tb1\nB\tb2\n", g)
    g = with_vertices(g, t.vertices)
    result = inherit(g, t)
    assert result.network.weights[("a1", "b1")] == 2.0
    assert provenance(result)[("a1", "b1")] == {("A", "b1"), ("a1", "b1")}


def test_inherit_ancestor_descendant_keeps_off_diagonal():
    g = load_graph("A\ta1\n")
    t = load_hierarchy(FOUR_TREE, g)
    g = with_vertices(g, t.vertices)
    result = inherit(g, t)
    assert result.network.weights == {("a2", "a1"): 1.0}
    assert dropped(result) == {("A", "a1"): 1.0}


def test_inherit_matches_closure_oracle():
    rng = random.Random(101)
    for _ in range(60):
        g, t = random_pair(rng, rng.randrange(3, 40))
        assert inherit(g, t).network.weights == inherit_closure(g, t)


def test_inherit_matches_loop_oracle():
    for seed in range(300):
        g, t = oracle_pair(seed)
        assert audit(inherit(g, t)) == inherit_loop(g, t), seed


def test_inherit_dropped_diagonal_overflow_rejected():
    # A->R covers both leaves of A on the diagonal: 2 * 1e308 overflows,
    # while every off-diagonal pair stays at 1e308.
    g = load_graph("A\tR\t1e308\n")
    t = load_hierarchy("R\tA\nR\tB\nA\ta1\nA\ta2\n", g)
    with pytest.raises(DomainError, match="overflows float64"):
        inherit(with_vertices(g, t.vertices), t)


def test_inherit_weight_identity_without_ancestor_edges():
    rng = random.Random(103)
    checked = 0
    while checked < 25:
        g, t = random_pair(rng, rng.randrange(3, 30), branching=True)
        if any(leafset_recursive(t, u) & leafset_recursive(t, v) for u, v in g.weights):
            continue
        checked += 1
        expected = sum(
            w * len(leafset_recursive(t, u)) * len(leafset_recursive(t, v)) for (u, v), w in g.weights.items()
        )
        assert sum(inherit(g, t).network.weights.values()) == expected


def test_inherit_edge_count_grows_on_branching_trees():
    rng = random.Random(107)
    for _ in range(40):
        g, t = random_pair(rng, rng.randrange(3, 30), branching=True)
        result = inherit(g, t)
        assert result.network.edge_count >= g.edge_count - sum(
            1 for e in g.weights if e not in {s for srcs in provenance(result).values() for s in srcs}
        )
        assert_uniresolution(result)


# --- disinherit --------------------------------------------------------------


def test_disinherit_example():
    g, t = four_pair()
    result = disinherit(g, t)
    assert result.network.weights == {("A", "B"): 1.0}
    assert result.network.vertices == ("A", "B", "Br")
    assert set(result.hierarchy.vertices) == {"Br", "A", "B"}
    assert tuple(v for v in result.hierarchy.vertices if result.hierarchy.is_leaf(v)) == ("A", "B")
    assert dropped(result) == {("a1", "a2"): 1.0}


def test_disinherit_leaf_only_is_identity():
    g = load_graph("a1\ta2\nB\ta1\n")
    t = load_hierarchy(FOUR_TREE, g)
    g = with_vertices(g, t.vertices)
    result = disinherit(g, t)
    assert same_graph(result.network, g)
    assert same_tree(result.hierarchy, t)


def test_disinherit_nested_collapses_to_topmost():
    g = load_graph("A\tB\nA1\tB\na1\tB\n")
    t = load_hierarchy("Br\tA\nBr\tB\nA\tA1\nA1\ta1\n", g)
    g = with_vertices(g, t.vertices)
    result = disinherit(g, t)
    assert result.network.weights == {("A", "B"): 3.0}
    assert set(result.hierarchy.vertices) == {"Br", "A", "B"}


def test_disinherit_matches_collapse_oracle():
    rng = random.Random(109)
    for _ in range(60):
        g, t = random_pair(rng, rng.randrange(3, 40))
        result = disinherit(g, t)
        weights, _, _, kept = disinherit_collapse(g, t)
        assert result.network.weights == weights
        assert set(result.hierarchy.vertices) == kept
        assert_uniresolution(result)


def test_disinherit_matches_loop_oracle():
    for seed in range(300):
        g, t = oracle_pair(seed)
        weights, links, lost, _ = disinherit_collapse(g, t)
        assert audit(disinherit(g, t)) == (weights, links, lost), seed


@pytest.mark.parametrize("branching", [False, True])
def test_anchor_pass_matches_anchor(branching):
    for seed in range(100):
        rng = random.Random(seed)
        g, t = random_pair(rng, rng.randrange(3, 40), branching=branching)
        anchors = anchors_by_name(g, t)
        for v in active_vertices(g):
            assert anchors[v] == anchor_walk(g, t, v)


@pytest.mark.parametrize("branching", [False, True])
def test_disinherit_keeps_each_kept_vertex_parent(branching):
    # The output tree is built from parent ids, where the root's -1 must
    # not be read as the last id.
    for seed in range(100):
        rng = random.Random(seed)
        g, t = random_pair(rng, rng.randrange(3, 40), branching=branching)
        kept = disinherit(g, t).hierarchy
        assert root(kept) == root(t), seed
        assert parents(kept) == {v: parents(t)[v] for v in kept.vertices if v != root(t)}, seed


def test_disinherit_conserves_weight():
    rng = random.Random(113)
    for _ in range(40):
        g, t = random_pair(rng, rng.randrange(3, 30))
        result = disinherit(g, t)
        total_out = sum(result.network.weights.values()) + sum(dropped(result).values())
        assert total_out == sum(g.weights.values())
        assert result.network.edge_count <= g.edge_count


# --- edge ordering -----------------------------------------------------------


def edge_order(g, t):
    """The edges by name in the order kron placement walks them, checked
    against the sort of :func:`oracles.edge_order_sorted`."""
    keys, _ = _edge_keys(on_tree(g, t))
    order = list(_pairs(t.vertices, keys[_depth_order(keys, t)]))
    assert order == edge_order_sorted(g, t)
    return order


def test_edge_order_deepest_first():
    g, t = four_pair()
    assert edge_order(g, t) == [("a1", "a2"), ("A", "B")]


def test_edge_order_lexicographic_ties():
    g = load_graph("a1\ta2\na2\ta1\n")
    t = load_hierarchy(FOUR_TREE, g)
    assert edge_order(with_vertices(g, t.vertices), t) == [("a1", "a2"), ("a2", "a1")]


def test_edge_order_singleton():
    g = load_graph("A\tB\n")
    t = load_hierarchy(FOUR_TREE, g)
    assert edge_order(with_vertices(g, t.vertices), t) == [("A", "B")]


# --- probability masses -----------------------------------------------------


def test_probability_symmetric_candidates():
    assert _masses(np.array([1.0, 1.0]), np.array([1.0, 1.0])).tolist() == [0.5, 0.5]


def test_probability_direct_evaluation():
    masses = _masses(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    assert masses.tolist() == pytest.approx([2.0 / 3.0, 1.0 / 3.0])
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_probability_infinite_resistance_gets_zero():
    assert _masses(np.array([math.inf, 2.0]), np.array([3.0, 1.0])).tolist() == [0.0, 1.0]


def test_probability_all_zero_mass_is_representable():
    # Nothing to normalise by: the masses stay 0 and kron falls back to counts.
    assert _masses(np.array([math.inf, math.inf]), np.array([1.0, 2.0])).tolist() == [0.0, 0.0]


def test_probability_total_is_summed_in_pair_order():
    # Left to right, each 1.0 vanishes against 1e16; fsum or numpy's
    # pairwise sum would keep them and give a total above 1e16.
    resistance = np.array([1e16] + [1.0] * 16)
    masses = _masses(resistance, np.ones(17))
    assert masses[0] == 1.0
    assert masses[1:].tolist() == [1e-16] * 16
    assert math.fsum(resistance) > 1e16 and resistance.sum() > 1e16


def test_probability_mass_overflow_rejected():
    for resistance, counts in (([1e308], [10.0]), ([1e308, 1e308], [1.0, 1.0])):
        with pytest.raises(DomainError, match="overflows float64"):
            _masses(np.array(resistance), np.array(counts))


# --- kron sampling -----------------------------------------------------------


def test_kron_sampling_hand_trace():
    g, t = four_pair()
    result = kron_sampling(g, t)
    assert result.network.weights == {("a1", "a2"): 1.0, ("a1", "B"): 1.0}
    assert provenance(result) == {
        ("a1", "a2"): frozenset({("a1", "a2")}),
        ("a1", "B"): frozenset({("A", "B")}),
    }
    assert result.hierarchy == t


def test_kron_sampling_leaf_only_identity():
    g = load_graph("x\ty\t2\ny\tx\ny\tz\nz\ty\t3\nz\tx\n")
    t = load_hierarchy("Br\tx\nBr\ty\nBr\tz\n", g)
    g = with_vertices(g, t.vertices)
    result = kron_sampling(g, t)
    assert set(result.network.weights) == set(g.weights)
    assert all(w == 1.0 for w in result.network.weights.values())


def test_kron_sampling_keeps_reciprocal_pairs():
    # Only a same-direction output edge blocks, so B->A is not recorded
    # against a1->b1 but places its own reverse edge.
    g = load_graph("A\tB\nB\tA\n")
    t = load_hierarchy("Br\tA\nBr\tB\nA\ta1\nA\ta2\nB\tb1\nB\tb2\n", g)
    g = with_vertices(g, t.vertices)
    result = kron_sampling(g, t)
    assert result.network.weights == {("a1", "b1"): 1.0, ("b1", "a1"): 1.0}
    assert provenance(result) == {("a1", "b1"): {("A", "B")}, ("b1", "a1"): {("B", "A")}}


def test_kron_sampling_degenerate_edge_dropped():
    g = load_graph("A\ta1\nB\tb1\n")
    t = load_hierarchy("Br\tA\nBr\tB\nA\ta1\nB\tb1\nB\tb2\n", g)
    g = with_vertices(g, t.vertices)
    result = kron_sampling(g, t)
    # A sits above the single leaf a1, so A->a1 has no off-diagonal candidates.
    assert dropped(result) == {("A", "a1"): 1.0}
    assert ("b2", "b1") in result.network.weights or ("b1", "b2") in result.network.weights


def test_kron_sampling_invariants_random():
    rng = random.Random(127)
    for _ in range(40):
        g, t = random_pair(rng, rng.randrange(3, 35))
        result = kron_sampling(g, t)
        assert_uniresolution(result)
        assert result.network.edge_count <= g.edge_count
        resolved = assert_provenance_partition(g, result)
        all_sources = set(resolved)
        assert all_sources | set(dropped(result)) == set(g.weights)
        assert not all_sources & set(dropped(result))
        # Every provenance source of each output edge has it inside its
        # candidate rectangle, in the same direction.
        for (s, d), sources in provenance(result).items():
            for u, v in sources:
                lu, lv = leafset_recursive(t, u), leafset_recursive(t, v)
                assert s in lu and d in lv


def test_kron_sampling_matches_loop_oracle():
    for seed in range(300):
        g, t = oracle_pair(seed)
        assert audit(kron_sampling(g, t)) == kron_sampling_loop(g, t), seed


@pytest.mark.parametrize("convert", [inherit, disinherit, kron_sampling])
def test_conversions_map_a_smaller_universe_onto_the_tree(convert):
    # The CLI always passes the tree's universe; a graph over its edges'
    # endpoints alone must be converted the same.
    smaller = 0
    for seed in range(300):
        g, t = oracle_pair(seed)
        small = from_edges(g.weights)
        smaller += small.vertices != t.vertices
        assert audit(convert(small, t)) == audit(convert(with_vertices(small, t.vertices), t)), seed
    assert smaller >= 200


def default_pair(seed):
    """``random_pair`` with its default small-integer weights, which make
    masses that are equal in exact arithmetic common."""
    rng = random.Random(seed)
    return random_pair(rng, rng.randrange(4, 40), branching=seed % 2 == 0)


# Before masses within MASS_TIE_RTOL of the best tied, these seeds' kron
# placements followed rounding noise: seed 81 changed under the Sandybridge
# BLAS kernel, seed 217 under Prescott and under the full-graph resistances.
NOISE_SEEDS = (81, 217)


def test_mass_tie_tolerance_is_the_documented_one():
    assert MASS_TIE_RTOL == DOCUMENTED_TIE_RTOL == 1e-9


@pytest.mark.parametrize("seed", NOISE_SEEDS)
def test_kron_sampling_noise_seeds_match_loop_oracle(seed):
    g, t = default_pair(seed)
    assert audit(kron_sampling(g, t)) == kron_sampling_loop(g, t)


def test_kron_placement_does_not_depend_on_the_resistance_route(monkeypatch):
    # The Kron-reduced resistances equal the full graph's in exact
    # arithmetic, so every route must place every edge the same way: the
    # Schur complement, the full graph, and the reduced network built as a
    # graph and solved grounded.
    routes = {
        "full": lambda g, retain, pairs: kron_resistances(g, g.vertices, pairs),
        "round trip": lambda g, retain, pairs: resistance_grounded(kron_reduce_loop(g, retain), pairs),
    }
    placements = [[audit(kron_sampling(*default_pair(seed))) for seed in range(300)]]
    for route in routes.values():
        monkeypatch.setattr(unires.resolution, "_resistances", by_id(route))
        placements.append([audit(kron_sampling(*default_pair(seed))) for seed in range(300)])
    for seed, (kron, *others) in enumerate(zip(*placements)):
        assert all(other == kron for other in others), seed


KERNEL_SCRIPT = """
import hashlib, random, sys
sys.path[:0] = sys.argv[1:3]
from conftest import kron_resistances, random_pair
from oracles import children, degree_loop, kron_resistance_reference, provenance
from unires.graph import serialize_graph
from unires.resolution import kron_sampling
for case in sys.argv[3:]:
    seed, _, n = case.partition(":")
    rng = random.Random(int(seed))
    size = int(n) if n else rng.randrange(4, 40)
    g, t = random_pair(rng, size, branching=int(seed) % 2 == 0)
    result = kron_sampling(g, t)
    text = serialize_graph(result.network) + repr(sorted((e, sorted(s)) for e, s in provenance(result).items()))
    print(case, hashlib.sha256(text.encode()).hexdigest())
    if n:  # every leaf pair of the sized pair, against the slow reference bit for bit
        degree = degree_loop(g)
        leaves = [v for v in t.vertices if not children(t)[v] and degree[v]]
        pairs = [(u, v) for u in leaves for v in leaves if u < v]
        assert kron_resistances(g, leaves, pairs) == kron_resistance_reference(g, leaves, pairs), case
"""


def test_kron_placement_is_the_same_under_three_blas_kernels():
    # The noise seeds, and a 300-vertex pair whose Kron blocks are larger
    # than SPD_BLOCK, so that every kernel runs the GEMMs of the inverse by
    # halves; on that pair each kernel's resistances also equal the
    # reference's bit for bit.  "seed:n" fixes the size; a bare seed draws it.
    g, t = random_pair(random.Random(0), 300, branching=True)
    degree = degree_loop(g)
    assert sum(1 for v in t.vertices if not children(t)[v] and degree[v]) > 3 * SPD_BLOCK
    here = Path(__file__).resolve().parent
    argv = [sys.executable, "-c", KERNEL_SCRIPT, str(here.parent / "src"), str(here), *map(str, NOISE_SEEDS), "0:300"]
    outputs = set()
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    for kernel in (None, "Haswell", "Sandybridge", "Prescott"):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=300,
                              env=env if kernel is None else {**env, "OPENBLAS_CORETYPE": kernel})
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1


TARGETED = {
    # No edges at all.
    "edgeless": ("", "R\tA\nR\tB\nA\ta1\nA\ta2\n"),
    # Every pair of every edge lies on the diagonal: A and R sit above a1 only.
    "diagonal": ("A\ta1\t0.3\nR\tA\t0.7\n", "R\tA\nA\ta1\n"),
    # An edge on the root covers every leaf.
    "root": ("R\ta1\t0.1\nB\tR\t0.2\na2\tB\t0.7\n", "R\tA\nR\tB\nA\ta1\nA\ta2\n"),
}


@pytest.mark.parametrize("case", sorted(TARGETED))
def test_targeted_cases_match_loop_oracles(case):
    graph_text, tree_text = TARGETED[case]
    g = load_graph(graph_text)
    t = load_hierarchy(tree_text, g)
    g = with_vertices(g, t.vertices)
    assert audit(inherit(g, t)) == inherit_loop(g, t)
    assert audit(kron_sampling(g, t)) == kron_sampling_loop(g, t)
    if case == "edgeless":
        assert audit(inherit(g, t)) == ({}, {}, {})
    if case == "diagonal":
        assert audit(inherit(g, t)) == ({}, {}, {("A", "a1"): 0.3, ("R", "A"): 0.7})
        assert audit(kron_sampling(g, t)) == ({}, {}, {("A", "a1"): 0.3, ("R", "A"): 0.7})
    if case == "root":
        weights, _, lost = audit(inherit(g, t))
        assert weights == {("a2", "a1"): 0.1, ("B", "a1"): 0.2 + 0.1, ("B", "a2"): 0.2, ("a2", "B"): 0.7}
        assert lost == {("R", "a1"): 0.1, ("B", "R"): 0.2}


def test_kron_convert_matches_reference_pipeline(tmp_path, monkeypatch):
    rng = random.Random(2024)
    t = branching_hierarchy(rng, names(200))
    g = random_graph_on(rng, t, edge_budget=15 * 200)
    gp, hp = tmp_path / "graph.tsv", tmp_path / "tree.tsv"
    gp.write_text(serialize_graph(g))
    hp.write_text(serialize_hierarchy(t))
    argv = ["convert", "--graph", str(gp), "--hierarchy", str(hp), "--method", "kron", "--out"]
    assert main([*argv, str(tmp_path / "direct")]) == 0
    monkeypatch.setattr(unires.resolution, "_resistances", by_id(kron_resistance_reference))
    assert main([*argv, str(tmp_path / "reference")]) == 0
    files = sorted(p.name for p in (tmp_path / "direct").iterdir())
    assert files == ["hierarchy.tsv", "manifest.json", "network.tsv", "provenance.tsv"]
    for name in files:
        assert (tmp_path / "direct" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()


def test_kron_sampling_deterministic():
    rng = random.Random(131)
    for _ in range(10):
        g, t = random_pair(rng, rng.randrange(4, 25))
        first = kron_sampling(g, t)
        second = kron_sampling(g, t)
        assert serialize_graph(first.network) == serialize_graph(second.network)
        assert provenance(first) == provenance(second)
        assert dropped(first) == dropped(second)


# --- shared properties -------------------------------------------------------


def test_all_three_are_idempotent():
    rng = random.Random(137)
    for _ in range(15):
        g, t = random_pair(rng, rng.randrange(3, 25))
        for convert in (inherit, disinherit, kron_sampling):
            result = convert(g, t)
            again = convert(result.network, result.hierarchy)
            assert same_graph(again.network, result.network), convert.__name__


def test_uniresolution_contract_everywhere():
    rng = random.Random(139)
    for _ in range(25):
        g, t = random_pair(rng, rng.randrange(3, 30))
        for convert in (inherit, disinherit, kron_sampling):
            assert_uniresolution(convert(g, t))
