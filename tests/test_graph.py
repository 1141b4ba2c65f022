import random

import pytest

from unires.graph import (
    DomainError,
    Graph,
    Hierarchy,
    ParseError,
    ValidationError,
    load_graph,
    load_hierarchy,
    serialize_graph,
    serialize_hierarchy,
)
from unires.resolution import _anchors

from oracles import anchor_walk, degree_loop, depth_walk, leaf_ranges_recursive, leafset_recursive, preorder_recursive
from conftest import branching_hierarchy, names, random_graph_on, random_hierarchy, random_pair

FOUR_GRAPH = "A\tB\na1\ta2\n"
FOUR_TREE = "Br\tA\nBr\tB\nA\ta1\nA\ta2\n"


def four_pair():
    g = load_graph(FOUR_GRAPH)
    t = load_hierarchy(FOUR_TREE, g)
    return g.with_vertices(t.vertices), t


def leaves_under(t: Hierarchy, v: str) -> frozenset[str]:
    """The leaves below ``v``, read from :attr:`Hierarchy.leaf_ranges`."""
    leaves, ranges = t.leaf_ranges
    lo, hi = ranges[v]
    return frozenset(leaves[lo:hi])


def test_load_graph_default_weight():
    g = load_graph("a\tb\nb\tc")
    assert g.vertices == ("a", "b", "c")
    assert g.weights == {("a", "b"): 1.0, ("b", "c"): 1.0}


def test_load_graph_duplicate_lines_sum():
    g = load_graph("a\tb\t2.0\na\tb\t3.0\n")
    assert g.weights == {("a", "b"): 5.0}


def test_load_graph_duplicate_sum_overflow_carries_line():
    with pytest.raises(ParseError, match="overflows float64") as err:
        load_graph("a\tb\t1e308\nb\ta\t1e308\na\tb\t1e308\n")
    assert err.value.line == 3


def test_load_graph_self_loop_rejected():
    with pytest.raises(ParseError) as err:
        load_graph("a\ta\n")
    assert err.value.line == 1


def test_load_graph_line_numbers_and_field_errors():
    with pytest.raises(ParseError) as err:
        load_graph("a\tb\nc\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        load_graph("a\tb\na\tb\t-1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        load_graph("a\tb\tzero\n")
    with pytest.raises(ParseError):
        load_graph("a \tb\n")  # trailing whitespace in a name


def test_names_starting_with_hash_are_rejected():
    # Such a name could lead an output line, which a parse reads back as a
    # comment.
    with pytest.raises(ParseError, match="invalid vertex name '#b'") as err:
        load_graph("a\tb\nb\t#b\n")
    assert err.value.line == 2
    g = load_graph("P\tQ\n")
    with pytest.raises(ParseError, match="invalid vertex name '#b'") as err:
        load_hierarchy("R\tP\nR\tQ\nP\t#b\nP\tc\nQ\tq\nQ\tr\n", g)
    assert err.value.line == 3
    with pytest.raises(ValidationError, match="'#b'"):
        Graph.from_edges({("a", "#b"): 1.0})
    assert load_graph("a\tb#\n").vertices == ("a", "b#")


def test_load_graph_comments_and_blank_lines():
    g = load_graph("# header\n\na\tb\n")
    assert g.weights == {("a", "b"): 1.0}


def test_load_hierarchy_well_formed():
    g, t = four_pair()
    assert t.root == "Br"
    assert t.children["A"] == ("a1", "a2")
    assert set(g.vertices) == set(t.vertices)


def test_load_hierarchy_cycle():
    g = load_graph(FOUR_GRAPH)
    with pytest.raises(ValidationError, match="cycle"):
        load_hierarchy(FOUR_TREE + "a1\tBr\n", g)


def test_hierarchy_cycle_away_from_the_root():
    # The root reaches r and a; b and c point at each other.
    parent = {"a": "r", "b": "c", "c": "b"}
    with pytest.raises(ValidationError, match=r"cycle: vertices \['b', 'c'\] unreachable from root 'r'"):
        Hierarchy(("a", "b", "c", "r"), parent, "r")
    with pytest.raises(ValidationError, match="unreachable from root"):
        Hierarchy(("a", "b", "r"), {"a": "b", "b": "a"}, "r")


def test_load_hierarchy_two_parents():
    g = load_graph(FOUR_GRAPH)
    with pytest.raises(ValidationError, match="two parents"):
        load_hierarchy(FOUR_TREE + "B\ta1\n", g)


def test_load_hierarchy_multiple_roots():
    g = load_graph("a\tb\n")
    with pytest.raises(ValidationError, match="multiple roots"):
        load_hierarchy("r1\ta\nr2\tb\n", g)


def test_load_hierarchy_missing_graph_vertex():
    g = load_graph(FOUR_GRAPH + "x\tB\n")
    with pytest.raises(ValidationError, match="'x'"):
        load_hierarchy(FOUR_TREE, g)


def test_leafset_examples():
    _, t = four_pair()
    assert leaves_under(t, "A") == {"a1", "a2"}
    assert leaves_under(t, "B") == {"B"}
    assert leaves_under(t, "Br") == {"a1", "a2", "B"}


def test_leafset_unknown_vertex():
    _, t = four_pair()
    assert "nope" not in t.leaf_ranges[1]
    with pytest.raises(DomainError):
        t.is_leaf("nope")


def test_depth_examples():
    _, t = four_pair()
    order, depth, _ = t._preorder
    assert dict(zip(order, depth)) == {"Br": 1, "A": 2, "a1": 3, "a2": 3, "B": 2}


def test_anchor_examples():
    g, t = four_pair()
    anchors = _anchors(g, t)
    assert anchors["a1"] == "A"
    assert anchors["B"] == "B"
    for v in g.active_vertices():
        assert anchors[v] == anchor_walk(g, t, v)


def test_anchor_topmost_wins_when_nested():
    g = load_graph("A\tB\nA1\tB\na1\tB\n")
    t = load_hierarchy("Br\tA\nBr\tB\nA\tA1\nA1\ta1\n", g)
    anchors = _anchors(g.with_vertices(t.vertices), t)
    assert anchors["a1"] == "A"
    assert anchors["A1"] == "A"


def test_anchor_requires_connectivity():
    # A silent vertex with no connectivity-bearing ancestor has no anchor.
    g, t = four_pair()
    assert "Br" not in _anchors(g, t)


def test_anchor_idempotent():
    rng = random.Random(23)
    for _ in range(30):
        g, t = random_pair(rng, rng.randrange(4, 25))
        anchors = _anchors(g, t)
        for v in g.active_vertices():
            a = anchors[v]
            assert a == anchor_walk(g, t, v)
            assert anchors[a] == a


@pytest.mark.parametrize("shape", [random_hierarchy, branching_hierarchy])
def test_leafset_matches_recursive_oracle(shape):
    rng = random.Random(37)
    for _ in range(60):
        t = shape(rng, names(rng.randrange(3, 60)))
        for v in t.vertices:
            assert leaves_under(t, v) == leafset_recursive(t, v)


@pytest.mark.parametrize("shape", [random_hierarchy, branching_hierarchy])
def test_tree_queries_match_recursive_oracles(shape):
    rng = random.Random(41)
    for _ in range(60):
        t = shape(rng, names(rng.randrange(3, 60)))
        assert list(t.dfs_preorder()) == preorder_recursive(t)
        assert t.leaf_ranges == leaf_ranges_recursive(t)
        order, depth, end = t._preorder
        for p, v in enumerate(order):
            assert depth[p] == depth_walk(t, v)
            assert list(order[p:end[p]]) == preorder_recursive(t, v)
        with pytest.raises(DomainError):
            t.is_leaf("nope")


def test_degrees_match_edge_loop():
    rng = random.Random(43)
    for _ in range(30):
        g, t = random_pair(rng, rng.randrange(3, 30))
        for graph in (g, Graph.from_edges(g.weights)):
            degree = degree_loop(graph)
            assert {v: graph.degree(v) for v in graph.vertices} == degree
            assert graph.active_vertices() == tuple(v for v in graph.vertices if degree[v])


def test_leafset_members_are_leaves_and_laminar():
    rng = random.Random(31)
    for _ in range(20):
        t = random_hierarchy(rng, names(rng.randrange(3, 25)))
        sets = {v: leaves_under(t, v) for v in t.vertices}
        for v, ls in sets.items():
            assert ls
            assert all(t.is_leaf(x) for x in ls)
        for a in t.vertices:
            for b in t.vertices:
                if a < b:
                    inter = sets[a] & sets[b]
                    assert not inter or sets[a] <= sets[b] or sets[b] <= sets[a]


def test_round_trip_graph_and_hierarchy():
    rng = random.Random(47)
    for _ in range(25):
        t = random_hierarchy(rng, names(rng.randrange(3, 20)))
        g = random_graph_on(rng, t, edge_budget=rng.randrange(1, 30))
        g_loaded = load_graph(serialize_graph(g))
        assert g_loaded.weights == g.weights
        t_loaded = load_hierarchy(serialize_hierarchy(t), g_loaded)
        assert t_loaded == t
        # The pair round-trips exactly once the universe is restored.
        assert g_loaded.with_vertices(t_loaded.vertices) == g


def test_graph_rejects_bad_construction():
    with pytest.raises(ValidationError):
        Graph.from_edges({("a", "a"): 1.0})
    with pytest.raises(ValidationError):
        Graph.from_edges({("a", "b"): 0.0})
    with pytest.raises(ValidationError):
        Graph(("a",), {("a", "b"): 1.0})


def test_with_vertices_equals_a_full_rebuild():
    rng = random.Random(53)
    for _ in range(25):
        g, t = random_pair(rng, rng.randrange(3, 30))
        edges_only = Graph.from_edges(g.weights)
        # Cache ids and degrees over the smaller universe first.
        assert len(edges_only.arrays[0]) == g.edge_count
        assert edges_only.active_vertices() == g.active_vertices()
        extended = edges_only.with_vertices(t.vertices)
        assert extended == Graph.from_edges(g.weights, vertices=t.vertices)
        assert extended.vertices == g.vertices
        assert extended.index == g.index
        for mine, full in zip(extended.arrays, g.arrays):
            assert mine.tolist() == full.tolist()
        assert {v: extended.degree(v) for v in g.vertices} == {v: g.degree(v) for v in g.vertices}
        assert extended.active_vertices() == g.active_vertices()
        assert extended.weights is not edges_only.weights


def test_with_vertices_rejects_a_bad_extra_name():
    g = load_graph("a\tb\n")
    for bad in ("", " c", "c\td", "c\n"):
        with pytest.raises(ValidationError):
            g.with_vertices(["z", bad])
    assert g.with_vertices(["a", "b"]) == g
