import random

import numpy as np
import pytest

from unires.graph import (
    DomainError,
    Graph,
    Hierarchy,
    ParseError,
    ValidationError,
    load_graph,
    load_hierarchy,
    on_tree,
    serialize_graph,
    serialize_hierarchy,
)
from unires.resolution import disinherit, inherit, kron_sampling

from oracles import (
    active_vertices,
    anchor_walk,
    children,
    degree_loop,
    depth_walk,
    from_edges,
    leaf_ranges_recursive,
    leafset_recursive,
    preorder_recursive,
    root,
    same_graph,
    same_tree,
    tree,
    with_vertices,
)
from conftest import anchors_by_name, branching_hierarchy, names, random_graph_on, random_hierarchy, random_pair

FOUR_GRAPH = "A\tB\na1\ta2\n"
FOUR_TREE = "Br\tA\nBr\tB\nA\ta1\nA\ta2\n"


def four_pair():
    g = load_graph(FOUR_GRAPH)
    t = load_hierarchy(FOUR_TREE, g)
    return with_vertices(g, t.vertices), t


def leaves_under(t: Hierarchy, v: str) -> frozenset[str]:
    """The leaves below ``v``, read from the leaf ranges of :attr:`Hierarchy.ids`."""
    ids, i = t.ids, t.vertices.index(v)
    leaves = ids.order[ids.leaf[ids.order]]
    return frozenset(t.vertices[x] for x in leaves[ids.lo[i]:ids.hi[i]].tolist())


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
        from_edges({("a", "#b"): 1.0})
    assert load_graph("a\tb#\n").vertices == ("a", "b#")


def test_load_graph_comments_and_blank_lines():
    g = load_graph("# header\n\na\tb\n")
    assert g.weights == {("a", "b"): 1.0}


def test_load_hierarchy_well_formed():
    g, t = four_pair()
    assert root(t) == "Br"
    assert children(t)["A"] == ("a1", "a2")
    assert set(g.vertices) == set(t.vertices)


def test_load_hierarchy_cycle():
    g = load_graph(FOUR_GRAPH)
    with pytest.raises(ValidationError, match="cycle"):
        load_hierarchy(FOUR_TREE + "a1\tBr\n", g)


def test_hierarchy_cycle_away_from_the_root():
    # The root reaches r and a; b and c point at each other.
    with pytest.raises(ValidationError, match=r"cycle: vertices \['b', 'c'\] unreachable from root 'r'"):
        tree({"a": "r", "b": "c", "c": "b"}, "r")
    with pytest.raises(ValidationError, match="unreachable from root"):
        tree({"a": "b", "b": "a"}, "r")


BAD_TREES = {
    "no root": ((("a", "b"), [1, 0]), "a tree has one root, not 0"),
    "two roots": ((("a", "b", "c"), [-1, -1, 0]), "a tree has one root, not 2"),
    "parent id above the range": ((("a", "b"), [-1, 2]), "parent must be 2 ids in [-1, 2)"),
    "parent id below -1": ((("a", "b"), [-1, -2]), "parent must be 2 ids in [-1, 2)"),
    "too few parent ids": ((("a", "b"), [-1]), "parent must be 2 ids in [-1, 2)"),
    "parent ids in a column": ((("a", "b"), [[-1], [0]]), "parent must be 2 ids in [-1, 2)"),
    "fractional parent": ((("a", "b", "c"), [-1, 0, 1.7]), "parent holds float64, not int64"),
    "string parent": ((("a", "b"), ["-1", "0"]), "parent holds <U2, not int64"),
    "unsorted names": ((("b", "a"), [-1, 0]), "vertices must be sorted and distinct"),
    "repeated name": ((("a", "a", "b"), [-1, 0, 0]), "vertices must be sorted and distinct"),
    "invalid name": ((("a", "b "), [-1, 0]), "invalid vertex name 'b '"),
    "own parent": ((("a", "b", "r"), [2, 1, -1]), "cycle: vertices ['b'] unreachable from root 'r'"),
}


@pytest.mark.parametrize("case", sorted(BAD_TREES))
def test_hierarchy_constructor_rejects(case):
    args, message = BAD_TREES[case]
    with pytest.raises(ValidationError) as err:
        Hierarchy(*args)
    assert message in str(err.value)


def test_hierarchy_parent_is_a_read_only_copy():
    given = [2, 2, -1]
    t = Hierarchy(["a", "b", "r"], given)
    assert t.vertices == ("a", "b", "r") and t.parent.dtype == np.int64
    with pytest.raises(ValueError, match="read-only"):
        t.parent[:1] = 1
    ids = np.array(given)
    t = Hierarchy(("a", "b", "r"), ids)
    ids[0] = 1
    assert t.parent.tolist() == given


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


def test_load_hierarchy_missing_vertex_error_comes_after_the_root_checks_and_before_the_cycle_check():
    g = load_graph("a\tz\n")
    with pytest.raises(ValidationError, match="multiple roots"):
        load_hierarchy("r\ta\nq\tb\n", g)
    with pytest.raises(ValidationError, match="graph vertex 'z' missing from the hierarchy"):
        load_hierarchy("r\ta\nx\ty\ny\tx\n", g)


def test_leafset_examples():
    _, t = four_pair()
    assert leaves_under(t, "A") == {"a1", "a2"}
    assert leaves_under(t, "B") == {"B"}
    assert leaves_under(t, "Br") == {"a1", "a2", "B"}


def test_leafset_unknown_vertex():
    _, t = four_pair()
    assert "nope" not in t.vertices
    with pytest.raises(DomainError):
        t.is_leaf("nope")


def test_depth_examples():
    _, t = four_pair()
    assert dict(zip(t.vertices, t.ids.depth.tolist())) == {"Br": 1, "A": 2, "a1": 3, "a2": 3, "B": 2}


def test_anchor_examples():
    g, t = four_pair()
    anchors = anchors_by_name(g, t)
    assert anchors["a1"] == "A"
    assert anchors["B"] == "B"
    for v in active_vertices(g):
        assert anchors[v] == anchor_walk(g, t, v)


def test_anchor_topmost_wins_when_nested():
    g = load_graph("A\tB\nA1\tB\na1\tB\n")
    t = load_hierarchy("Br\tA\nBr\tB\nA\tA1\nA1\ta1\n", g)
    anchors = anchors_by_name(with_vertices(g, t.vertices), t)
    assert anchors["a1"] == "A"
    assert anchors["A1"] == "A"


def test_anchor_requires_connectivity():
    # A silent vertex with no connectivity-bearing ancestor has no anchor.
    g, t = four_pair()
    assert "Br" not in anchors_by_name(g, t)


def test_anchor_idempotent():
    rng = random.Random(23)
    for _ in range(30):
        g, t = random_pair(rng, rng.randrange(4, 25))
        anchors = anchors_by_name(g, t)
        for v in active_vertices(g):
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
        ids, name = t.ids, t.vertices.__getitem__
        assert list(map(name, ids.order.tolist())) == preorder_recursive(t)
        leaves, ranges = leaf_ranges_recursive(t)
        assert tuple(map(name, ids.order[ids.leaf[ids.order]].tolist())) == leaves
        assert dict(zip(t.vertices, zip(ids.lo.tolist(), ids.hi.tolist()))) == ranges
        assert ids.leaf.tolist() == [leafset_recursive(t, v) == {v} for v in t.vertices]
        for p, v in enumerate(ids.order.tolist()):
            assert ids.depth[v] == depth_walk(t, name(v))
            assert list(map(name, ids.order[p:ids.end[p]].tolist())) == preorder_recursive(t, name(v))
        for array in ids:
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 1
        with pytest.raises(DomainError):
            t.is_leaf("nope")


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
        assert same_tree(t_loaded, t)
        # The pair round-trips exactly once the universe is restored.
        assert same_graph(on_tree(g_loaded, t_loaded), g)


def test_graph_rejects_bad_construction():
    with pytest.raises(ValidationError):
        from_edges({("a", "a"): 1.0})
    with pytest.raises(ValidationError):
        from_edges({("a", "b"): 0.0})
    with pytest.raises(ValidationError):
        Graph(("a",), [0], [1], [1.0])


def test_on_tree_equals_a_full_rebuild():
    rng = random.Random(53)
    for _ in range(25):
        g, t = random_pair(rng, rng.randrange(3, 30))
        edges_only = from_edges(g.weights)
        # Cache the weights map over the smaller universe first.
        assert edges_only.edge_count == g.edge_count
        assert active_vertices(edges_only) == active_vertices(g)
        extended = on_tree(edges_only, t)
        assert same_graph(extended, from_edges(g.weights, vertices=t.vertices))
        assert extended.vertices == g.vertices
        for mine, full in zip((extended.src, extended.dst, extended.w), (g.src, g.dst, g.w)):
            assert mine.tolist() == full.tolist()
        assert degree_loop(extended) == degree_loop(g)
        assert active_vertices(extended) == active_vertices(g)
        if edges_only.vertices == t.vertices:  # already on the tree's ids
            assert extended is edges_only
        else:
            assert extended.weights is not edges_only.weights


def test_on_tree_keeps_every_name_apart():
    # The adversarial names hold "a" and "a\x00", which numpy's fixed-width
    # strings would read as one name.
    from test_cli import ADVERSARIAL_NAMES

    rng = random.Random(59)
    pairs = [random_pair(rng, rng.randrange(3, 30), branching=k % 2 == 0) for k in range(30)]
    for _ in range(30):
        t = random_hierarchy(rng, ADVERSARIAL_NAMES)
        pairs.append((random_graph_on(rng, t, edge_budget=rng.randrange(1, 40)), t))
    for g, t in pairs:
        assert on_tree(g, t) is g
        small = from_edges(g.weights)
        mine, theirs = on_tree(small, t), with_vertices(small, t.vertices)
        assert mine.vertices == theirs.vertices == t.vertices
        for a, b in zip((mine.src, mine.dst, mine.w), (theirs.src, theirs.dst, theirs.w)):
            assert a.tolist() == b.tolist()
    g = load_graph("a\tb\nb\tx\n")
    with pytest.raises(ValidationError, match="graph vertex 'x' missing from the hierarchy"):
        on_tree(g, tree({"a": "r", "b": "r"}, "r"))


def test_package_built_graphs_have_read_only_arrays():
    rng = random.Random(5)
    for g, t in (four_pair(), random_pair(rng, 12), random_pair(rng, 25)):
        loaded = load_graph(serialize_graph(g))
        built = [loaded, on_tree(loaded, t)]
        built += [convert(g, t).network for convert in (inherit, disinherit, kron_sampling)]
        for graph in built:
            for array in (graph.src, graph.dst, graph.w):
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 1


def test_conversion_trails_are_read_only():
    rng = random.Random(6)
    for g, t in (four_pair(), random_pair(rng, 12), random_pair(rng, 25)):
        for convert in (inherit, disinherit, kron_sampling):
            result = convert(g, t)
            for array in (result.links, result.dropped, result.lost):
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 1


BAD_GRAPHS = {
    "parallel id pair": ((("a", "b"), [0, 0], [1, 1], [1.0, 2.0]), "parallel edges ('a', 'b')"),
    "parallel pair apart": ((("a", "b", "c"), [0, 1, 0], [1, 2, 1], [1.0, 1.0, 1.0]), "edge ('a', 'b') after ('b', 'c')"),
    "edges out of order": ((("a", "b", "c"), [0, 2, 1], [1, 0, 2], [1.0, 1.0, 1.0]),
                           "edge ('b', 'c') after ('c', 'a'): edges must be in name-pair order"),
    "id above the range": ((("a", "b"), [0], [2], [1.0]), "outside the 2 vertex ids"),
    "negative id": ((("a", "b"), [-1], [1], [1.0]), "outside the 2 vertex ids"),
    "unsorted vertices": ((("b", "a"), [0], [1], [1.0]), "sorted and distinct"),
    "repeated vertex": ((("a", "a", "b"), [0], [2], [1.0]), "sorted and distinct"),
    "self-loop": ((("a", "b"), [0, 1], [1, 1], [1.0, 1.0]), "self-loop at 'b'"),
    "NaN weight": ((("a", "b"), [0], [1], [float("nan")]), "non-positive weight nan"),
    "zero weight": ((("a", "b"), [0], [1], [0.0]), "non-positive weight 0.0"),
    "negative weight": ((("a", "b"), [0], [1], [-1.0]), "non-positive weight -1.0"),
    "infinite weight": ((("a", "b"), [0], [1], [float("inf")]), "non-positive weight inf"),
    "invalid name": ((("a", "b "), [0], [1], [1.0]), "invalid vertex name 'b '"),
    "name with an inner CR": ((("a\rb", "c"), [0], [1], [1.0]), "invalid vertex name 'a\\rb'"),
    "fractional id": ((("a", "b"), [0.5], [1], [1.0]), "src holds float64"),
    "string weight": ((("a", "b"), [0], [1], ["2"]), "w holds <U1"),
    "arrays of two lengths": ((("a", "b"), [0, 1], [1], [1.0, 1.0]), "of one length"),
}


@pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
def test_graph_constructor_rejects(case):
    args, message = BAD_GRAPHS[case]
    with pytest.raises(ValidationError) as err:
        Graph(*args)
    assert message in str(err.value)


def test_from_edges_sorts_its_map_into_name_pair_order():
    g = from_edges({("c", "a"): 3.0, ("b", "c"): 2.0, ("a", "b"): 1.0})
    assert (g.src.tolist(), g.dst.tolist(), g.w.tolist()) == ([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
    assert not same_graph(g, from_edges({("c", "a"): 3.0, ("b", "c"): 2.0, ("a", "b"): 4.0}))
    assert not same_graph(g, from_edges({("b", "c"): 2.0, ("a", "b"): 1.0}, vertices="c"))
    assert not same_graph(g, with_vertices(g, ["d"]))
