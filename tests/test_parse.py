"""The whole-document edge-list parse against the line-by-line loop, and the
graphs the package builds without re-validation against validated rebuilds."""

import random

import pytest

import unires.graph
from unires.graph import Graph, ParseError, load_graph, serialize_graph
from unires.resolution import disinherit, inherit, kron_sampling

from oracles import load_graph_loop
from conftest import random_pair

# Names with inner spaces, non-ASCII letters, an arrow, digits and an inner '#'.
NAMES = ("a", "b", "c d", "Äb", "é1", "x->y", "->", "24", "V4", "n#1", "zz")
# "" makes a 2-field line; the rest are what float() accepts.
WEIGHTS = ("", "", "1", "2.5", "0.1", "0.2", "0.7", "1_0", " 2.5 ", "1e3", "3.0", "+4", "5.")


def random_document(rng: random.Random) -> str:
    edges = [rng.sample(NAMES, 2) for _ in range(rng.randrange(1, 60))]
    edges += rng.choices(edges, k=rng.randrange(0, 25))  # duplicate lines, each with its own weight
    lines = []
    for u, v in edges:
        weight = rng.choice(WEIGHTS)
        lines.append(f"{u}\t{v}\t{weight}" if weight else f"{u}\t{v}")
    rng.shuffle(lines)
    for _ in range(rng.randrange(0, 4)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", "# a comment", "#\tx\ty\tz", "#")))
    return "\n".join(lines) + rng.choice(("", "\n", "\n\n"))


def assert_same_graph(graph: Graph, reference: Graph) -> None:
    """Same universe, same weights in the same order, same arrays."""
    assert graph.vertices == reference.vertices
    assert list(graph.weights.items()) == list(reference.weights.items())
    assert all(type(w) is float for w in graph.weights.values())
    for mine, full in zip(graph.arrays, reference.arrays):
        assert mine.dtype == full.dtype
        assert mine.tolist() == full.tolist()


def must_not_fall_back(text):
    raise AssertionError("a valid document fell back to the line-by-line parse")


def test_whole_document_parse_matches_the_loop(monkeypatch):
    monkeypatch.setattr(unires.graph, "_load_graph_lines", must_not_fall_back)
    rng = random.Random(61)
    for _ in range(400):
        text = random_document(rng)
        assert_same_graph(load_graph(text), load_graph_loop(text))


@pytest.mark.parametrize("text", [
    "a\tb\n", "a\tb", "a\tb\t2\n", "a\tb\nb\ta\t1_0\n", "# only a comment\na\tb\n\n\nb\tc\t 2.5 \n",
    "a\tb\t0.1\na\tb\t0.2\nb\ta\na\tb\t0.7\n",
])
def test_small_documents_match_the_loop(text):
    assert_same_graph(load_graph(text), load_graph_loop(text))


def test_documents_without_edges_match_the_loop():
    for text in ("", "\n", "# header\n\n#\tcomment\n"):
        assert_same_graph(load_graph(text), load_graph_loop(text))


def raised(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return type(err.value), str(err.value), err.value.line


BAD_LINES = {
    "one field": "a",
    "four fields": "a\tb\t1\t2",
    "empty name": "\tb",
    "name with a leading space": " a\tb",
    "name with a trailing space": "a\tb \t1",
    "target starting with #": "a\t#b",
    "self-loop": "a\ta\t1",
    "zero": "a\tb\t0",
    "negative": "a\tb\t-1",
    "nan": "a\tb\tnan",
    "inf": "a\tb\tinf",
    "unparsable": "a\tb\tzero",
    "empty weight": "a\tb\t",
    "overflowing duplicate": "a\tb\t1e308\nb\ta\t1e308\na\tb\t1e308",
}


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_bad_documents_raise_what_the_loop_raises(case):
    bad = BAD_LINES[case]
    for text in (bad, f"# header\nx\ty\t2\n\n{bad}\nz\tx\n", f"x\ty\n{bad}\n{BAD_LINES['self-loop']}\n"):
        assert raised(load_graph, text) == raised(load_graph_loop, text)


def test_bad_lines_anywhere_raise_what_the_loop_raises():
    rng = random.Random(67)
    for _ in range(300):
        lines = random_document(rng).split("\n")
        for bad in rng.sample(sorted(BAD_LINES.values()), rng.randrange(1, 3)):
            lines.insert(rng.randrange(len(lines) + 1), bad)
        text = "\n".join(lines)
        assert raised(load_graph, text) == raised(load_graph_loop, text)


def test_package_built_graphs_equal_validated_rebuilds():
    for seed in range(300):
        rng = random.Random(seed)
        g, t = random_pair(rng, rng.randrange(4, 40), branching=seed % 2 == 0)
        lines = serialize_graph(g).splitlines()
        rng.shuffle(lines)
        loaded = load_graph("\n".join(lines))
        built = [loaded, loaded.with_vertices(t.vertices), inherit(g, t).network,
                 disinherit(g, t).network, kron_sampling(g, t).network]
        for graph in built:
            assert_same_graph(graph, Graph.from_edges(graph.weights, vertices=graph.vertices))
        assert built[1] == g
