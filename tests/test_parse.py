"""The block-by-block edge-list parse against the line-by-line loop, and the
graphs the package builds against rebuilds from their name-keyed weights."""

import random

import pytest

import unires.graph
from unires.graph import Graph, ParseError, _valid_name, load_graph, on_tree, serialize_graph
from unires.resolution import disinherit, inherit, kron_sampling

from oracles import from_edges, load_graph_loop, same_graph, valid
from conftest import block_sizes, names, random_pair, traced_peak

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
    for mine, full in zip((graph.src, graph.dst, graph.w), (reference.src, reference.dst, reference.w)):
        assert mine.dtype == full.dtype
        assert mine.tolist() == full.tolist()


def test_whole_document_parse_matches_the_loop(monkeypatch):
    for _ in block_sizes(monkeypatch):
        rng = random.Random(61)
        for _ in range(400):
            text = random_document(rng)
            assert_same_graph(load_graph(text), load_graph_loop(text))


@pytest.mark.parametrize("text", [
    "a\tb\n", "a\tb", "a\tb\t2\n", "a\tb\nb\ta\t1_0\n", "# only a comment\na\tb\n\n\nb\tc\t 2.5 \n",
    "a\tb\t0.1\na\tb\t0.2\nb\ta\na\tb\t0.7\n", "\n\n# a\n#\tb\na\tb\n\n#\nb\tc\t2\n#\n",
])
def test_small_documents_match_the_loop(text, monkeypatch):
    for _ in block_sizes(monkeypatch):
        assert_same_graph(load_graph(text), load_graph_loop(text))


def test_duplicate_lines_in_different_blocks_sum_in_line_order():
    # Lines of one edge at the start, the middle and the end of a document
    # of three blocks, with names first seen in every block.
    filler = [f"{u}\t{v}\t2" for u, v in zip(names(12_000), names(12_000)[1:])]
    lines = ["a\tb\t0.1", *filler[:6000], "a\tb\t0.2", *filler[6000:], "a\tb\t0.7"]
    text = "\n".join(lines)
    assert len(text) > 2 * unires.graph.BLOCK and text.index("a\tb\t0.2") > unires.graph.BLOCK
    graph = load_graph(text)
    assert_same_graph(graph, load_graph_loop(text))
    assert graph.weights[("a", "b")] == 0.0 + 0.1 + 0.2 + 0.7 != 0.1 + (0.2 + 0.7)


def test_load_graph_peak_memory_is_one_block_of_strings():
    # 50,000 lines over 700 names: the whole-document parse held about 260
    # bytes a line (the lines, then their fields); the blocks held about 102,
    # mostly in np.unique's arrays that summed the duplicates.  One stable
    # argsort of the keys, and keys in place of id pairs, hold about 82.
    rng = random.Random(7)
    labels = names(700)
    text = "".join(f"{u}\t{v}\t{rng.choice(('1', '2.5', '3'))}\n" for u, v in (rng.sample(labels, 2) for _ in range(50_000)))
    assert traced_peak(load_graph, text) <= 90 * 50_000
    # A bad last line raises in the same memory: no second parse of the document.
    for bad in ("a\ta\t1\n", "a\n", "a\tb\tzero\n", "a\tb\t1e308\na\tb\t1e308\n"):
        assert traced_peak(raised, load_graph, text + bad) <= 90 * 50_000
        assert raised(load_graph, text + bad)[2] == 50_000 + bad.count("\n")


def test_an_edge_on_many_lines_sums_in_line_order(monkeypatch):
    # One edge on twelve lines, among others: 1.0 added to 1e16 rounds away,
    # so its sum tells the order in which the weights were added.
    weights = ["1", "", "1e16", "1", "2.5", "", "1", "0.1", "1", "", "3", "1"]
    sums = set()
    for _ in block_sizes(monkeypatch):
        rng = random.Random(11)
        for _ in range(30):
            lines = [f"a\tb\t{x}" if x else "a\tb" for x in rng.sample(weights, len(weights))]
            lines += [f"{u}\t{v}\t{rng.choice(WEIGHTS[2:])}" for u, v in (rng.sample(NAMES, 2) for _ in range(40))]
            rng.shuffle(lines)
            text = "\n".join(lines)
            graph = load_graph(text)
            assert_same_graph(graph, load_graph_loop(text))
            sums.add(graph.weights[("a", "b")])
    assert len(sums) > 1


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
    "two bad names": " a\tb \t0",
    "a bad name on a self-loop": " a\t a\t1",
    "zero": "a\tb\t0",
    "negative": "a\tb\t-1",
    "nan": "a\tb\tnan",
    "inf": "a\tb\tinf",
    "unparsable": "a\tb\tzero",
    "empty weight": "a\tb\t",
    "name with an inner CR": "a\rb\tc",
    "overflowing duplicate": "a\tb\t1e308\nb\ta\t1e308\na\tb\t1e308",
}


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_bad_documents_raise_what_the_loop_raises(case, monkeypatch):
    bad = BAD_LINES[case]
    for _ in block_sizes(monkeypatch):
        for text in (bad, f"# header\nx\ty\t2\n\n{bad}\nz\tx\n", f"x\ty\n{bad}\n{BAD_LINES['self-loop']}\n"):
            assert raised(load_graph, text) == raised(load_graph_loop, text)


def test_name_check_matches_the_loop():
    from test_cli import ADVERSARIAL_NAMES

    tokens = [*ADVERSARIAL_NAMES, *NAMES, *(f for bad in BAD_LINES.values() for line in bad.split("\n") for f in line.split("\t"))]
    rng = random.Random(13)
    tokens += ["".join(rng.choices("\t\n\r #\x00éa", k=rng.randrange(6))) for _ in range(3000)]
    assert {valid(token) for token in tokens} == {True, False}
    for token in tokens:
        assert _valid_name(token) == valid(token), repr(token)


def test_bad_lines_anywhere_raise_what_the_loop_raises(monkeypatch):
    for _ in block_sizes(monkeypatch):
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
        built = [loaded, on_tree(loaded, t), inherit(g, t).network,
                 disinherit(g, t).network, kron_sampling(g, t).network]
        for graph in built:
            assert_same_graph(graph, from_edges(graph.weights, vertices=graph.vertices))
        assert same_graph(built[1], g)


def test_the_first_bad_line_wins_across_blocks(monkeypatch):
    # One edge on lines of 1e308, whose running sum overflows on the second,
    # and a bad line before or after that one, among stretches of comments
    # and blank lines that fill whole blocks: the overflow is found after
    # the last block, and a bad line can follow a block without data lines.
    per_line = sorted(bad for case, bad in BAD_LINES.items() if case != "overflowing duplicate")
    for size in block_sizes(monkeypatch):
        rng = random.Random(71)
        overflows = 0
        for _ in range(60):
            lines = random_document(rng).split("\n")
            u, v = rng.sample(NAMES, 2)
            for _ in range(rng.randrange(2, 5)):
                lines.insert(rng.randrange(len(lines) + 1), f"{u}\t{v}\t1e308")
            second = [p for p, line in enumerate(lines) if line.endswith("\t1e308")][1]
            before = rng.random() < 0.5
            lines.insert(rng.randrange(second + 1) if before else rng.randrange(second + 1, len(lines) + 1), rng.choice(per_line))
            for _ in range(rng.randrange(1, 4)):
                lines[rng.randrange(len(lines) + 1):0] = ["", "# a comment"] * (size // 5 + 2)
            text = "\n".join(lines)
            error = raised(load_graph, text)
            assert error == raised(load_graph_loop, text)
            overflows += "overflows float64" in error[1]
        assert 0 < overflows < 60
