import csv
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import unires.cli
from unires.cli import main
from unires.graph import _graph_blocks, load_graph, serialize_graph, serialize_hierarchy
from unires.metrics import centrality_suite, degree_fit, metrics_report
from unires.resolution import disinherit, inherit, kron_sampling

from oracles import dropped, from_edges, provenance, provenance_nested_sort, root
from conftest import (
    block_sizes, branching_hierarchy, laplacian, names, random_digraph, random_graph_on, random_hierarchy, traced_peak,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")

FOUR_GRAPH = "A\tB\na1\ta2\n"
FOUR_TREE = "Br\tA\nBr\tB\nA\ta1\nA\ta2\n"

# Mixed-resolution fixture rich enough for every analysis command.
RICH_GRAPH = (
    "A\tB\n"
    "A\tc1\n"
    "B\tA\n"
    "a1\ta2\n"
    "a2\tb1\n"
    "b1\ta1\n"
    "b1\tb2\n"
    "b2\tc1\n"
    "c1\ta1\n"
    "c2\ta2\n"
    "c2\tb1\n"
)
RICH_TREE = (
    "Br\tA\nBr\tB\nBr\tC\n"
    "A\ta1\nA\ta2\n"
    "B\tb1\nB\tb2\n"
    "C\tc1\nC\tc2\n"
)


def write_pair(tmp_path, graph=FOUR_GRAPH, tree=FOUR_TREE):
    gp = tmp_path / "graph.tsv"
    hp = tmp_path / "tree.tsv"
    gp.write_text(graph)
    hp.write_text(tree)
    return str(gp), str(hp)


def test_convert_inherit(tmp_path):
    gp, hp = write_pair(tmp_path)
    out = tmp_path / "run"
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "inherit", "--out", str(out)]) == 0
    lines = (out / "network.tsv").read_text().splitlines()
    assert len(lines) == 3
    assert sorted((out / "hierarchy.tsv").read_text().splitlines()) == sorted(FOUR_TREE.splitlines())
    assert "a1->B\tA->B" in (out / "provenance.tsv").read_text().splitlines()


def test_convert_disinherit(tmp_path):
    gp, hp = write_pair(tmp_path)
    out = tmp_path / "run"
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "disinherit", "--out", str(out)]) == 0
    assert (out / "network.tsv").read_text() == "A\tB\t1.0\n"
    tree = (out / "hierarchy.tsv").read_text()
    assert "a1" not in tree and "a2" not in tree
    assert "dropped\ta1->a2" in (out / "provenance.tsv").read_text().splitlines()


def test_convert_disinherit_refuses_an_edge_on_the_root(tmp_path, capsys):
    # Every vertex collapses onto the root, and hierarchy.tsv has no line
    # for a one-vertex tree, so the output would not read back.
    gp, hp = write_pair(tmp_path, "R\ta1\nR\tA\n", "R\tA\nA\ta1\nA\ta2\n")
    out = tmp_path / "run"
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "disinherit", "--out", str(out)]) == 2
    assert "edge ('R', 'A') is on the root" in capsys.readouterr().err
    assert not out.exists()


def test_convert_missing_hierarchy(tmp_path, capsys):
    gp, _ = write_pair(tmp_path)
    missing = str(tmp_path / "nope.tsv")
    assert main(["convert", "--graph", gp, "--hierarchy", missing, "--method", "inherit", "--out", str(tmp_path / "o")]) == 2
    assert "nope.tsv" in capsys.readouterr().err


def test_convert_parse_error_carries_line(tmp_path, capsys):
    gp = tmp_path / "bad.tsv"
    gp.write_text("a\tb\nc\tc\n")
    hp = tmp_path / "tree.tsv"
    hp.write_text("r\ta\nr\tb\nr\tc\n")
    assert main(["convert", "--graph", str(gp), "--hierarchy", str(hp), "--method", "inherit", "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err


# Either input edge alone is finite; the leaf pair (a1, B) they share, and
# the anchor pair (A, B) of disinherit, sum to more than float64 holds.
OVERFLOW_GRAPH = "A\tB\t1e308\na1\tB\t1e308\n"
OVERFLOW_TREE = "R\tA\nR\tB\nA\ta1\nA\ta2\n"


@pytest.mark.parametrize("method", ["inherit", "disinherit", "kron"])
def test_convert_weight_overflow_exits_2(tmp_path, capsys, method):
    gp, hp = write_pair(tmp_path, OVERFLOW_GRAPH, OVERFLOW_TREE)
    out = tmp_path / "o"
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", method, "--out", str(out)]) == 2
    assert "overflows float64" in capsys.readouterr().err
    assert not out.exists()


def test_convert_duplicate_line_overflow_exits_2(tmp_path, capsys):
    gp, hp = write_pair(tmp_path, "A\tB\t1e308\na1\ta2\nA\tB\t1e308\n", OVERFLOW_TREE)
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "inherit", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "overflows float64" in err


# sha256 of the output files for a seeded n=200 instance with non-integer
# weights.  Inherit and disinherit add plain Python floats, with no BLAS, so
# their bytes are the same on every platform.  Kron's resistances go through
# BLAS, but masses within MASS_TIE_RTOL tie, so its placement holds under
# every BLAS kernel tested below.
GOLDEN = {
    "inherit": {
        "network.tsv": "ca028757fa622131a800f2deaf7c8c8070abeaf07db6a9c59b2a976a13dc697f",
        "hierarchy.tsv": "163d2b298f3ac3cd85a7f0050fe85190d58876985c63f5118d2e1f7f3fd669ce",
        "provenance.tsv": "85ae67e2454f62ff119e95fa89141eb12b6a4f2abfaab381f3026df9f22315c4",
    },
    "disinherit": {
        "network.tsv": "288b021b0b4431392bd664a24e1114f06bff7c4ecba2187b83bd0a5c92609a5d",
        "hierarchy.tsv": "d743b33d85926a3def4b310bab4bf0d248ad33462c50b569891dfaa346f12b2f",
        "provenance.tsv": "c6e8edcce7b19a789a2eb417db8fd14e229d0fa79fb3d20de1a6dcd8b68fa7cc",
    },
    "kron": {
        "network.tsv": "6a0b72015f8e0413e35a9f590de2c17a4bfa37b1f988f86267564441a0ea9f3a",
        "hierarchy.tsv": "163d2b298f3ac3cd85a7f0050fe85190d58876985c63f5118d2e1f7f3fd669ce",
        "provenance.tsv": "74a4fe93773b93c6be3e8f09768c3a49d02679408a975c3ba62a4ebf852f318d",
    },
}

# The same pair written messily (write_messy_pair): the repeated lines change
# the weights, and so the networks and kron's provenance.
MESSY_GOLDEN = {
    "inherit": {**GOLDEN["inherit"],
                "network.tsv": "6e5734d388b6fd53fb337a23d9e76a536be64849da6befbab053ef42a1e690d0"},
    "disinherit": {**GOLDEN["disinherit"],
                   "network.tsv": "fa0ade8955b671eaa7f44cbfcc0d492c6a16206f58447e796c1b322e1ef116de"},
    "kron": {
        "network.tsv": "74f724a54613c6a669ec5586fc3341cf838142f9610604c0ced43e63c35bf8ab",
        "hierarchy.tsv": "163d2b298f3ac3cd85a7f0050fe85190d58876985c63f5118d2e1f7f3fd669ce",
        "provenance.tsv": "2a66738e813bfc90ffb602d1ddea8a40f9938e00f0dd040bde871e90f45b8915",
    },
}


def write_pinned_pair(tmp_path):
    rng = random.Random(4242)
    t = branching_hierarchy(rng, names(200))
    pool = [v for v in t.vertices if v != root(t)]  # a root edge leaves disinherit nothing to write
    weights = {}
    for _ in range(3000):
        u, v = rng.sample(pool, 2)
        weights[(u, v)] = weights.get((u, v), 0.0) + rng.choice((0.1, 0.2, 0.3, 0.7))
    return write_pair(tmp_path, serialize_graph(from_edges(weights, vertices=t.vertices)),
                      serialize_hierarchy(t))


def write_messy_pair(tmp_path):
    """The pinned pair's graph as people write files: lines shuffled, some
    repeated with another weight or none, comments and blank lines between."""
    gp, hp = write_pinned_pair(tmp_path)
    rng = random.Random(77)
    lines = Path(gp).read_text().splitlines()
    ends = [line.rsplit("\t", 1)[0] for line in rng.sample(lines, 400)]
    lines += [f"{e}\t0.3" for e in ends[:200]] + ends[200:]
    rng.shuffle(lines)
    for _ in range(20):
        lines.insert(rng.randrange(len(lines)), rng.choice(("# messy", "", "#\tcomment")))
    messy = tmp_path / "messy.tsv"
    messy.write_text("\n".join(lines) + "\n")
    return str(messy), hp


def assert_pinned(out, digests):
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_convert_output_bytes_are_pinned(tmp_path, method):
    gp, hp = write_pinned_pair(tmp_path)
    out = tmp_path / method
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", method, "--out", str(out)]) == 0
    assert_pinned(out, GOLDEN[method])


@pytest.mark.parametrize("method", sorted(MESSY_GOLDEN))
def test_convert_output_bytes_of_a_messy_input_are_pinned(tmp_path, method):
    gp, hp = write_messy_pair(tmp_path)
    out = tmp_path / method
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", method, "--out", str(out)]) == 0
    assert_pinned(out, MESSY_GOLDEN[method])


def test_laplacian_of_a_messy_input_is_pinned(tmp_path):
    # The Laplacian (summed with np.bincount, no BLAS) follows the edge set
    # alone: the messy lines give the bits of their summed edges written
    # once each in name-pair order.
    gp, _ = write_messy_pair(tmp_path)
    g = load_graph(Path(gp).read_text())
    assert laplacian(g).tobytes() == laplacian(load_graph(serialize_graph(g))).tobytes()


def test_kron_bytes_are_the_same_under_three_blas_kernels(tmp_path):
    # And under one BLAS thread, the setting the benchmark gives every process.
    gp, hp = write_pinned_pair(tmp_path)
    runs = {kernel: {"OPENBLAS_CORETYPE": kernel} for kernel in ("Haswell", "Sandybridge", "Prescott")}
    runs["one-thread"] = {"OPENBLAS_NUM_THREADS": "1"}
    for label, env in runs.items():
        out = tmp_path / label
        done = _python("-m", "unires", "convert", "--graph", gp, "--hierarchy", hp, "--method", "kron",
                       "--out", str(out), **env)
        assert done.returncode == 0, done.stderr
        assert_pinned(out, GOLDEN["kron"])


def test_path_scores_are_the_same_under_every_blas_kernel(tmp_path):
    """Every centrality byte, on a graph on each Brandes kernel: the dense
    one reads path counts from exact BLAS mat-vecs, and the power
    iterations sum over the arcs without BLAS."""
    rng = random.Random(4243)
    graphs = {"dense": random_digraph(rng, 120, 0.3), "sparse": random_digraph(rng, 150, 0.05)}
    assert 4 * graphs["dense"].edge_count >= len(graphs["dense"].vertices) ** 2
    assert 4 * graphs["sparse"].edge_count < len(graphs["sparse"].vertices) ** 2
    for kind, g in graphs.items():
        gp = tmp_path / f"{kind}.tsv"
        gp.write_text(serialize_graph(g))
        digests = set()
        for kernel in (None, "Haswell", "Sandybridge", "Prescott"):
            out = tmp_path / f"{kind}-{kernel}"
            done = _python("-m", "unires", "centrality", "--graph", str(gp), "--out", str(out), OPENBLAS_CORETYPE=kernel)
            assert done.returncode == 0, done.stderr
            digests.add(tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                              for name in ("centrality.csv", "top_k.csv")))
        assert len(digests) == 1, kind


# The analysis commands on the same instance, with the tree's container
# vertices in the universe.  No score goes through an inexact BLAS call, so
# the pins hold under every BLAS build.
ANALYSIS_GOLDEN = {
    "metrics": {
        "metrics.json": "25f16100342bc8b26bb1eed2f974053c50d1be3c234e9a4d601b45125ef44cb6",
        "metrics.txt": "5dd66072c25544dcdeda2541834b18f8a01423b30c756c37d2f5a47d08c1d107",
    },
    "centrality": {
        "centrality.csv": "e88c52bf3a91075517ca968fa1e98fd12a7aae09b9eedc5d1631af8dd40ff2ba",
        "top_k.csv": "6402d7ae7d1227a70321cddbc45b3b875efa81c3753372a6fbccbd514165bd99",
    },
    "degree-fit": {
        "ccdf.csv": "a74f9d1555b2117e1e3956ad085469c406f3de8afb7ba7dc3de56c63758c7f4c",
        "fit.json": "bbb893851fda40570b1ee8d94ebbfedbc6631618480f428a6bd9fdec119741dc",
    },
    "spyplot": {
        "ordering.txt": "6330a2b9c4912d9cb60e870ef5016882511eeacd6c52072c8015dce1223540cd",
        "spy.tsv": "5e295b7b4ae8aec6feed2e8b66a6b6b93432049568f481e0007c41a9d044b30d",
    },
}


@pytest.mark.parametrize("command", sorted(ANALYSIS_GOLDEN))
def test_analysis_output_bytes_are_pinned(tmp_path, command):
    gp, hp = write_pinned_pair(tmp_path)
    out = tmp_path / command
    assert main([command, "--graph", gp, "--hierarchy", hp, "--out", str(out)]) == 0
    assert_pinned(out, ANALYSIS_GOLDEN[command])


@pytest.mark.parametrize("command", sorted(ANALYSIS_GOLDEN))
def test_analysis_of_a_messy_input_reads_only_its_edge_set(tmp_path, command):
    # Same edges as the pinned pair, and the analyses ignore weights.
    gp, hp = write_messy_pair(tmp_path)
    out = tmp_path / command
    assert main([command, "--graph", gp, "--hierarchy", hp, "--out", str(out)]) == 0
    assert_pinned(out, ANALYSIS_GOLDEN[command])


# The resistance command's stdout on the same instance: every edge's
# resistance through one inverse by halves per component.
RESISTANCE_GOLDEN = "d15852805493c481aa70ac0720bc1eabe8250da8960c07da136696ed69247579"


def test_resistance_output_bytes_are_pinned(tmp_path, capsys):
    gp, _ = write_pinned_pair(tmp_path)
    assert main(["resistance", "--graph", gp]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == RESISTANCE_GOLDEN


def test_line_order_moves_no_output_byte(tmp_path, capsys):
    # The pinned pair's edges, one line each, in name-pair order and in three
    # shuffled orders: the edge set alone fixes every output byte.
    gp, hp = write_pinned_pair(tmp_path)
    runs = [(["convert", "--method", m], GOLDEN[m]) for m in sorted(GOLDEN)]
    runs += [([c], ANALYSIS_GOLDEN[c]) for c in sorted(ANALYSIS_GOLDEN)]
    lines = Path(gp).read_text().splitlines(keepends=True)
    rng = random.Random(4244)
    outputs = []
    for k in range(4):
        if k:
            rng.shuffle(lines)
        path = tmp_path / f"order{k}.tsv"
        path.write_text("".join(lines))
        digests = {}
        for argv, files in runs:
            out = tmp_path / f"{k}-{len(digests)}"
            assert main([*argv, "--graph", str(path), "--hierarchy", hp, "--out", str(out)]) == 0
            digests[" ".join(argv)] = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in files}
        capsys.readouterr()
        assert main(["resistance", "--graph", str(path)]) == 0
        digests["resistance"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        outputs.append(digests)
    assert {key: outputs[0][key] for key in outputs[0] if key != "resistance"} == {" ".join(a): f for a, f in runs}
    for digests in outputs[1:]:
        assert digests == outputs[0]


# Names whose "u->v" labels sort unlike the name pairs ("a" < "a-", but
# "a-->x" < "a->x"), and whose labels collide: ("a->", "b") and ("a", "->b")
# both read "a->->b".  "a\x01" holds a character below the tab, so that
# "s->a\x01<TAB>" sorts before "s->a<TAB>", and "é" and "é->" sort above every
# ASCII name.  "a\x00" ends in a NUL, which numpy's fixed-width bytes drop
# at the end of a value, and "a\x00->" collides like "a->", with a NUL inside.
ADVERSARIAL_NAMES = ["a", "a-", "a-!", "a->b", "b->", "a->", "->", "-", "b", "->b", "a\x01", "é", "é->", "a\x00", "a\x00->"]


def test_writers_peak_memory_is_blocks_of_lines(tmp_path):
    # Inherit on a deep tree: 31,700 output edges and 87,885 provenance
    # rows, about 2.8 per distinct head "s->d<TAB>".  Writing a whole line
    # list held about 160 bytes an edge or a row.  In blocks, the edge list
    # as one string holds about 48 bytes an edge, and written block by block
    # about 41.  The provenance writer held about 79 a row with a Python
    # string per head, and 64 with the heads in one array of bytes.
    rng = random.Random(3)
    t = random_hierarchy(rng, names(400))
    result = inherit(random_graph_on(rng, t, edge_budget=8000), t)
    edges, rows = result.network.edge_count, len(result.links) + len(result.dropped)
    assert (edges, rows) == (31_700, 87_885)
    assert traced_peak(serialize_graph, result.network) <= 100 * edges
    path = tmp_path / "network.tsv"
    assert traced_peak(lambda: unires.cli._write(path, _graph_blocks(result.network))) <= 44 * edges
    assert path.read_text() == serialize_graph(result.network)
    path = tmp_path / "provenance.tsv"
    assert traced_peak(lambda: unires.cli._write(path, unires.cli._provenance_lines(result))) <= 72 * rows


def test_provenance_file_matches_the_nested_sort_writer(tmp_path, monkeypatch):
    for size in block_sizes(monkeypatch):
        rng = random.Random(71)
        for k in range(30):
            t = random_hierarchy(rng, ADVERSARIAL_NAMES)
            g = random_graph_on(rng, t, edge_budget=rng.randrange(1, 40))
            gp, hp = write_pair(tmp_path, serialize_graph(g), serialize_hierarchy(t))
            for method, convert in (("inherit", inherit), ("disinherit", disinherit), ("kron", kron_sampling)):
                out = tmp_path / f"{method}{k}-{size}"
                code = main(["convert", "--graph", gp, "--hierarchy", hp, "--method", method, "--out", str(out)])
                result = convert(g, t)
                if len(result.hierarchy.vertices) == 1:  # disinherit, with an edge on the root: refused
                    assert code == 2 and not out.exists()
                    written = b"".join(unires.cli._provenance_lines(result))
                else:
                    assert code == 0
                    written = (out / "provenance.tsv").read_bytes()
                expected = provenance_nested_sort(provenance(result), dropped(result))
                assert written == expected.encode(), (size, k, method)


def test_convert_refuses_to_overwrite_inputs(tmp_path):
    gp = tmp_path / "network.tsv"
    gp.write_text(FOUR_GRAPH)
    hp = tmp_path / "tree.tsv"
    hp.write_text(FOUR_TREE)
    assert main(["convert", "--graph", str(gp), "--hierarchy", str(hp), "--method", "inherit", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, output", [
    ("metrics", "metrics.txt"),
    ("centrality", "centrality.csv"),
    ("degree-fit", "ccdf.csv"),
])
def test_analysis_refuses_to_overwrite_the_hierarchy(tmp_path, command, output):
    gp = tmp_path / "g.tsv"
    gp.write_text(RICH_GRAPH)
    out = tmp_path / "out"
    out.mkdir()
    hp = out / output
    hp.write_text(RICH_TREE)
    assert main([command, "--graph", str(gp), "--hierarchy", str(hp), "--out", str(out)]) == 2
    assert hp.read_text() == RICH_TREE


def test_every_export_resolves():
    import unires

    assert len(set(unires.__all__)) == len(unires.__all__)
    for name in unires.__all__:
        assert getattr(unires, name) is not None, name
    namespace: dict = {}
    exec("from unires import *", namespace)
    assert set(unires.__all__) <= namespace.keys()


def test_convert_runs_are_byte_identical(tmp_path):
    gp, hp = write_pair(tmp_path, RICH_GRAPH, RICH_TREE)
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "kron", "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("network.tsv", "hierarchy.tsv", "provenance.tsv", "manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


def test_manifest_reconstructs_run(tmp_path):
    gp, hp = write_pair(tmp_path)
    out = tmp_path / "run"
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "kron", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest) == ["command", "inputs", "method", "outputs", "tool", "version"]
    assert manifest["method"] == "kron"
    assert manifest["inputs"]["graph"]["path"] == gp
    assert len(manifest["inputs"]["hierarchy"]["sha256"]) == 64
    assert sorted(manifest["outputs"]) == ["hierarchy.tsv", "network.tsv", "provenance.tsv"]
    for name, digest in manifest["outputs"].items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert manifest["version"]


def test_manifest_digests_are_those_of_the_written_files(tmp_path, monkeypatch):
    # Each output is hashed block by block as it is written; at block sizes
    # of a few characters a block is a line or two.
    for size in block_sizes(monkeypatch):
        rng = random.Random(72)
        for k in range(10):
            t = random_hierarchy(rng, ADVERSARIAL_NAMES)
            g = random_graph_on(rng, t, edge_budget=rng.randrange(1, 40))
            gp, hp = write_pair(tmp_path, serialize_graph(g), serialize_hierarchy(t))
            for method in ("inherit", "disinherit", "kron"):
                out = tmp_path / f"{method}{k}-{size}"
                if main(["convert", "--graph", gp, "--hierarchy", hp, "--method", method, "--out", str(out)]):
                    assert method == "disinherit" and not out.exists()  # an edge on the root: refused
                    continue
                outputs = json.loads((out / "manifest.json").read_text())["outputs"]
                assert sorted(outputs) == ["hierarchy.tsv", "network.tsv", "provenance.tsv"]
                for name, digest in outputs.items():
                    assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest(), (size, k, method, name)


def test_byte_order_mark_is_not_part_of_a_name(tmp_path, monkeypatch):
    plain_g, plain_h = write_pair(tmp_path)
    bom_g, bom_h = tmp_path / "bom_graph.tsv", tmp_path / "bom_tree.tsv"
    bom_g.write_bytes(b"\xef\xbb\xbf" + FOUR_GRAPH.encode())
    bom_h.write_bytes(b"\xef\xbb\xbf" + FOUR_TREE.encode())
    manifests = []
    for name, gp, hp in (("plain", plain_g, plain_h), ("bom", str(bom_g), str(bom_h))):
        out = tmp_path / name
        assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "inherit", "--out", str(out)]) == 0
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert (tmp_path / "bom" / "network.tsv").read_bytes() == (tmp_path / "plain" / "network.tsv").read_bytes()
    for key in ("graph", "hierarchy"):
        assert manifests[0]["inputs"][key]["sha256"] == manifests[1]["inputs"][key]["sha256"]
    assert manifests[0]["inputs"]["graph"]["sha256"] == hashlib.sha256(FOUR_GRAPH.encode()).hexdigest()
    # With a BOM, CRLF line ends and a non-ASCII name at once, each digest is
    # of the parsed text, from the built-in SHA-256 and from hashlib's alike.
    # Without the built-in one, hashlib hashes the two inputs and starts a
    # hash for each of the four files written.
    texts = {"graph": FOUR_GRAPH.replace("a1", "ä1"), "hierarchy": FOUR_TREE.replace("a1", "ä1")}
    paths = {key: tmp_path / f"mixed_{key}.tsv" for key in texts}
    for key, text in texts.items():
        paths[key].write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
    calls, sha256 = [], hashlib.sha256
    builtin = any(importlib.util.find_spec(module) for module in ("_sha2", "_sha256"))

    def spy(data):
        calls.append(data)
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", spy)
    outs = []
    for route in ("built-in", "hashlib"):
        out = tmp_path / route
        calls.clear()
        with monkeypatch.context() as patch:
            if route == "hashlib":
                for module in ("_sha2", "_sha256"):
                    patch.setitem(sys.modules, module, None)
            assert main(["convert", "--graph", str(paths["graph"]), "--hierarchy", str(paths["hierarchy"]),
                         "--method", "inherit", "--out", str(out)]) == 0
        assert len(calls) == (0 if route == "built-in" and builtin else 6)
        manifest = json.loads((out / "manifest.json").read_text())
        for key, text in texts.items():
            assert manifest["inputs"][key]["sha256"] == sha256(text.encode()).hexdigest()
        outs.append(out)
    assert (outs[0] / "manifest.json").read_bytes() == (outs[1] / "manifest.json").read_bytes()


def test_crlf_line_ends_read_as_lf(tmp_path):
    plain_g, plain_h = write_pair(tmp_path)
    crlf_g, crlf_h = tmp_path / "crlf_graph.tsv", tmp_path / "crlf_tree.tsv"
    crlf_g.write_bytes(FOUR_GRAPH.replace("\n", "\r\n").encode())
    crlf_h.write_bytes(FOUR_TREE.replace("\n", "\r").encode())
    for name, gp, hp in (("plain", plain_g, plain_h), ("crlf", str(crlf_g), str(crlf_h))):
        assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "inherit", "--out", str(tmp_path / name)]) == 0
    for name in ("network.tsv", "hierarchy.tsv", "provenance.tsv"):
        assert (tmp_path / "crlf" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("bad", ["graph", "hierarchy"])
def test_non_utf8_input_exits_2(tmp_path, capsys, bad):
    gp, hp = write_pair(tmp_path)
    target = Path(gp if bad == "graph" else hp)
    target.write_bytes(b"\xef\xbb\xbf" + target.read_bytes() + b"\xff\xfe\n")
    offset = 3 + len((FOUR_GRAPH if bad == "graph" else FOUR_TREE).encode())
    out = tmp_path / "o"
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "inherit", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot read {target}: not UTF-8 at byte {offset} (invalid start byte)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["convert", "metrics"])
@pytest.mark.parametrize("case", ["existing file", "under a file", "output is a directory"])
def test_uncreatable_output_exits_2(tmp_path, capsys, command, case):
    gp, hp = write_pair(tmp_path)
    (tmp_path / "file").write_text("")
    out = {"existing file": tmp_path / "file", "under a file": tmp_path / "file" / "o",
           "output is a directory": tmp_path / "o"}[case]
    (tmp_path / "o" / "metrics.json").mkdir(parents=True)
    (tmp_path / "o" / "network.tsv").mkdir()
    argv = ["--method", "inherit"] if command == "convert" else []
    assert main([command, "--graph", gp, "--hierarchy", hp, *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    expected = "cannot write" if case == "output is a directory" else "cannot create output directory"
    assert err.startswith(f"error: {expected} {out}") and err.count("\n") == 1


def _python(*args, **env):
    """Run the interpreter on the sources, with ``env`` over this process's
    environment; a variable given as None is unset."""
    env = {k: v for k, v in {**os.environ, "PYTHONPATH": SRC, **env}.items() if v is not None}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("module", ["unires", "unires.cli"])
def test_python_dash_m_runs_the_cli(module):
    done = _python("-m", module, "--version")
    assert done.returncode == 0
    assert done.stdout.strip() == "unires 0.2.0"
    done = _python("-m", module, "convert")
    assert done.returncode == 2
    assert "required" in done.stderr


def test_kron_convert_and_resistance_load_no_scipy(tmp_path):
    gp, hp = write_pair(tmp_path, RICH_GRAPH, RICH_TREE)
    script = (
        "import sys; from unires.cli import main\n"
        "codes = [main(['convert', '--graph', sys.argv[1], '--hierarchy', sys.argv[2], '--method', 'kron',"
        " '--out', sys.argv[3]]), main(['resistance', '--graph', sys.argv[1]])]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = _python("-c", script, gp, hp, str(tmp_path / "kron"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0] []"
    assert (tmp_path / "kron" / "network.tsv").read_text()


def test_no_command_loads_openssl(tmp_path):
    # hashlib maps OpenSSL (its _hashlib module and libcrypto), some MB of
    # resident memory; convert takes its manifest digests without it.
    gp, hp = write_pair(tmp_path, RICH_GRAPH, RICH_TREE)
    script = (
        "import os, sys; from unires.cli import main\n"
        "g, h, out = sys.argv[1:]\n"
        "codes = [main([c, '--graph', g, '--hierarchy', h, '--out', out + '/' + c])"
        " for c in ('metrics', 'centrality', 'degree-fit', 'spyplot')]\n"
        "codes += [main(['convert', '--graph', g, '--hierarchy', h, '--method', m, '--out', out + '/' + m])"
        " for m in ('inherit', 'disinherit', 'kron')]\n"
        "codes.append(main(['resistance', '--graph', g]))\n"
        "maps = open('/proc/self/maps').read() if os.path.exists('/proc/self/maps') else ''\n"
        "print(codes, '_hashlib' in sys.modules, 'libcrypto' in maps)\n"
    )
    done = _python("-c", script, gp, hp, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0, 0] False False"
    for method in ("inherit", "disinherit", "kron"):
        manifest = json.loads((tmp_path / method / "manifest.json").read_text())
        for key, path in (("graph", gp), ("hierarchy", hp)):
            assert manifest["inputs"][key]["sha256"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_metrics_command(tmp_path):
    gp = tmp_path / "g.tsv"
    gp.write_text("a\tb\nb\tc\nc\ta\n")
    out = tmp_path / "m"
    assert main(["metrics", "--graph", str(gp), "--out", str(out)]) == 0
    report = json.loads((out / "metrics.json").read_text())
    assert report["reciprocity"] == 0.0
    assert report["diameter"] == 2
    assert report["edge_count"] == 3
    text = (out / "metrics.txt").read_text()
    assert "reciprocity" in text and "diameter" in text


def test_metrics_single_edge(tmp_path):
    gp = tmp_path / "g.tsv"
    gp.write_text("a\tb\n")
    out = tmp_path / "m"
    assert main(["metrics", "--graph", str(gp), "--out", str(out)]) == 0
    report = json.loads((out / "metrics.json").read_text())
    assert report["characteristic_path_length"] == 1.0
    assert report["diameter"] == 1


def test_hash_name_fails_with_its_line_instead_of_vanishing_from_the_output(tmp_path, capsys):
    # Accepted, "#b" would lead two lines of network.tsv, which every
    # later parse would skip as comments.
    gp, hp = write_pair(tmp_path, "P\tQ\n", "R\tP\nR\tQ\nP\t#b\nP\tc\nQ\tq\nQ\tr\n")
    argv = ["convert", "--graph", gp, "--hierarchy", hp, "--method", "inherit", "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: line 3: invalid vertex name '#b'\n"
    gp, _ = write_pair(tmp_path, "P\tQ\nQ\t#b\n")
    assert main(["metrics", "--graph", gp, "--out", str(tmp_path / "m")]) == 2
    assert capsys.readouterr().err == "error: line 2: invalid vertex name '#b'\n"


def test_metrics_edgeless_graph_fails(tmp_path):
    gp = tmp_path / "g.tsv"
    gp.write_text("# no edges\n")
    assert main(["metrics", "--graph", str(gp), "--out", str(tmp_path / "m")]) == 2


def test_metrics_with_hierarchy_universe(tmp_path):
    gp, hp = write_pair(tmp_path)
    out = tmp_path / "m"
    assert main(["metrics", "--graph", gp, "--hierarchy", hp, "--out", str(out)]) == 0
    report = json.loads((out / "metrics.json").read_text())
    assert report["vertex_count"] == 5
    assert report["active_vertex_count"] == 4


def test_centrality_command(tmp_path):
    gp = tmp_path / "g.tsv"
    gp.write_text("s\tl1\ns\tl2\ns\tl3\n")
    out = tmp_path / "c"
    assert main(["centrality", "--graph", str(gp), "--top-k", "2", "--out", str(out)]) == 0
    top = (out / "top_k.csv").read_text().splitlines()
    assert top[0] == "metric,rank,vertex,score"
    assert any(line.startswith("out_degree,1,s,") for line in top)
    assert any(line.startswith("hub,1,s,") for line in top)
    full = (out / "centrality.csv").read_text().splitlines()
    assert full[0].startswith("vertex,in_degree,out_degree")
    assert len(full) == 5


def test_csv_rows_keep_names_with_commas_and_quotes_in_one_field(tmp_path):
    gp = tmp_path / "g.tsv"
    gp.write_text('a,b\tc\t1\nc\td"x\t2\n')
    out = tmp_path / "c"
    assert main(["centrality", "--graph", str(gp), "--out", str(out)]) == 0
    with open(out / "centrality.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [9] * 4
    assert [row[0] for row in rows[1:]] == ["a,b", "c", 'd"x']
    assert rows[1][1] == "0.0"  # in_degree of 'a,b'
    with open(out / "top_k.csv", newline="", encoding="utf-8") as fh:
        top = list(csv.reader(fh))
    assert {len(row) for row in top} == {4}
    assert {row[2] for row in top[1:]} == {"a,b", "c", 'd"x'}


def test_centrality_path_count_overflow_exits_3(tmp_path, capsys):
    # 54 diamonds in series: 2**54 shortest paths from the first junction to the last.
    lines = [f"j{i}\t{s}{i}\n{s}{i}\tj{i + 1}\n" for i in range(54) for s in "ab"]
    gp = tmp_path / "g.tsv"
    gp.write_text("".join(lines))
    assert main(["centrality", "--graph", str(gp), "--out", str(tmp_path / "c")]) == 3
    assert "2**53" in capsys.readouterr().err
    assert main(["metrics", "--graph", str(gp), "--out", str(tmp_path / "m")]) == 0


def test_centrality_rejects_k_zero(tmp_path):
    gp = tmp_path / "g.tsv"
    gp.write_text("a\tb\n")
    with pytest.raises(SystemExit) as exc:
        main(["centrality", "--graph", str(gp), "--top-k", "0", "--out", str(tmp_path / "c")])
    assert exc.value.code == 2


def test_spyplot_inherit_output_in_leaf_block(tmp_path):
    gp, hp = write_pair(tmp_path)
    conv = tmp_path / "conv"
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "inherit", "--out", str(conv)]) == 0
    out = tmp_path / "spy"
    assert main(["spyplot", "--graph", str(conv / "network.tsv"), "--hierarchy", str(conv / "hierarchy.tsv"), "--out", str(out)]) == 0
    ordering = (out / "ordering.txt").read_text().splitlines()
    assert ordering == ["Br", "A", "a1", "a2", "B"]
    n_internal = 2
    for line in (out / "spy.tsv").read_text().splitlines():
        row, col = map(int, line.split("\t"))
        assert row >= n_internal and col >= n_internal


def test_spyplot_empty_graph(tmp_path):
    gp = tmp_path / "g.tsv"
    gp.write_text("")
    hp = tmp_path / "t.tsv"
    hp.write_text(FOUR_TREE)
    out = tmp_path / "spy"
    assert main(["spyplot", "--graph", str(gp), "--hierarchy", hp.as_posix(), "--out", str(out)]) == 0
    assert (out / "spy.tsv").read_text() == ""
    assert len((out / "ordering.txt").read_text().splitlines()) == 5


def test_convert_edgeless_graph_writes_empty_edge_files(tmp_path):
    gp, hp = write_pair(tmp_path, "# no edges\n")
    for method in ("inherit", "disinherit", "kron"):
        out = tmp_path / method
        assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", method, "--out", str(out)]) == 0
        assert (out / "network.tsv").read_text() == (out / "provenance.tsv").read_text() == ""


def test_degree_fit_command(tmp_path):
    gp = tmp_path / "g.tsv"
    gp.write_text(RICH_GRAPH)
    out = tmp_path / "fit"
    assert main(["degree-fit", "--graph", str(gp), "--out", str(out)]) == 0
    summary = json.loads((out / "fit.json").read_text())
    assert summary["lambda"] > 0
    rows = (out / "ccdf.csv").read_text().splitlines()
    assert rows[0] == "degree,ccdf_empirical,ccdf_fitted"
    empirical = [float(r.split(",")[1]) for r in rows[1:]]
    assert empirical == sorted(empirical, reverse=True)


@pytest.mark.parametrize("command", ["metrics", "centrality", "degree-fit"])
def test_edgeless_graph_exits_2_for_every_analysis(tmp_path, capsys, command):
    gp, hp = write_pair(tmp_path, "# no edges\n")
    assert main([command, "--graph", gp, "--out", str(tmp_path / "a")]) == 2
    assert main([command, "--graph", gp, "--hierarchy", hp, "--out", str(tmp_path / "b")]) == 2
    assert "at least one edge" in capsys.readouterr().err


def test_degree_fit_degenerate_exits_3(tmp_path):
    gp = tmp_path / "g.tsv"
    gp.write_text("a\tb\nb\tc\nc\ta\n")
    assert main(["degree-fit", "--graph", str(gp), "--out", str(tmp_path / "fit")]) == 3


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_resistance_into_a_closed_pipe_exits_2(tmp_path, unbuffered):
    """``unires resistance ... | head -1``: the reader leaves after one line
    of an output far larger than a 64 KiB pipe buffer.  Unbuffered, the raw
    file takes part of a write and must be given the rest."""
    gp = tmp_path / "g.tsv"
    labels = names(150)
    gp.write_text("".join(f"{u}\t{v}\n" for i, u in enumerate(labels) for v in labels[i + 1:]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    done = subprocess.Popen([sys.executable, "-m", "unires", "resistance", "--graph", str(gp)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**env, "PYTHONPATH": SRC})
    try:
        assert done.stdout.readline().startswith(b"n000\tn001\t")
        done.stdout.close()
        stderr = done.stderr.read().decode()
        assert done.wait(timeout=120) == 2
    finally:
        done.kill()
        done.wait()
        done.stderr.close()
    # One line: no traceback, and no "Exception ignored" from the final flush.
    assert stderr.startswith("error: cannot write standard output") and stderr.count("\n") == 1


def test_resistance_debug_output(tmp_path, capsys):
    gp = tmp_path / "g.tsv"
    gp.write_text("a\tb\nb\tc\n")
    assert main(["resistance", "--graph", str(gp)]) == 0
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [line[:2] for line in lines] == [["a", "b"], ["b", "c"]]
    for line in lines:
        assert float(line[2]) == pytest.approx(1.0, rel=1e-9)


SPECTRAL_TREE = "R\tA\nR\tB\nA\ta1\nA\ta2\nB\tb1\nB\tb2\n"


def test_non_finite_linear_algebra_exits_3(tmp_path, capsys):
    # Positive subnormal weights parse, but the grounded inverse of the
    # first graph and the Schur complement of the path a1-A-{b1, c1} (A
    # eliminated) overflow.  The edge a1-b1 makes kron read that complement.
    tiny = "a1\ta2\t1e-310\nA\tB\t1e-310\nb1\tb2\t1e-310\na2\tb1\t1e-310\n"
    for graph, tree in ((tiny, SPECTRAL_TREE), (SUBNORMAL_PATH + "a1\tb1\t1e-310\n", SUBNORMAL_PATH_TREE)):
        gp, hp = write_pair(tmp_path, graph, tree)
        assert main(["resistance", "--graph", gp]) == 3
        out = tmp_path / "o"
        assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "kron", "--out", str(out)]) == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("finite") == 2


# A 201-vertex path v000-...-v200 under A (v000-v100) and B (the rest), so
# that its grounded block recurses, and an edge A-B that makes kron read
# resistances on the path.
LONG_PATH = [f"v{i:03d}" for i in range(201)]
LONG_PATH_TREE = "".join(["R\tA\nR\tB\n"] + [f"{'A' if i <= 100 else 'B'}\t{v}\n" for i, v in enumerate(LONG_PATH)])
LONG_PATH_GRAPHS = {
    # Subnormal weights: the inverse overflows.
    "subnormal": "".join(f"{u}\t{v}\t1e-310\n" for u, v in zip(LONG_PATH, LONG_PATH[1:])) + "A\tB\t1e-310\n",
    # v001's only other edge goes to the ground v000, so its diagonal and
    # v002's round to 1e150, and the rows of v001 and v002 in the first
    # 50-row base block are exactly [1e150, -1e150] and its negation.
    "singular": "".join(["v000\tv001\t1e-150\nv001\tv002\t1e150\nv002\tv200\t1e-150\nA\tB\t1\n"]
                        + [f"{u}\t{v}\t1\n" for u, v in zip(LONG_PATH[3:], LONG_PATH[4:])]),
}


@pytest.mark.parametrize("case", sorted(LONG_PATH_GRAPHS))
def test_positive_definite_block_lost_to_rounding_exits_3(tmp_path, capsys, case):
    gp, hp = write_pair(tmp_path, LONG_PATH_GRAPHS[case], LONG_PATH_TREE)
    out = tmp_path / "o"
    for argv in (["resistance", "--graph", gp],
                 ["convert", "--graph", gp, "--hierarchy", hp, "--method", "kron", "--out", str(out)]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("numerical error: ") and captured.err.count("\n") == 1
        if case == "singular":
            assert "singular positive-definite block in component ['v000', 'v001', 'v002']" in captured.err
    assert not out.exists()


def test_kron_converts_an_eliminated_block_whose_inverse_has_no_factor(tmp_path):
    # x0 and x1 are eliminated: their diagonals 3e19 + 1 and 3e19 + 2 round
    # to 3e19, so their block is exactly singular as rounded, where the
    # input's is positive definite.  LU's last pivot comes out as rounding
    # noise, and the inverse through it has no Cholesky factor, so the
    # symmetric product cannot be formed; the complement is taken as two
    # products instead, and the run converts.
    graph = "x0\tx1\t3e19\na\tx0\t1\nx1\tb\t2\na\tb\t1\n"
    gp, hp = write_pair(tmp_path, graph, "R\ta\nR\tb\nR\tx0\nR\tx1\nx0\tc0\nx1\tc1\n")
    out = tmp_path / "o"
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "kron", "--out", str(out)]) == 0
    assert (out / "network.tsv").read_text() == "a\tb\t1.0\na\tc0\t1.0\nc0\tc1\t1.0\nc1\tb\t1.0\n"


SUBNORMAL_PATH = "a1\tA\t1e-310\nA\tb1\t1e-310\nA\tc1\t1e-310\n"
SUBNORMAL_PATH_TREE = "R\tA\nA\tx\nR\ta1\nR\tb1\nR\tc1\n"


def test_kron_factorizes_no_component_that_no_leaf_pair_reads(tmp_path):
    # Every candidate pair of the path a1-A-{b1, c1} runs through x, the
    # only leaf under A, which carries no edge: no resistance is read, so
    # the overflowing Schur complement is never formed, and every edge falls
    # back to its count.
    gp, hp = write_pair(tmp_path, SUBNORMAL_PATH, SUBNORMAL_PATH_TREE)
    out = tmp_path / "o"
    assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "kron", "--out", str(out)]) == 0
    assert (out / "network.tsv").read_text() == "a1\tx\t1.0\nx\tb1\t1.0\nx\tc1\t1.0\n"


def test_symmetrized_weight_overflow_exits_2(tmp_path, capsys):
    # w(a1, a2) + w(a2, a1), and the Laplacian diagonal sum at a2.
    for graph in ("a1\ta2\t1e308\na2\ta1\t1e308\n", "a1\ta2\t1e308\na2\tb1\t1e308\n"):
        gp, hp = write_pair(tmp_path, graph, SPECTRAL_TREE)
        assert main(["resistance", "--graph", gp]) == 2
        out = tmp_path / "o"
        assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", "kron", "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("overflows float64") == 2


def test_format_closure_end_to_end(tmp_path):
    gp, hp = write_pair(tmp_path, RICH_GRAPH, RICH_TREE)
    for method in ("inherit", "disinherit", "kron"):
        conv = tmp_path / method
        assert main(["convert", "--graph", gp, "--hierarchy", hp, "--method", method, "--out", str(conv)]) == 0
        network = str(conv / "network.tsv")
        tree = str(conv / "hierarchy.tsv")
        assert main(["metrics", "--graph", network, "--hierarchy", tree, "--out", str(conv / "m")]) == 0
        assert main(["centrality", "--graph", network, "--out", str(conv / "c")]) == 0
        assert main(["spyplot", "--graph", network, "--hierarchy", tree, "--out", str(conv / "s")]) == 0
        # Conversions of conversions parse cleanly too.
        assert main(["convert", "--graph", network, "--hierarchy", tree, "--method", method, "--out", str(conv / "again")]) == 0


def test_analysis_never_builds_the_name_keyed_weights(tmp_path, monkeypatch):
    g = load_graph(RICH_GRAPH)
    metrics_report(g)
    centrality_suite(g)
    degree_fit(g)
    assert "weights" not in g.__dict__
    loaded = []
    load_pair = unires.cli._load_pair
    monkeypatch.setattr(unires.cli, "_load_pair", lambda *texts: loaded.append(load_pair(*texts)) or loaded[-1])
    gp, hp = write_pair(tmp_path, RICH_GRAPH, RICH_TREE)
    assert main(["spyplot", "--graph", gp, "--hierarchy", hp, "--out", str(tmp_path / "spy")]) == 0
    graph, tree = loaded[0]
    assert "weights" not in graph.__dict__
    for convert in (inherit, disinherit, kron_sampling):
        assert "weights" not in convert(graph, tree).network.__dict__
    assert "weights" not in graph.__dict__
