import functools
import math
import random

import numpy as np
import pytest

import unires.metrics
from unires.graph import DomainError, load_graph
from unires.metrics import (
    DegenerateFitError,
    NumericalError,
    centrality_suite,
    degree_fit,
    metrics_report,
    top_k,
)
from unires.resolution import inherit

from oracles import (
    active_vertices,
    betweenness_paths,
    brandes_betweenness,
    floyd_warshall,
    from_edges,
    hits_dense,
    pagerank_dense,
    path_sums,
    with_vertices,
)
from conftest import branching_hierarchy, names, random_digraph, random_graph_on

CYCLE3 = "a\tb\nb\tc\nc\ta\n"
COMPLETE3 = "a\tb\nb\ta\nb\tc\nc\tb\na\tc\nc\ta\n"
STAR = "s\tl1\ns\tl2\ns\tl3\n"


def oracle_summary(g):
    dist = floyd_warshall(g)
    finite = list(dist.values())
    n_active = len(active_vertices(g))
    m = g.edge_count
    return {
        "density": m / (n_active * (n_active - 1)),
        "reciprocity": sum(1 for (u, v) in g.weights if (v, u) in g.weights) / m,
        "diameter": max(finite),
        "characteristic_path_length": sum(finite) / len(finite),
    }


def test_metrics_directed_cycle():
    report = metrics_report(load_graph(CYCLE3))
    assert report.density == 0.5
    assert report.reciprocity == 0.0
    assert report.diameter == 2
    assert report.characteristic_path_length == 1.5
    assert report.mean_clustering_directed == pytest.approx(0.5)


def test_metrics_complete_digraph():
    report = metrics_report(load_graph(COMPLETE3))
    assert report.density == 1.0
    assert report.reciprocity == 1.0
    assert report.diameter == 1
    assert report.characteristic_path_length == 1.0
    assert report.mean_clustering_directed == pytest.approx(1.0)


def test_metrics_single_edge():
    report = metrics_report(load_graph("a\tb\n"))
    assert report.characteristic_path_length == 1.0
    assert report.diameter == 1
    assert report.mean_clustering_directed == 0.0


def test_mean_clustering_matches_networkx_bit_for_bit():
    # Fagiolo's directed clustering, per vertex from networkx, averaged by
    # numpy over the vertices whose normalizer is positive, in name order.
    nx = pytest.importorskip("networkx")
    rng = random.Random(269)
    checked = 0
    for p in (0.02, 0.05, 0.1, 0.3, 0.5, 0.7):
        for _ in range(6):
            g = random_digraph(rng, rng.randrange(3, 81), p)
            if g.edge_count == 0:
                continue
            theirs = nx.DiGraph()
            theirs.add_nodes_from(g.vertices)
            theirs.add_edges_from(g.weights)
            per_vertex = nx.clustering(theirs)
            d_tot = {v: theirs.in_degree(v) + theirs.out_degree(v) for v in g.vertices}
            d_bi = {v: sum(theirs.has_edge(u, v) for u in theirs.successors(v)) for v in g.vertices}
            values = np.array([per_vertex[v] for v in g.vertices if d_tot[v] * (d_tot[v] - 1) - 2 * d_bi[v] > 0])
            expected = values.mean() if len(values) else 0.0
            assert metrics_report(g).mean_clustering_directed == expected, (p, len(g.vertices))
            checked += 1
    assert checked >= 30


def test_metrics_edgeless_rejected():
    with pytest.raises(DomainError):
        metrics_report(from_edges({}, vertices=["a", "b"]))


def test_metrics_universe_vs_active_density():
    g = with_vertices(load_graph("a\tb\n"), ["ghost"])
    report = metrics_report(g)
    assert report.vertex_count == 3
    assert report.active_vertex_count == 2
    assert report.density == 0.5
    assert report.density_all_vertices == pytest.approx(1 / 6)


def test_metrics_match_floyd_warshall_oracle():
    rng = random.Random(211)
    for _ in range(60):
        g = random_digraph(rng, rng.randrange(2, 13), rng.uniform(0.1, 0.9))
        if g.edge_count == 0:
            continue
        expected = oracle_summary(g)
        report = metrics_report(g)
        assert report.density == expected["density"]
        assert report.reciprocity == expected["reciprocity"]
        assert report.diameter == expected["diameter"]
        assert report.characteristic_path_length == expected["characteristic_path_length"]
        assert report.diameter >= math.ceil(report.characteristic_path_length)


def test_reciprocity_driven_to_one():
    rng = random.Random(223)
    g = random_digraph(rng, 8, 0.3)
    if g.edge_count == 0:
        g = load_graph("a\tb\n")
    doubled = dict(g.weights)
    for u, v in g.weights:
        doubled.setdefault((v, u), 1.0)
    assert metrics_report(from_edges(doubled)).reciprocity == 1.0


def test_betweenness_path():
    table = centrality_suite(load_graph("a\tb\nb\tc\n"))
    assert table.scores["betweenness"] == {"a": 0.0, "b": 1.0, "c": 0.0}


def test_betweenness_matches_path_enumeration():
    rng = random.Random(227)
    for _ in range(30):
        g = random_digraph(rng, rng.randrange(2, 10), rng.uniform(0.15, 0.7))
        if g.edge_count == 0:
            continue
        table = centrality_suite(g)
        expected = betweenness_paths(g)
        for v in g.vertices:
            assert table.scores["betweenness"][v] == pytest.approx(float(expected[v]), abs=1e-12)


def _dag(rng, n, p):
    labels = names(n)
    return from_edges(
        {(u, v): 1.0 for i, u in enumerate(labels) for v in labels[i + 1:] if rng.random() < p},
        vertices=labels,
    )


def _disconnected(rng):
    left = random_digraph(rng, rng.randrange(3, 15), 0.4)
    right = random_digraph(rng, rng.randrange(3, 15), 0.3)
    renamed = {(f"r{u}", f"r{v}"): w for (u, v), w in right.weights.items()}
    return from_edges({**left.weights, **renamed}, vertices=left.vertices)


def _inherit_output(rng):
    t = branching_hierarchy(rng, names(60))
    return inherit(random_graph_on(rng, t, edge_budget=120), t).network


def _shuffled(rng):
    """Edges inserted in random order: the kernel must still read each
    vertex's out-neighbours in name order."""
    items = list(random_digraph(rng, rng.randrange(10, 30), 0.3).weights.items())
    rng.shuffle(items)
    return from_edges(dict(items))


def _funnel(rng):
    """A dense graph behind a stem ``stem0 -> stem1 -> stem2``: a level of
    one vertex whose dependency sums the terms of a whole level."""
    g = random_digraph(rng, rng.randrange(40, 80), 0.5)
    weights = {**g.weights, ("stem0", "stem1"): 1.0, ("stem1", "stem2"): 1.0}
    weights.update({("stem2", v): 1.0 for v in g.vertices[::2]})
    return from_edges(weights)


PATH_CASES = {
    "dense": lambda rng: random_digraph(rng, rng.randrange(10, 30), 0.8),
    "sparse": lambda rng: random_digraph(rng, rng.randrange(10, 50), 0.07),
    "dag": lambda rng: _dag(rng, rng.randrange(5, 30), 0.3),
    "disconnected": _disconnected,
    "isolated": lambda rng: with_vertices(random_digraph(rng, 12, 0.3), names(8, "iso")),
    "inherit-output": _inherit_output,
    "shuffled": _shuffled,
    # More than 64 sources: the traversal's bit sets span several words.
    "wide": lambda rng: random_digraph(rng, rng.randrange(65, 160), 0.03),
    # The same past the dense rule, where most vertices sum 9 or more
    # dependency terms, enough for pairwise summation to change bits.
    "dense-wide": lambda rng: random_digraph(rng, rng.randrange(65, 160), 0.5),
    "funnel": _funnel,
}


@functools.cache
def path_case(seed, case):
    """Six graphs of one case with edges, and the queue loops' results on them."""
    rng = random.Random(300 + seed)
    graphs = [PATH_CASES[case](rng) for _ in range(6)]
    return [(g, brandes_betweenness(g), path_sums(g)) for g in graphs if g.edge_count]


def force_kernel(monkeypatch, kernel):
    """Send every graph to the dense Brandes kernel, or none."""
    monkeypatch.setattr(unires.metrics, "DENSE_DENSITY", {"dense": 0.0, "sparse": math.inf}[kernel])


@pytest.mark.parametrize("seed, case, tiny_budgets, kernel", [
    pytest.param(seed, case, tiny, kernel,
                 id=f"{seed}-{case}" + ("-tiny-budgets" if tiny else "") + (f"-{kernel}-kernel" if kernel else ""))
    for kernel in (None, "dense", "sparse") for tiny in (False, True) for seed, case in enumerate(PATH_CASES)
])
def test_path_metrics_equal_queue_reference_exactly(seed, case, tiny_budgets, kernel, monkeypatch):
    if tiny_budgets:  # one word per traversal chunk, one source per Brandes batch
        monkeypatch.setattr(unires.metrics, "GATHER_WORDS", 1)
        monkeypatch.setattr(unires.metrics, "BATCH_ARCS", 1)
    if kernel:
        force_kernel(monkeypatch, kernel)
    for g, betweenness, ref in path_case(seed, case):
        n_active = len(active_vertices(g))
        table = centrality_suite(g)
        assert table.scores["betweenness"] == betweenness
        for side in ("in", "out"):
            reach, sums = ref[f"reach_{side}"], ref[f"sum_{side}"]
            expected = [r * r / ((n_active - 1) * s) if s else 0.0 for r, s in zip(reach, sums)]
            assert table.scores[f"{side}_closeness"] == dict(zip(g.vertices, expected))
        report = metrics_report(g)
        assert report.diameter == ref["diameter"]
        assert report.characteristic_path_length == ref["characteristic_path_length"]


def test_dense_rule_counts_active_vertices(monkeypatch):
    # Edge-free vertices, between and after the active ones in name order,
    # leave the dense kernel's choice and every active score as they were.
    g = random_digraph(random.Random(269), 30, 0.8)
    padded = with_vertices(g, [*g.vertices, *(v + "x" for v in g.vertices), *names(10, "z")])
    n = len(padded.vertices)
    assert len(active_vertices(g)) == len(g.vertices) and 4 * g.edge_count >= len(g.vertices) ** 2
    assert 4 * padded.edge_count < n * n  # dense on the active vertices only
    calls = []
    dense = unires.metrics._dependencies_dense
    monkeypatch.setattr(unires.metrics, "_dependencies_dense", lambda *args: calls.append(args) or dense(*args))
    ours = centrality_suite(padded).scores["betweenness"]
    assert len(calls) == len(g.vertices)
    assert all(at.shape == (len(g.vertices),) * 2 for at, _, _ in calls)
    unpadded = centrality_suite(g).scores["betweenness"]
    assert {v: ours[v] for v in g.vertices} == unpadded
    assert all(ours[v] == 0.0 for v in padded.vertices if v not in unpadded)


def test_betweenness_and_closeness_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(263)
    graphs = [random_digraph(rng, rng.randrange(5, 40), rng.uniform(0.05, 0.6)) for _ in range(12)]
    dense = random_digraph(rng, 120, 0.4)
    assert 4 * dense.edge_count >= len(dense.vertices) ** 2  # on the dense Brandes kernel
    for g in graphs + [dense]:
        if g.edge_count == 0:
            continue
        theirs = nx.DiGraph(list(g.weights))  # active vertices only, as closeness counts them
        table = centrality_suite(g).scores
        expected = {
            "betweenness": nx.betweenness_centrality(theirs, normalized=False),
            "in_closeness": nx.closeness_centrality(theirs),
            "out_closeness": nx.closeness_centrality(theirs.reverse()),
        }
        for metric, values in expected.items():
            for v in g.vertices:
                assert math.isclose(table[metric][v], values.get(v, 0.0), rel_tol=1e-12), (metric, v)


def diamond_chain(k):
    """``k`` diamonds in series: 3k + 1 vertices, 2**k shortest paths end to end."""
    weights = {}
    for i in range(k):
        for side in "ab":
            weights[(f"j{i:02d}", f"{side}{i:02d}")] = 1.0
            weights[(f"{side}{i:02d}", f"j{i + 1:02d}")] = 1.0
    return from_edges(weights)


def test_path_counts_just_below_limit_stay_exact():
    g = diamond_chain(52)
    assert centrality_suite(g).scores["betweenness"] == brandes_betweenness(g)


@pytest.mark.parametrize("k, kernel", [
    pytest.param(k, kernel, id=f"{k}" + (f"-{kernel}-kernel" if kernel else ""))
    for kernel in (None, "dense") for k in (53, 54)
])
def test_path_count_limit_raises(k, kernel, monkeypatch):
    if kernel:
        force_kernel(monkeypatch, kernel)
    g = diamond_chain(k)
    assert len(g.vertices) == 3 * k + 1
    with pytest.raises(NumericalError, match=r"2\*\*53"):
        centrality_suite(g)
    assert metrics_report(g).diameter == 2 * k  # path lengths need no path counts


def chain_and_triangle():
    weights = dict(diamond_chain(53).weights)
    weights.update({("x0", "x1"): 1.0, ("x1", "x2"): 1.0, ("x2", "x0"): 1.0})
    return from_edges(weights)


def test_path_count_limit_raises_inside_a_batch():
    """The overflowing source shares its Brandes batch with the sources of
    a small extra component."""
    g = chain_and_triangle()
    assert unires.metrics.BATCH_ARCS // g.edge_count >= len(g.vertices)  # every source in one batch
    with pytest.raises(NumericalError, match=r"2\*\*53"):
        centrality_suite(g)
    assert metrics_report(g).diameter == 106


def test_path_count_limit_raises_inside_a_batch_on_the_dense_kernel(monkeypatch):
    """The same graph with every source on the dense kernel."""
    force_kernel(monkeypatch, "dense")
    with pytest.raises(NumericalError, match=r"2\*\*53"):
        centrality_suite(chain_and_triangle())


def test_path_metrics_need_no_numpy_2_api(monkeypatch):
    """``pyproject.toml`` allows numpy 1.24, which has no ``bitwise_count``."""
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    g = PATH_CASES["wide"](random.Random(7))
    assert metrics_report(g).diameter > 0
    assert sum(centrality_suite(g).scores["betweenness"].values()) > 0


def test_closeness_matches_distance_oracle():
    rng = random.Random(229)
    for _ in range(30):
        g = random_digraph(rng, rng.randrange(2, 12), rng.uniform(0.15, 0.8))
        if g.edge_count == 0:
            continue
        dist = floyd_warshall(g)
        n_active = len(active_vertices(g))
        table = centrality_suite(g)
        for v in g.vertices:
            r = sum(1 for (a, b) in dist if b == v)
            s = sum(d for (a, b), d in dist.items() if b == v)
            expected = r * r / ((n_active - 1) * s) if s else 0.0
            assert table.scores["in_closeness"][v] == expected
            r = sum(1 for (a, b) in dist if a == v)
            s = sum(d for (a, b), d in dist.items() if a == v)
            expected = r * r / ((n_active - 1) * s) if s else 0.0
            assert table.scores["out_closeness"][v] == expected


def test_cycle_symmetry_ties_every_metric():
    table = centrality_suite(load_graph(CYCLE3))
    for metric, scores in table.scores.items():
        values = list(scores.values())
        assert max(values) - min(values) < 1e-12, metric


def test_star_hub_and_authority_structure():
    table = centrality_suite(load_graph(STAR))
    assert table.scores["out_degree"]["s"] == 3.0
    assert max(table.scores["hub"], key=table.scores["hub"].get) == "s"
    leaf_auth = [table.scores["authority"][f"l{i}"] for i in (1, 2, 3)]
    assert max(leaf_auth) - min(leaf_auth) < 1e-12
    assert table.scores["authority"]["s"] < leaf_auth[0]


def test_pagerank_sums_to_one_and_hits_unit_norm():
    rng = random.Random(233)
    for _ in range(25):
        g = random_digraph(rng, rng.randrange(2, 15), rng.uniform(0.1, 0.8))
        if g.edge_count == 0:
            continue
        table = centrality_suite(g)
        assert sum(table.scores["pagerank"].values()) == pytest.approx(1.0, abs=1e-10)
        for metric in ("hub", "authority"):
            norm = math.sqrt(sum(x * x for x in table.scores[metric].values()))
            assert norm == pytest.approx(1.0, abs=1e-9)


def test_hits_and_pagerank_match_dense_oracle():
    rng = random.Random(251)
    graphs = [random_digraph(rng, rng.randrange(2, 60), rng.uniform(0.02, 0.6)) for _ in range(16)]
    dangling = _dag(rng, 40, 0.15)
    assert {v for _, v in dangling.weights} - {u for u, _ in dangling.weights}  # arcs in, none out
    isolated = with_vertices(random_digraph(rng, 30, 0.1), names(10, "iso"))
    assert len(active_vertices(isolated)) < len(isolated.vertices)
    dense = random_digraph(rng, 120, 0.4)
    assert 4 * dense.edge_count >= len(dense.vertices) ** 2
    for g in graphs + [dangling, isolated, dense]:
        if g.edge_count == 0:
            continue
        hub, authority = hits_dense(g)
        for damping in (0.85, 0.5):
            table = centrality_suite(g, pagerank_damping=damping).scores
            expected = {"hub": hub, "authority": authority, "pagerank": pagerank_dense(g, damping)}
            for metric, values in expected.items():
                for v in g.vertices:
                    assert math.isclose(table[metric][v], values[v], rel_tol=1e-12), (metric, v, damping)


def test_pagerank_invariant_under_weight_rescaling():
    rng = random.Random(239)
    g = random_digraph(rng, 10, 0.3)
    scaled = from_edges({e: 7.5 * w for e, w in g.weights.items()}, vertices=g.vertices)
    a = centrality_suite(g).scores["pagerank"]
    b = centrality_suite(scaled).scores["pagerank"]
    for v in g.vertices:
        assert a[v] == pytest.approx(b[v], abs=1e-9)
    assert max(a, key=a.get) == max(b, key=b.get)


def test_relabeling_permutes_centralities():
    rng = random.Random(241)
    g = random_digraph(rng, 9, 0.35)
    mapping = {v: f"z{ord(v[0])}{int(v[1:]) * 7 % 13:02d}x" for v in g.vertices}
    assert len(set(mapping.values())) == len(mapping)
    relabeled = from_edges(
        {(mapping[u], mapping[v]): w for (u, v), w in g.weights.items()},
        vertices=[mapping[v] for v in g.vertices],
    )
    ours = centrality_suite(g).scores
    theirs = centrality_suite(relabeled).scores
    for metric, scores in ours.items():
        for v, value in scores.items():
            assert theirs[metric][mapping[v]] == pytest.approx(value, abs=1e-9), metric


def test_top_k_star_and_ties():
    table = centrality_suite(load_graph(STAR))
    ranked = top_k(table, 1)
    assert ranked["out_degree"] == [(1, "s", 3.0)]
    ranked = top_k(centrality_suite(load_graph(CYCLE3)), 3)
    assert [name for _, name, _ in ranked["pagerank"]] == ["a", "b", "c"]


def test_top_k_truncates_and_validates():
    table = centrality_suite(load_graph(STAR))
    assert len(top_k(table, 99)["in_degree"]) == 4
    with pytest.raises(DomainError):
        top_k(table, 0)


def exponential_degree_graph(rng, n, lam):
    targets = [1 + round(rng.expovariate(lam)) for _ in range(n)]
    if sum(targets) % 2:
        targets[0] += 1
    stubs = []
    for i, d in enumerate(targets):
        stubs.extend([i] * d)
    rng.shuffle(stubs)
    labels = names(n, "d")
    weights = {}
    for a, b in zip(stubs[::2], stubs[1::2]):
        if a != b:
            weights[(labels[a], labels[b])] = 1.0
    return from_edges(weights, vertices=labels)


def test_degree_fit_recovers_synthetic_rate():
    rng = random.Random(251)
    g = exponential_degree_graph(rng, 5000, 0.5)
    fit = degree_fit(g)
    assert abs(fit.lam - 0.5) / 0.5 < 0.05


def test_degree_fit_ccdf_shape():
    g = load_graph("a\tb\na\tc\na\td\nb\tc\n")
    fit = degree_fit(g)
    assert fit.ccdf_points[0][1] == 1.0
    assert fit.ccdf_points[0][2] == 1.0
    empirical = [p[1] for p in fit.ccdf_points]
    fitted = [p[2] for p in fit.ccdf_points]
    assert empirical == sorted(empirical, reverse=True)
    assert fitted == sorted(fitted, reverse=True)
    assert fit.lam > 0


def test_degree_fit_edgeless_rejected():
    with pytest.raises(DomainError):
        degree_fit(from_edges({}, vertices=["a", "b"]))


def test_degree_fit_degenerate_cases():
    with pytest.raises(DegenerateFitError):
        degree_fit(load_graph("a\tb\n"))
    with pytest.raises(DegenerateFitError):
        degree_fit(load_graph(CYCLE3))


def test_centrality_edgeless_rejected():
    with pytest.raises(DomainError):
        centrality_suite(from_edges({}, vertices=["a"]))


def test_centrality_bad_damping():
    with pytest.raises(DomainError):
        centrality_suite(load_graph(CYCLE3), pagerank_damping=1.5)
