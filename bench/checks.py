"""Correctness checks on the files one operation wrote.

Each check returns a list of problems; an empty list means the output is
correct.  Checks run outside every timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from unires.graph import load_graph, load_hierarchy

from workloads import Op

EXPECTED_FILES = {
    "convert": ("network.tsv", "hierarchy.tsv", "provenance.tsv", "manifest.json"),
    "metrics": ("metrics.json", "metrics.txt"),
    "centrality": ("centrality.csv", "top_k.csv"),
    "degree-fit": ("ccdf.csv", "fit.json"),
    "spyplot": ("ordering.txt", "spy.tsv"),
}


def digests(out: Path) -> dict[str, str]:
    """sha256 of every file an operation wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir()) if p.is_file()}


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in values)


def _check_convert(op: Op, input_edges: set[tuple[str, str]], counts: dict) -> list[str]:
    g = load_graph(_read(op.out / "network.tsv"))
    t = load_hierarchy(_read(op.out / "hierarchy.tsv"), g)
    json.loads(_read(op.out / "manifest.json"))
    problems = []
    if g.edge_count == 0:
        problems.append("empty output network")
    off_leaf = [e for e in g.weights if not (t.is_leaf(e[0]) and t.is_leaf(e[1]))]
    if off_leaf:
        problems.append(f"{len(off_leaf)} edges not between leaves, e.g. {off_leaf[0]}")
    provenance = _read(op.out / "provenance.tsv").splitlines()
    counts[f"{op.name}.output_edges"] = g.edge_count
    counts[f"{op.name}.provenance_lines"] = len(provenance)
    if op.method == "kron":
        seen = Counter(tuple(line.split("\t")[1].split("->")) for line in provenance)
        missing = input_edges - set(seen)
        repeated = [e for e, k in seen.items() if k > 1]
        unknown = set(seen) - input_edges
        if missing or repeated or unknown:
            problems.append(f"kron provenance: {len(missing)} input edges missing, "
                            f"{len(repeated)} repeated, {len(unknown)} unknown")
    return problems


def _check_centrality(op: Op) -> list[str]:
    vertices = load_graph(_read(op.out.parent / f"convert-{op.method}" / "network.tsv")).vertices
    with open(op.out / "centrality.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    problems = []
    if sorted(r[0] for r in rows) != list(vertices):
        problems.append(f"centrality.csv has {len(rows)} rows for {len(vertices)} vertices")
    if not _finite(float(x) for r in rows for x in r[1:]):
        problems.append("centrality.csv has a non-finite score")
    return problems


def _check_spyplot(op: Op) -> list[str]:
    converted = op.out.parent / f"convert-{op.method}"
    g = load_graph(_read(converted / "network.tsv"))
    t = load_hierarchy(_read(converted / "hierarchy.tsv"), g)
    problems = []
    if sorted(_read(op.out / "ordering.txt").split()) != list(t.vertices):
        problems.append("ordering.txt is not a permutation of the hierarchy")
    if len(_read(op.out / "spy.tsv").splitlines()) != g.edge_count:
        problems.append("spy.tsv does not have one cell per edge")
    return problems


def check(op: Op, input_edges: set[tuple[str, str]], counts: dict) -> list[str]:
    """Problems with the outputs of ``op``; work counts go into ``counts``."""
    missing = [f for f in EXPECTED_FILES[op.command] if not (op.out / f).is_file()]
    if missing:
        return [f"missing output files {missing}"]
    if op.is_convert:
        return _check_convert(op, input_edges, counts)
    if op.command == "metrics":
        report = json.loads(_read(op.out / "metrics.json"))
        return [] if report and _finite(report.values()) else ["metrics.json has a non-finite value"]
    if op.command == "centrality":
        return _check_centrality(op)
    if op.command == "degree-fit":
        fit = json.loads(_read(op.out / "fit.json"))
        return [] if _finite(fit.values()) else ["fit.json has a non-finite value"]
    return _check_spyplot(op)
