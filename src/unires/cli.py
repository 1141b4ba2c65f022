"""Command-line interface: deterministic batch runs over edge-list files.

Subcommands: ``convert``, ``metrics``, ``centrality``, ``spyplot``,
``degree-fit``, and the debug helper ``resistance``.  Exit codes: 0 on
success, 2 for input/validation/usage problems, 3 for numerical failures.
Every output file is UTF-8 with LF endings in a fixed order (``network.tsv``
by name pairs, ``provenance.tsv`` as text), so two runs with identical
inputs and flags are byte-identical.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import dataclasses
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .graph import (
    BLOCK,
    DomainError,
    Graph,
    Hierarchy,
    ParseError,
    ValidationError,
    _graph_blocks,
    _pairs,
    load_graph,
    load_hierarchy,
    on_tree,
    serialize_hierarchy,
)
from .metrics import (
    CENTRALITY_METRICS,
    NumericalError,
    centrality_suite,
    degree_fit,
    metrics_report,
    top_k,
)
from .resolution import ResolutionResult, disinherit, inherit, kron_sampling
from .spectral import _resistances

METHODS = ("inherit", "disinherit", "kron")


def _read(path: str) -> str:
    """The UTF-8 text of ``path`` without a leading byte-order mark, with
    CRLF and CR line ends read as LF, as text mode reads them."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from exc
    body = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = len(data) - len(body) + exc.start
        raise ValidationError(f"cannot read {path}: not UTF-8 at byte {offset} ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_pair(graph_text: str, hierarchy_text: str) -> tuple[Graph, Hierarchy]:
    graph = load_graph(graph_text)
    hierarchy = load_hierarchy(hierarchy_text, graph)
    # Work over the full tree universe so container vertices are counted.
    return on_tree(graph, hierarchy), hierarchy


def _sha256(text: str) -> str:
    # CPython's built-in SHA-256, as random.py takes its sha512: hashlib would
    # map OpenSSL, some 3.5 MB of resident memory, for two digests.
    try:
        from _sha2 import sha256  # 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode("utf-8")).hexdigest()


def _prepare_outdir(out: str, inputs: list[str | None], filenames: list[str]) -> Path:
    outdir = Path(out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out}: {exc.strerror or exc}") from exc
    input_paths = {Path(p).resolve() for p in inputs if p}
    for name in filenames:
        if (outdir / name).resolve() in input_paths:
            raise ValidationError(f"refusing to overwrite input file {outdir / name}")
    return outdir


def _write(path: Path, text: str | Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _fmt(x: float) -> str:
    return repr(float(x))


def _provenance_lines(result: ResolutionResult) -> Iterator[str]:
    """The text of ``provenance.tsv`` in blocks of about ``BLOCK // 8`` lines.
    A line is a head (``s->d`` or ``dropped``, then its only tab) and a tail
    ``u->v``; a block of whole heads is sorted.  Heads are ranked (equal ones
    equal, as names with ``->`` print some pairs alike) in one array of their
    UTF-8 bytes: byte order is text order, and a tab, not a NUL, ends each."""
    n, out, head = len(result.vertices), *np.unique(result.links[:, 0], return_inverse=True)
    name = np.array([v.encode() for v in result.vertices], dtype=object)
    arrow, tab, size = name + b"->", name + b"\t", np.fromiter(map(len, name), dtype=np.int64, count=n)
    heads = np.full(len(out) + 1, b"dropped\t", dtype=f"S{max(8, int((size[out // n] + size[out % n]).max(initial=0)) + 3)}")
    for p in range(0, len(out), BLOCK // 8):
        s, d = np.divmod(out[p:p + BLOCK // 8], n)
        heads[p:p + len(s)] = arrow[s] + tab[d]
    order = np.argsort(heads, kind="stable")  # timsort, as the heads come nearly sorted
    rank = np.cumsum(np.concatenate(([0], heads[order][1:] != heads[order][:-1])))[np.argsort(order)]
    head = np.concatenate((head, np.full(len(result.dropped), len(out))))
    rows = np.argsort(rank[head], kind="stable")
    starts = np.flatnonzero(np.diff(rank[head[rows]])) + 1  # where a head rank's rows begin
    tails = np.concatenate((result.links[:, 1], result.dropped))
    for part in np.split(rows, starts[np.diff(starts // (BLOCK // 8), prepend=0) > 0]):
        u, v = np.divmod(tails[part], n)
        lines = sorted(map(bytes.__add__, heads[head[part]].tolist(), (arrow[u] + name[v]).tolist()))
        yield b"\n".join([*lines, b""]).decode()


def cmd_convert(args: argparse.Namespace) -> int:
    graph_text, hierarchy_text = _read(args.graph), _read(args.hierarchy)
    digests = _sha256(graph_text), _sha256(hierarchy_text)
    graph, hierarchy = _load_pair(graph_text, hierarchy_text)
    del graph_text, hierarchy_text
    if args.method == "inherit":
        result = inherit(graph, hierarchy)
    elif args.method == "disinherit":
        result = disinherit(graph, hierarchy)
    else:
        result = kron_sampling(graph, hierarchy)
    if len(result.hierarchy.vertices) == 1:  # disinherit, when an edge is on the root
        root = result.hierarchy.vertices[0]
        u, v = next(e for e in _pairs(result.vertices, result.dropped) if root in e)
        raise DomainError(f"edge ({u!r}, {v!r}) is on the root, so disinherit pulls every vertex into it "
                          "and leaves a one-vertex tree, which hierarchy.tsv cannot hold")
    names = ["network.tsv", "hierarchy.tsv", "provenance.tsv", "manifest.json"]
    outdir = _prepare_outdir(args.out, [args.graph, args.hierarchy], names)
    _write(outdir / "network.tsv", _graph_blocks(result.network))
    _write(outdir / "hierarchy.tsv", serialize_hierarchy(result.hierarchy))
    _write(outdir / "provenance.tsv", _provenance_lines(result))
    manifest = {
        "tool": "unires",
        "version": __version__,
        "command": "convert",
        "method": args.method,
        "inputs": {
            "graph": {"path": args.graph, "sha256": digests[0]},
            "hierarchy": {"path": args.hierarchy, "sha256": digests[1]},
        },
        "outputs": names[:3],
    }
    _write(outdir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


def _csv(rows: list[list]) -> str:
    """``rows`` as CSV, quoting only names that hold a comma or a quote."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _metrics_text(report) -> str:
    rows = [
        ("vertices", str(report.vertex_count)),
        ("active vertices", str(report.active_vertex_count)),
        ("edges", str(report.edge_count)),
        ("density (active basis)", _fmt(report.density)),
        ("density (all vertices)", _fmt(report.density_all_vertices)),
        ("reciprocity", _fmt(report.reciprocity)),
        ("diameter", str(report.diameter)),
        ("characteristic path length", _fmt(report.characteristic_path_length)),
        ("mean clustering (directed)", _fmt(report.mean_clustering_directed)),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows) + "\n"


def _load_graph_for_analysis(args: argparse.Namespace) -> Graph:
    if getattr(args, "hierarchy", None):
        graph, _ = _load_pair(_read(args.graph), _read(args.hierarchy))
        return graph
    return load_graph(_read(args.graph))


def cmd_metrics(args: argparse.Namespace) -> int:
    graph = _load_graph_for_analysis(args)
    report = metrics_report(graph)
    outdir = _prepare_outdir(args.out, [args.graph, args.hierarchy], ["metrics.json", "metrics.txt"])
    _write(outdir / "metrics.json", json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n")
    _write(outdir / "metrics.txt", _metrics_text(report))
    return 0


def cmd_centrality(args: argparse.Namespace) -> int:
    graph = _load_graph_for_analysis(args)
    table = centrality_suite(graph, pagerank_damping=args.pagerank_damping)
    ranked = top_k(table, args.top_k)
    outdir = _prepare_outdir(args.out, [args.graph, args.hierarchy], ["centrality.csv", "top_k.csv"])
    rows = [["vertex", *CENTRALITY_METRICS]]
    rows += ([v, *(_fmt(table.scores[m][v]) for m in CENTRALITY_METRICS)] for v in table.vertices)
    _write(outdir / "centrality.csv", _csv(rows))
    rows = [["metric", "rank", "vertex", "score"]]
    rows += ([metric, rank, name, _fmt(score)] for metric in CENTRALITY_METRICS for rank, name, score in ranked[metric])
    _write(outdir / "top_k.csv", _csv(rows))
    return 0


def cmd_spyplot(args: argparse.Namespace) -> int:
    graph, hierarchy = _load_pair(_read(args.graph), _read(args.hierarchy))
    order, leaf = hierarchy.ids.order, hierarchy.ids.leaf
    by_place = order[np.argsort(leaf[order], kind="stable")]  # internal vertices, then leaves, each in preorder
    ordering = list(map(hierarchy.vertices.__getitem__, by_place.tolist()))
    pos = np.argsort(by_place)  # by vertex id, its place in the ordering
    rows, cols = np.divmod(np.sort(pos[graph.src] * len(pos) + pos[graph.dst]), len(pos))
    outdir = _prepare_outdir(args.out, [args.graph, args.hierarchy], ["ordering.txt", "spy.tsv"])
    _write(outdir / "ordering.txt", "\n".join(ordering) + ("\n" if ordering else ""))
    _write(outdir / "spy.tsv", "".join(map("{}\t{}\n".format, rows.tolist(), cols.tolist())))
    return 0


def cmd_degree_fit(args: argparse.Namespace) -> int:
    graph = _load_graph_for_analysis(args)
    fit = degree_fit(graph)
    outdir = _prepare_outdir(args.out, [args.graph, args.hierarchy], ["ccdf.csv", "fit.json"])
    rows = [["degree", "ccdf_empirical", "ccdf_fitted"]]
    rows += ([degree, _fmt(empirical), _fmt(fitted)] for degree, empirical, fitted in fit.ccdf_points)
    _write(outdir / "ccdf.csv", _csv(rows))
    summary = {
        "lambda": fit.lam,
        "d_min": fit.d_min,
        "mean": fit.mean,
        "vertex_count": len(fit.degrees),
    }
    _write(outdir / "fit.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_resistance(args: argparse.Namespace) -> int:
    graph = load_graph(_read(args.graph))
    n = len(graph.vertices)
    lo, hi = np.minimum(graph.src, graph.dst), np.maximum(graph.src, graph.dst)  # ids follow name order
    keys = np.unique(lo * n + hi)
    values = _resistances(graph, np.ones(n, dtype=bool), *np.divmod(keys, n)).tolist()
    pairs = _pairs(graph.vertices, keys)
    text = "".join(f"{u}\t{v}\t{'inf' if math.isinf(r) else _fmt(r)}\n" for (u, v), r in zip(pairs, values))
    try:
        # Unbuffered (PYTHONUNBUFFERED), the binary stream is the raw file,
        # whose write may take only part of the bytes when a reader leaves;
        # sys.stdout.write would drop the rest without an error.
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[sys.stdout.buffer.write(data):]
        sys.stdout.buffer.flush()
    except OSError as exc:
        # The interpreter flushes stdout again at exit; let that go to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise ValidationError(f"cannot write standard output: {exc.strerror or exc}") from exc
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _damping(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unires",
        description="Convert mixed-resolution connectivity networks to leaf-level ones and analyze them.",
    )
    parser.add_argument("--version", action="version", version=f"unires {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="run one conversion method on a (graph, hierarchy) pair")
    convert.add_argument("--graph", required=True)
    convert.add_argument("--hierarchy", required=True)
    convert.add_argument("--method", required=True, choices=METHODS)
    convert.add_argument("--out", default=".")
    convert.set_defaults(func=cmd_convert)

    metrics = sub.add_parser("metrics", help="summary metrics of one network")
    metrics.add_argument("--graph", required=True)
    metrics.add_argument("--hierarchy", help="optional; counts hierarchy-only vertices in the universe")
    metrics.add_argument("--out", default=".")
    metrics.set_defaults(func=cmd_metrics)

    centrality = sub.add_parser("centrality", help="per-vertex centrality scores and top-k lists")
    centrality.add_argument("--graph", required=True)
    centrality.add_argument("--hierarchy", help="optional; counts hierarchy-only vertices in the universe")
    centrality.add_argument("--top-k", type=_positive_int, default=10)
    centrality.add_argument("--pagerank-damping", type=_damping, default=0.85)
    centrality.add_argument("--out", default=".")
    centrality.set_defaults(func=cmd_centrality)

    spyplot = sub.add_parser("spyplot", help="vertex ordering and adjacency cells for spy plots")
    spyplot.add_argument("--graph", required=True)
    spyplot.add_argument("--hierarchy", required=True)
    spyplot.add_argument("--out", default=".")
    spyplot.set_defaults(func=cmd_spyplot)

    fit = sub.add_parser("degree-fit", help="exponential fit of the total-degree distribution")
    fit.add_argument("--graph", required=True)
    fit.add_argument("--hierarchy", help="optional; counts hierarchy-only vertices in the universe")
    fit.add_argument("--out", default=".")
    fit.set_defaults(func=cmd_degree_fit)

    resistance = sub.add_parser("resistance", help="debug: effective resistance of every edge")
    resistance.add_argument("--graph", required=True)
    resistance.set_defaults(func=cmd_resistance)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:  # pragma: no cover - console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
