"""The README's library and CLI sections: the code runs, and they name
every export and every option, and nothing else."""

import argparse
import dataclasses
import re
from pathlib import Path

import unires
from unires.cli import build_parser
from unires.graph import Graph, Hierarchy

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    return text[start:text.index("\n## ", start + 1)]


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    code = re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)
    (tmp_path / "graph.tsv").write_text("A\tB\nA\tc1\nB\tA\na1\ta2\na2\tb1\nb1\ta1\nc1\ta1\n", encoding="utf-8")
    (tmp_path / "tree.tsv").write_text("Br\tA\nBr\tB\nBr\tC\nA\ta1\nA\ta2\nB\tb1\nB\tb2\nC\tc1\nC\tc2\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    report, ranked = capsys.readouterr().out.splitlines()
    assert report.startswith("MetricsReport(vertex_count=10, ")
    assert ranked.startswith("[(1, ")


def test_library_section_names_every_export():
    text = section("Library")
    missing = [name for name in unires.__all__ if not re.search(rf"\b{name}\b", text)]
    assert not missing


def members_named(paragraph: str) -> set[str]:
    """The member names in the backticked spans of ``paragraph``: the last
    dotted part, without a call's arguments, other than the class names."""
    spans = re.findall(r"`([^`]+)`", paragraph)
    return {re.sub(r"\(.*\)$", "", span).rpartition(".")[2] for span in spans} - {"Graph", "Hierarchy"}


def test_library_section_names_the_members_of_graph_and_hierarchy():
    paragraph = next(p for p in section("Library").split("\n\n") if p.startswith("A `Graph` is its"))
    members = set()
    for cls in (Graph, Hierarchy):
        members |= {f.name for f in dataclasses.fields(cls)} | {m for m in vars(cls) if not m.startswith("_")}
    named = members_named(paragraph)
    assert named <= members, sorted(named - members)
    assert members <= named, sorted(members - named)


def test_cli_section_names_exactly_the_subcommand_options():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section("CLI")))
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {option for command in subparsers.choices.values() for action in command._actions
               for option in action.option_strings if option.startswith("--")} - {"--help"}
    assert named == options, (sorted(named - options), sorted(options - named))
