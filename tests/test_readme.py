"""The README's library section: its code runs, and it names every export."""

import re
from pathlib import Path

import unires

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    return text[start:text.index("\n## ", start + 1)]


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    (tmp_path / "graph.tsv").write_text("A\tB\nA\tc1\nB\tA\na1\ta2\na2\tb1\nb1\ta1\nc1\ta1\n", encoding="utf-8")
    (tmp_path / "tree.tsv").write_text("Br\tA\nBr\tB\nBr\tC\nA\ta1\nA\ta2\nB\tb1\nB\tb2\nC\tc1\nC\tc2\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    report, ranked = capsys.readouterr().out.splitlines()
    assert report.startswith("MetricsReport(vertex_count=10, ")
    assert ranked.startswith("[(1, ")


def test_library_section_names_every_export():
    section = library_section()
    missing = [name for name in unires.__all__ if not re.search(rf"\b{name}\b", section)]
    assert not missing
