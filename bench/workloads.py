"""The benchmark's workloads: an instance recipe plus the CLI operations
that one pipeline run performs, in order."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from instances import Instance, make_instance


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  ``method`` names the conversion whose output
    the operation writes (convert) or reads (analysis commands)."""

    command: str
    method: str
    argv: tuple[str, ...]
    out: Path

    @property
    def name(self) -> str:
        return f"{self.command}-{self.method}"

    @property
    def is_convert(self) -> bool:
        return self.command == "convert"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    shape: str
    budget: int
    target_pairs: int
    methods: tuple[str, ...]
    analyses: tuple[tuple[str, str], ...]  # (command, method of its input)

    def instance(self, seed: int) -> Instance:
        return make_instance(seed, self.n, self.shape, self.budget, self.target_pairs)

    def ops(self, graph: Path, hierarchy: Path, base: Path) -> list[Op]:
        ops = [
            Op("convert", m, ("convert", "--graph", str(graph), "--hierarchy", str(hierarchy),
                              "--method", m, "--out", str(base / f"convert-{m}")), base / f"convert-{m}")
            for m in self.methods
        ]
        for command, m in self.analyses:
            converted = base / f"convert-{m}"
            argv = [command, "--graph", str(converted / "network.tsv")]
            if command == "spyplot":
                argv += ["--hierarchy", str(converted / "hierarchy.tsv")]
            out = base / f"{command}-{m}"
            ops.append(Op(command, m, (*argv, "--out", str(out)), out))
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper383",
            why="the paper's study at its scale: 383 areas converted three ways, then analysed; "
                "per-process start-up and import dominate",
            n=383, shape="branching", budget=15 * 383, target_pairs=0,
            methods=("inherit", "disinherit", "kron"),
            analyses=(("metrics", "inherit"), ("centrality", "inherit"),
                      ("metrics", "disinherit"), ("centrality", "disinherit"),
                      ("metrics", "kron"), ("centrality", "kron"),
                      ("degree-fit", "kron"), ("spyplot", "kron")),
        ),
        Workload(
            name="kron2000",
            why="one kron conversion at n=2000: Kron reduction and effective resistance dominate, "
                "the metrics module does nothing",
            n=2000, shape="branching", budget=15 * 2000, target_pairs=0,
            methods=("kron",),
            analyses=(("spyplot", "kron"),),
        ),
        Workload(
            name="inherit-deep700",
            why="inherit on a deep tree writes a dense output that metrics and centrality then "
                "read back; spectral does nothing",
            n=700, shape="deep", budget=0, target_pairs=66_000,
            methods=("inherit",),
            analyses=(("metrics", "inherit"), ("centrality", "inherit")),
        ),
    )
}
