"""Benchmark of the unires CLI on seeded synthetic instances.

Run from the root of a checkout:

    python3 bench/run.py --workload paper383 --seed 0 --seconds 38 --trace 0

The benchmark writes the workload's inputs for ``--seed``, then runs the
workload's pipeline as a user would: one CLI process after another from a
single client (closed loop, no concurrency), repeated until ``--seconds``
are spent, at least twice.  Every process runs ``unires.cli.main`` from
``src`` through ``python -c`` and its exit status is checked; one known-bad
input must exit 2.  Outputs are checked and hashed outside the timed region;
an output that differs between repeats of the same operation counts as a
failed operation.

``--trace 0`` reports the end-to-end metrics (medians over the repeats).
``--trace 1`` instead runs the pipeline in this process, alternating
untraced and traced repeats, and reports per-layer times and counts (see
``tracing.py``) with the tracing overhead; the import split comes from
``python -X importtime``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files go to
``.bench_work/`` in the checkout and are removed at exit, except the span
file of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The package has no __main__ guard and may not be installed, so every
# process imports it from src and calls main itself.
LAUNCH = "import sys; sys.path.insert(0, sys.argv[1]); from unires.cli import main; raise SystemExit(main(sys.argv[2:]))"
IMPORT_ONLY = "import sys; sys.path.insert(0, sys.argv[1]); import unires.cli"

# One BLAS thread in every process: a single client on a two-core machine
# gains nothing measurable from a second BLAS thread, and its spinning
# makes kron times spread more from run to run.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_REPEATS = 2
IMPORT_MODULES = {"unires.cli": "import.unires_cli_s", "scipy.linalg": "import.scipy_linalg_s", "numpy": "import.numpy_s"}


class Ledger:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems[:2]]


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run one process to completion: exit code, seconds, peak RSS in MB."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def exit_problems(code: int, expected: int, log: Path) -> list[str]:
    if code == expected:
        return []
    tail = log.read_text(errors="replace").strip().splitlines()[-1:] if log.exists() else []
    return [f"exit {code}, expected {expected} {tail}"]


def prepare(work: Path, instance) -> tuple[Path, Path, Path]:
    """Write the inputs and a known-bad graph (one self-loop line)."""
    (work / "input").mkdir(parents=True)
    graph, hierarchy, bad = work / "input" / "graph.tsv", work / "input" / "hierarchy.tsv", work / "input" / "bad.tsv"
    graph.write_text(instance.graph_tsv(), encoding="utf-8")
    hierarchy.write_text(instance.hierarchy_tsv(), encoding="utf-8")
    u = min(instance.parent)
    bad.write_text(f"{u}\t{u}\n", encoding="utf-8")
    return graph, hierarchy, bad


def bad_argv(bad: Path, hierarchy: Path, work: Path) -> list[str]:
    return ["convert", "--graph", str(bad), "--hierarchy", str(hierarchy), "--method", "inherit",
            "--out", str(work / "bad-out")]


def verify(repeats: list[list], instance, ledger: Ledger, counts: dict) -> None:
    """Check the first repeat's outputs; later repeats must match them byte for byte.

    ``repeats`` holds, per repeat, ``(op, problems)`` for every operation,
    where ``problems`` are those already found (a wrong exit code).
    """
    import checks

    input_edges = set(instance.weights)
    reference = {}
    for k, rows in enumerate(repeats):
        for op, problems in rows:
            problems = list(problems)
            if not problems:
                try:
                    digest = checks.digests(op.out)
                    if k == 0:
                        reference[op.name] = digest
                        problems = checks.check(op, input_edges, counts)
                    elif digest != reference.get(op.name):
                        problems = [f"output differs from repeat 0 in repeat {k}"]
                except (ValueError, OSError, IndexError) as exc:
                    problems = [f"{type(exc).__name__}: {exc}"]
            ledger.record(f"{op.name} repeat {k}", problems)


def keep_going(done: int, durations: list[float], deadline: float, minimum: int) -> bool:
    if done < minimum:
        return True
    return time.perf_counter() + statistics.median(durations) <= deadline


def measured_run(workload, instance, inputs, work: Path, seconds: float, ledger: Ledger, counts: dict) -> dict:
    graph, hierarchy, bad = inputs
    python = sys.executable
    deadline = time.perf_counter() + seconds
    log = work / "stderr.log"

    # Warm-up: the first import compiles bytecode, which a user pays once.
    code, _, _ = spawn([python, "-c", IMPORT_ONLY, str(SRC)], log)
    ledger.record("warm-up import", exit_problems(code, 0, log))
    setup = []
    for _ in range(SETUP_REPEATS):
        code, elapsed, _ = spawn([python, "-c", IMPORT_ONLY, str(SRC)], log)
        ledger.record("setup import", exit_problems(code, 0, log))
        setup.append(elapsed)
    code, _, _ = spawn([python, "-c", LAUNCH, str(SRC), *bad_argv(bad, hierarchy, work)], log)
    ledger.record("known-bad input", exit_problems(code, 2, log))

    walls, converts, analyses, rss, repeats = [], [], [], [], []
    while keep_going(len(walls), walls, deadline, MIN_REPEATS):
        ops = workload.ops(graph, hierarchy, work / f"repeat{len(walls)}")
        rows, convert_s, analyze_s, peak = [], 0.0, 0.0, 0.0
        start = time.perf_counter()
        for op in ops:
            op_log = work / f"{op.name}-{len(walls)}.log"
            code, elapsed, maxrss = spawn([python, "-c", LAUNCH, str(SRC), *op.argv], op_log)
            rows.append((op, exit_problems(code, 0, op_log)))
            if op.is_convert:
                convert_s += elapsed
            else:
                analyze_s += elapsed
            peak = max(peak, maxrss)
        walls.append(time.perf_counter() - start)
        converts.append(convert_s)
        analyses.append(analyze_s)
        rss.append(peak)
        repeats.append(rows)
    verify(repeats, instance, ledger, counts)
    counts["repeats"] = len(walls)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "convert_s": (statistics.median(converts), "s"),
        "analyze_s": (statistics.median(analyses), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def import_split(work: Path) -> dict[str, float]:
    """Cumulative import seconds of the main modules, from -X importtime."""
    pattern = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$")
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_MODULES.values()}
    log = work / "importtime.log"
    for _ in range(IMPORT_REPEATS + 1):  # the first one compiles bytecode
        code, _, _ = spawn([sys.executable, "-X", "importtime", "-c", IMPORT_ONLY, str(SRC)], log)
        if code != 0:
            raise RuntimeError(f"import of unires.cli failed: {log.read_text(errors='replace')[-500:]}")
        seen = {}
        for line in log.read_text().splitlines():
            m = pattern.match(line)
            if m and m.group(2) in IMPORT_MODULES:
                seen[IMPORT_MODULES[m.group(2)]] = int(m.group(1)) / 1e6
        for name in samples:
            samples[name].append(seen.get(name, 0.0))
    return {name: statistics.median(values[1:]) for name, values in samples.items()}


def run_in_process(cli, ops, tracer=None) -> tuple[float, list]:
    """One pipeline repeat through ``cli.main``: seconds and ``(op, problems)`` rows."""
    rows = []
    start = time.perf_counter()
    for op in ops:
        index = None
        if tracer is not None:
            tracer.op = op.name
            index = tracer.open("cli.main")
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        finally:
            if index is not None:
                tracer.close(index)
        rows.append((op, [] if code == 0 else [f"exit {code}, expected 0"]))
    return time.perf_counter() - start, rows


def traced_run(workload, instance, inputs, work: Path, seconds: float, ledger: Ledger, counts: dict,
               spans_path: Path) -> dict:
    import tracing
    from unires import cli

    graph, hierarchy, bad = inputs
    deadline = time.perf_counter() + seconds
    layers = {name: (value, "s") for name, value in import_split(work).items()}

    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(bad_argv(bad, hierarchy, work))
    ledger.record("known-bad input", [] if code == 2 else [f"exit {code}, expected 2"])

    # Warm-up repeat: lazy set-up inside the libraries and heap growth
    # would otherwise fall on whichever timed repeat comes first.
    _, rows = run_in_process(cli, workload.ops(graph, hierarchy, work / "repeat0"))
    plain, traced, samples, spans, repeats = [], [], [], [], [rows]
    while keep_going(len(traced), [a + b for a, b in zip(plain, traced)], deadline, 1):
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for with_trace in order:
            ops = workload.ops(graph, hierarchy, work / f"repeat{len(repeats)}")
            if with_trace:
                tracer = tracing.Tracer()
                with tracing.patched(tracer):
                    elapsed, rows = run_in_process(cli, ops, tracer)
                written = sum(p.stat().st_size for op in ops for p in op.out.iterdir())
                samples.append(tracing.layer_metrics(tracer, written))
                spans.append(tracer.spans)
                traced.append(elapsed)
            else:
                elapsed, rows = run_in_process(cli, ops)
                plain.append(elapsed)
            repeats.append(rows)
    verify(repeats, instance, ledger, counts)
    counts["repeats"] = len(repeats)
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "repeats": spans}))

    for name in samples[0]:
        unit = ("s" if name.endswith("_s") else "bytes" if "bytes" in name else
                "flop" if "flops" in name else "ratio" if "ratio" in name else "count")
        # Counts repeat exactly, so take one of them rather than an average.
        median = statistics.median if unit in ("s", "ratio") else statistics.median_low
        layers[name] = (median(s[name] for s in samples), unit)
    layers["trace.overhead"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return layers


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ[k] for k in BLAS_THREADS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "unires" / "cli.py").is_file():
        print(f"error: no unires package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_THREADS)  # before numpy loads, here or in a child

    workload = WORKLOADS[args.workload]
    instance = workload.instance(args.seed)
    counts = dict(instance.work_counts())
    ledger = Ledger()
    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        inputs = prepare(work, instance)
        if args.trace:
            spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.json"
            metrics = traced_run(workload, instance, inputs, work, args.seconds, ledger, counts, spans_path)
        else:
            metrics = measured_run(workload, instance, inputs, work, args.seconds, ledger, counts)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}: {counts['repeats']} repeats; {workload.why}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")
    print(f"  {'failed_ops':36s} {ledger.failed:>10d} / {ledger.attempted} operations")
    for problem in ledger.problems[:10]:
        print(f"  problem: {problem}")
    record = {"workload": workload.name, "seed": args.seed, "work": counts, "environment": environment()}
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
