"""drgkit benchmark: time real CLI commands and check their answers.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; drgkit is imported from ``src/``.
Each operation is one in-process call to ``drgkit.cli.main(argv)`` on a graph
file written during set-up.  Operations run in a closed loop from a single
process: one full pass over the workload's operations, then, until
``--seconds`` is used up, the operation with the least time spent on it so
far among those expected to finish in time.  The last line of standard output is the JSON
result; README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from layer_trace import Tracer, aggregate  # noqa: E402
from workloads import WORKLOADS, Workload, build_graphs, check_output, make_workload  # noqa: E402

# layer -> statistics reported for it by the traced run
LAYER_STATS = {
    "terwilliger.terwilliger_dimension": ("calls", "distinct", "useful_ratio", "self_s",
                                          "dim_sum", "dim_max"),
    "exactla.charpoly_int": ("calls", "self_s", "order_sum", "order_max"),
    "exactla.eigenvalues_from_charpoly": ("calls", "self_s"),
    "spectra.subconstituent_spectrum": ("calls", "distinct", "useful_ratio", "self_s", "float"),
    "graph_core.distances": ("calls", "self_s"),
    "scheme.verify_drg": ("calls", "self_s"),
    "scheme.eigen_data": ("calls", "self_s", "float"),
    "scheme.krein": ("self_s",),
    "tmodules.decompose_srg": ("calls", "self_s"),
    "tmodules.decompose_taylor": ("calls", "self_s"),
    "tmodules.decompose_at4": ("calls", "self_s"),
    "pvt.check_pvt": ("calls", "self_s"),
    "pvt.t_isomorphic_srg": ("calls", "self_s"),
    "analysis.analyze_graph": ("self_s",),
    "analysis.report_to_json": ("self_s",),
    "cli.main": ("self_s",),
    "graph_core.load_graph": ("self_s",),
}


def _unit(stat: str) -> str:
    return {"self_s": "s", "useful_ratio": "ratio"}.get(stat, "count")


def load_drgkit():
    """Import drgkit from this checkout's src/, never from an installed copy."""
    if not (SRC / "drgkit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no drgkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import drgkit.cli

    if SRC not in Path(drgkit.__file__).resolve().parents:
        raise ImportError(f"drgkit imported from {drgkit.__file__}, not {SRC}")
    return drgkit.cli


def setup_seconds(graphs) -> list[float]:
    """Set-up time (import drgkit, build and save graphs) in fresh interpreters."""
    times = []
    for _ in range(SETUP_SAMPLES):
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), tmp, *graphs],
                capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


class Runner:
    """Runs a workload's operations, checks outputs and keeps the samples."""

    def __init__(self, cli, workload: Workload, graph_dir: Path, tracer=None):
        self.cli = cli
        self.ops = workload.ops
        self.argvs = [op.resolve(graph_dir) for op in self.ops]
        self.tracer = tracer
        self.times = [[] for _ in self.ops]         # untraced seconds per execution
        self.traced_times = [[] for _ in self.ops]
        self.layers = [[] for _ in self.ops]        # aggregated spans per traced execution
        self.first_spans = {}
        self.outputs = [None] * len(self.ops)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _call(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(self.argvs[i])
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = None
            err.write(traceback.format_exc())
        return time.perf_counter() - t0, (rc, out.getvalue(), err.getvalue())

    def _run_once(self, i: int):
        """One execution: (seconds, what is wrong with its output or None)."""
        dt, output = self._call(i)
        problem = check_output(self.ops[i], output[0], output[1])
        if problem is None and self.outputs[i] is not None and output != self.outputs[i]:
            problem = "output differs from the first run of this operation"
        self.outputs[i] = self.outputs[i] or output
        return dt, problem

    def _record(self, i: int, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{self.ops[i].label}: {problem}")

    def run_op(self, i: int):
        dt, problem = self._run_once(i)
        self._record(i, problem)
        self.times[i].append(dt)
        if self.tracer is None:
            return
        self.tracer.install()
        try:
            dt, problem = self._run_once(i)
        finally:
            self.tracer.uninstall()
        spans = self.tracer.take()
        agg = aggregate(spans)
        if problem is None and not 0.99 * dt - 1e-3 <= agg["root_s"] <= dt:
            problem = f"top-level spans cover {agg['root_s']:.4f} s of {dt:.4f} s"
        self._record(i, problem)
        self.traced_times[i].append(dt)
        self.layers[i].append(agg["layers"])
        self.first_spans.setdefault(i, spans)

    def expected_cost(self, i: int) -> float:
        cost = statistics.median(self.times[i])
        if self.tracer is not None:
            cost += statistics.median(self.traced_times[i])
        return cost

    def run(self, seconds: float):
        """One full pass, then the op with the least time spent so far that fits."""
        deadline = time.perf_counter() + seconds
        for i in range(len(self.ops)):
            self.run_op(i)
        while True:
            left = deadline - time.perf_counter()
            fits = [i for i in range(len(self.ops)) if self.expected_cost(i) <= left]
            if not fits:
                return
            self.run_op(min(fits, key=lambda i: sum(self.times[i])))


def end_to_end(runner: Runner, setup: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(statistics.median(t) for t in runner.times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(runner: Runner) -> dict:
    metrics = {}
    for layer, stats in LAYER_STATS.items():
        firsts = [runs[0].get(layer) for runs in runner.layers]
        firsts = [a for a in firsts if a is not None]
        calls = sum(a["calls"] for a in firsts)
        distinct = len(set().union(*(a["keys"] for a in firsts)))
        values = {
            "calls": calls,
            "distinct": distinct,
            "useful_ratio": distinct / calls if calls else 1.0,
            "self_s": sum(statistics.median(r.get(layer, {}).get("self_s", 0.0) for r in runs)
                          for runs in runner.layers),
            "dim_sum": sum(a["dim_sum"] for a in firsts),
            "dim_max": max((a["dim_max"] for a in firsts), default=0),
            "order_sum": sum(a["order_sum"] for a in firsts),
            "order_max": max((a["order_max"] for a in firsts), default=0),
            "float": sum(a["float"] for a in firsts),
        }
        for stat in stats:
            metrics[f"{layer}.{stat}"] = (values[stat], _unit(stat))
    overhead = sum(statistics.median(tt) - statistics.median(t)
                   for t, tt in zip(runner.times, runner.traced_times))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def write_spans(runner: Runner, path: Path):
    with path.open("w") as f:
        for i, spans in sorted(runner.first_spans.items()):
            for name, t0, t1, parent, _ in spans:
                f.write(json.dumps({"op": runner.ops[i].label, "name": name, "start": t0,
                                    "end": t1, "parent": parent}) + "\n")


def run_benchmark(cli, workload: Workload, seconds: float, trace: bool,
                  spans_path: Path | None = None) -> tuple[dict, Runner]:
    """Set up, run and measure one workload; returns (metrics, runner)."""
    SCRATCH.mkdir(exist_ok=True)
    setup = setup_seconds(workload.graphs)
    tracer = None
    if trace:
        tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix=f"{workload.name}-", dir=SCRATCH) as tmp:
        build_graphs(workload.graphs, Path(tmp))
        runner = Runner(cli, workload, Path(tmp), tracer)
        runner.run(seconds)
    if trace:
        metrics = per_layer(runner)
        if spans_path is not None:
            write_spans(runner, spans_path)
    else:
        metrics = end_to_end(runner, setup)
    return metrics, runner


def result_json(metrics: dict, runner: Runner) -> dict:
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def format_report(header: str, metrics: dict, runner: Runner) -> list[str]:
    """Readable lines naming every metric with its unit, then the JSON result line."""
    lines = [header]
    for op, t in zip(runner.ops, runner.times):
        lines.append(f"  op {op.label}: median {statistics.median(t):.4f} s over {len(t)} runs")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    p50 = statistics.median(statistics.median(t) for t in runner.times)
    samples = sum(len(t) for t in runner.times)
    lines.append(f"  op_s_p50 = {p50:.6g} s ({samples} samples over {len(runner.ops)} operations)")
    lines.append(f"  ops = {runner.attempted} count")
    lines.append(f"  ops_failed = {runner.failed} count")
    lines.append(json.dumps(result_json(metrics, runner)))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported; sub-processes inherit them
        os.environ[var] = "1"
    try:
        cli = load_drgkit()
    except (FileNotFoundError, ImportError) as e:
        print(f"perfbench: cannot import drgkit: {e}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
    metrics, runner = run_benchmark(cli, workload, args.seconds, bool(args.trace),
                                    spans_path if args.trace else None)
    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    header = (f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}")
    print("\n".join(format_report(header, metrics, runner)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
