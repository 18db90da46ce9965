"""Record a BENCH_<label>.json: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py --label seed --seeds 1-10 --out perfbench/BENCH_seed.json

For each workload and end-to-end metric it stores the value of every run, the
median, the quartiles and the spread (quartile distance over median), as
statistics.quantiles(values, n=4) gives them.  The traced run (first seed)
gives the per-layer split.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: failed checks\n{proc.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    bench = {"label": args.label,
             "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
             "run_seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, seed, 0) for seed in args.seeds]
        traced = run_once(workload, args.seeds[0], 1)
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in SPEC["end_to_end"]},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        bench["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}",
                  flush=True)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
