"""Run the benchmark over several seeds and write a summary as JSON.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/BASELINE.json

For every workload in BENCHMARK.json: one untraced run per seed, then the
median, quartiles and quartile spread (q3 - q1, as a share of the median) of
each end-to-end metric; and two traced runs on the first seed, whose
per-layer counts must agree exactly.  Runs go one after another, so they do
not compete for the machine.
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

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Per-layer metrics that count work rather than time it.
EXACT = ("factors.ops.", "rewrite.rule.", "rewrite.trace_events", "clusters.count_",
         "nodes.intern_calls", "nodes.dag_nodes", "clusters.find_order_calls")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: wrong answers\n{out.stdout}")
    return result


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    summary = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for w in spec["workloads"]:
        if w["name"] not in names:
            continue
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            for name, m in run(w["name"], seed, spec["run_seconds"], 0)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        end_to_end = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / median, "values": vals}
            print(f"{w['name']} {name}: median {median:.6g} spread {(q3 - q1) / median:.4f}",
                  flush=True)
        traced = [run(w["name"], args.seeds[0], spec["run_seconds"], 1)["metrics"]
                  for _ in range(2)]
        moved = [name for name in traced[0] if name.startswith(EXACT)
                 and traced[0][name]["value"] != traced[1][name]["value"]]
        if moved:
            raise RuntimeError(f"{w['name']}: counts differ between traced runs: {moved}")
        summary["workloads"][w["name"]] = {
            "why": w["why"], "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced[0].items()},
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
