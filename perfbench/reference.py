"""Run every workload on several seeds and summarise, as in README.md.

    python3 perfbench/reference.py --seeds 1-10

Runs ``run.py`` once per (workload, seed), one process at a time, then one
traced run per workload, each for BENCHMARK.json's ``run_seconds``.  Prints,
per workload and end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``), the failed share, the per-layer
metrics of the traced run and the tracing overhead on ``op_p50_ms``.  The
whole summary is also written to ``perfbench/out/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("body_lp", "market_tree", "risk_desk", "cli_batch")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        seconds = json.load(spec)["run_seconds"]

    summary = {}
    for workload in WORKLOADS:
        results = [run_one(workload, s, seconds, 0) for s in args.seeds]
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        entry = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": metrics,
        }
        print(f"\n{workload}: seeds {args.seeds[0]}-{args.seeds[-1]}, ops {entry['attempted']}, "
              f"failed {sum(entry['failed'])}, correct {entry['correct']}")
        per_seed = [round(r["metrics"]["op_p50_ms"]["value"], 1) for r in results]
        print(f"  op_p50_ms per seed: {per_seed}")
        for name, stats in metrics.items():
            print(f"  {name:12s} median {stats['median']:10.4f}  q1 {stats['q1']:10.4f}  "
                  f"q3 {stats['q3']:10.4f}  spread {100 * stats['spread']:5.2f}%")
        traced = run_one(workload, args.seeds[0], seconds, 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        overhead = layer["trace.op_p50_ms"] / metrics["op_p50_ms"]["median"] - 1
        entry["per_layer"] = layer
        entry["trace_overhead"] = overhead
        print(f"  traced run (seed {args.seeds[0]}): op_p50 overhead {100 * overhead:+.1f}%")
        for name, value in layer.items():
            if value:
                print(f"    {name:34s} {value:12.4f}")
        summary[workload] = entry

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "reference.json"), "w", encoding="utf-8") as out:
        json.dump(summary, out, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
