"""Run the benchmark over several seeds and summarise it as JSON: per
workload in BENCHMARK.json, the median and quartiles of every end-to-end
metric, and the per-layer metrics of one traced run.  Every run lasts
BENCHMARK.json's run_seconds.  perfbench/baseline.json was made so.

    python3 perfbench/collect.py --seeds 1-10 --out summary.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: str, trace: int) -> tuple:
    """(environment line, result line) of one benchmark run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median, "runs": values}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    first, last = (int(v) for v in args.seeds.split("-"))
    seconds = str(bench["run_seconds"])
    summary = {"seeds": args.seeds, "seconds": float(seconds),
               "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in range(first, last + 1):
            env, result = run(name, seed, seconds, 0)
            results.append(result)
            print(name, seed, json.dumps(result["metrics"]), flush=True)
        env, traced = run(name, first, seconds, 1)
        summary["environment"] = env["environment"]
        summary["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m: dict(spread([r["metrics"][m]["value"] for r in results]),
                        unit=results[0]["metrics"][m]["unit"])
                for m in results[0]["metrics"]},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            "traced_run": {"seed": first, "inputs": env["inputs"],
                           "failed": traced["failed"]},
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
