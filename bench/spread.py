"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --runs 10 [--first-seed 1] [--trace 0] [workload ...]

For each workload and seed this runs ``bench/run.py`` once, then prints per
metric the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread (Q3 - Q1) / median next to the metric's bound.  The last line
is a JSON summary with every value, used as the baseline in record.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            result = json.loads(out.splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, {failed} failed jobs")
        summary[workload] = {"failed": failed, "metrics": {}}
        for name, xs in values.items():
            median = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print(f"  {name:<40} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {spread:.3f}  bound {bound} {flag}")
            summary[workload]["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": xs,
            }
        sys.stdout.flush()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
