"""Write bench/record.json: what the benchmark runs, on what, and its baseline.

    python3 bench/spread.py --runs 10 > spread.txt               # end to end
    python3 bench/spread.py --runs 5 --trace 1 > traced.txt      # per layer
    python3 bench/record.py --baseline spread.txt --traced-baseline traced.txt

The record holds what BENCHMARK.json has no key for: each workload's job
list at the default seed with the reason it was chosen, the end-to-end
metrics each per-layer metric should move (the metrics themselves, with
their units, are listed in BENCHMARK.json), the environment (Python, numpy,
nproc, commit), the inputs the default caps accept but the benchmark leaves
out, known defects, the sha256 of every default-seed job's stdout (enforced
by run.py at that seed), and the baseline spread summaries, end to end and
per layer, with each timed span's share of the traced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

# Per-layer metric (or name prefix) -> end-to-end metrics it should move,
# the workloads that use its mechanism and those that bypass it.
LAYER_MAP = [
    ("cli.import_s", ["setup_s", "job_p50_s"], ["cli-mix"], []),
    ("cli.self_s, cli.stdout_bytes", ["wall_s"], ["enumerate-stream", "sample-draw"],
     ["series-fixpoint"]),
    ("series.solve_tree_equation.*", ["wall_s", "job_max_s"], ["series-fixpoint"],
     ["sample-draw", "enumerate-stream"]),
    ("series.mul.*", ["wall_s"], ["series-fixpoint"], ["sample-draw"]),
    ("series.closed_form_series.s, series.verify.s", ["wall_s"], ["cli-mix"], []),
    ("combinatorics.closed_form_count.*", ["wall_s"], ["cli-mix", "enumerate-stream"], []),
    ("counting.table_build.s", ["job_p50_s"], ["cli-mix", "sample-draw"], ["series-fixpoint"]),
    ("counting.sample_uniform.s, counting.draws, counting.unrank_us_per_tree, "
     "counting.rng.words_per_draw", ["wall_s"], ["sample-draw"], ["series-fixpoint"]),
    ("trees.enumerate_by_lines.s, trees.enumerate.*", ["wall_s", "peak_rss_mb"],
     ["enumerate-stream"], ["series-fixpoint"]),
    ("trees.encode.*", ["wall_s"], ["enumerate-stream", "sample-draw"], []),
    ("verification.verify_oracle.s, verification.coefficients_checked", ["wall_s"],
     ["enumerate-stream"], []),
    ("roots.*", ["job_p50_s"], ["cli-mix"], []),
    ("<layer>.self_s", ["wall_s"], ["all"], []),
    ("trace.*", [], ["all"], []),
]

EXCLUDED_INPUTS = [
    {"argv": "enumerate --d 3 --max-lines 8", "seconds": "7.7-12.8",
     "how": "measured end to end, 299,462 trees, 129 MB peak RSS; left out of "
     "enumerate-stream because its time spread over ten runs was 28% (wall_s) and "
     "34% (job_max_s), above the largest bound allowed"},
    {"argv": "series --d 5 --order 8", "seconds": 11.4, "how": "measured in-process"},
    {"argv": "series --d 5 --order 7", "seconds": 3.2, "how": "measured end to end"},
    {"argv": "series --d 8 --order 8", "seconds": 1800,
     "how": "extrapolated from terms squared, not run"},
    {"argv": "series --d 6|7|8 --order 5..8", "seconds": None,
     "how": "not run; cost grows like terms squared between the d=5 and d=8 figures"},
    {"argv": "verify fuss-catalan --d 8 --order 30", "seconds": None,
     "how": "still running when killed after more than 120 s; "
     "verify fuss-catalan and narayana have no order cap"},
    {"argv": "verify oracle --d 3 --order 8", "seconds": 5.9, "how": "measured end to end"},
    {"argv": "verify geometric --d 4 --order 8 --n-max 3", "seconds": 1.5,
     "how": "measured end to end; its cost is solve_tree_equation, as in series-fixpoint"},
]

KNOWN_DEFECTS = [
    {
        "what": "roots exits 4 (residual above tolerance) at admissible points where some "
        "|g_i| is near zero: the largest root grows like 1/|g_i| and the residual bound "
        "is relative to max|coeff| only",
        "reproduce": "linetrees roots --d 5 --g=0.0603845,-0.0349089,0.00149142,"
        "0.0160745,-0.0443491 --radius 4.0",
        "rate": "exit 4 for g_i uniform in (-0.9, 0.9)*epsilon_R, 300 points per cell, "
        "radius 1.5/2/3/4: d=2 0/1/0/0, d=3 0/2/1/0, d=4 8/3/6/12, d=5 30/36/30/28, "
        "d=6 71/53/70/81, d=7 117/100/108/105, d=8 162/144/162/134",
        "benchmark": "cli-mix draws |g_i| in [0.25, 0.9]*epsilon_R, where 28,000 points "
        "over d=2..8 gave no failure",
    },
]


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
    }


def digests() -> dict:
    env = run.child_env()
    out = {}
    for workload in workloads.WHY:
        out[workload] = {}
        for argv in workloads.jobs(workload, run.DEFAULT_SEED):
            result = run.run_process(run.cli_command(argv), env)
            reason = run.judge(argv, result, None, run.checks.check)
            if reason:
                raise SystemExit(f"error: {' '.join(argv)}: {reason}")
            out[workload][" ".join(argv)] = run.digest(result.stdout)
    return out


def shares(traced: dict) -> dict:
    """Per workload: median of each timed per-layer metric over the median
    traced wall time, the share of the in-process time it covers."""
    out = {}
    for workload, summary in traced.items():
        medians = {name: m["median"] for name, m in summary["metrics"].items()}
        wall = medians["trace.wall_s"]
        out[workload] = {
            name: round(value / wall, 4)
            for name, value in medians.items()
            if (name.endswith(".s") or name.endswith(".self_s") or ".level_s." in name)
            and value > 0
        }
    return out


def last_json_line(path: Path | None):
    return json.loads(path.read_text().splitlines()[-1]) if path else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="output of bench/spread.py")
    parser.add_argument("--traced-baseline", type=Path,
                        help="output of bench/spread.py --trace 1")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    traced = last_json_line(args.traced_baseline)
    record = {
        "environment": environment(),
        "run_seconds": spec["run_seconds"],
        "default_seed": run.DEFAULT_SEED,
        "workloads": {
            name: {"why": why, "jobs": workloads.jobs(name, run.DEFAULT_SEED)}
            for name, why in workloads.WHY.items()
        },
        "metrics": "end_to_end and per_layer in BENCHMARK.json",
        "layer_map": [
            {"metrics": metrics, "moves": moves, "on": on, "bypass": bypass}
            for metrics, moves, on, bypass in LAYER_MAP
        ],
        "excluded_inputs": EXCLUDED_INPUTS,
        "known_defects": KNOWN_DEFECTS,
        "digests": digests(),
        "baseline": {
            "end_to_end": last_json_line(args.baseline),
            "per_layer": traced,
            "per_layer_shares": shares(traced) if traced else None,
        },
    }
    (BENCH / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
