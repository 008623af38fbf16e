"""Benchmark of the linetrees CLI: four seeded workloads, end to end and by layer.

Run from the repository root:

    python3 bench/run.py --workload series-fixpoint --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's job list, one ``python -m linetrees.cli``
subprocess at a time (a closed loop with one client), round after round
while another round still fits in ``--seconds``.  It checks every job's
output with ``checks.py`` and prints the end-to-end metrics of
``BENCHMARK.json``, with times scaled to a reference machine speed (see
``Runner``).  ``--trace 1`` calls the same jobs in-process through
``cli.main``, once untraced and once with the layer wrappers of ``tracing.py``,
and prints the per-layer metrics.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The package is used from ``src/`` as checked out; nothing is installed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Stdout digests of every job at this seed are recorded in record.json and
# enforced, which turns "byte-identical stdout" into a check.
DEFAULT_SEED = 0
SETUP_RUNS = 11
IMPORT_RUNS = 5
# Every job of a run must end within this many seconds of its start.
RUN_LIMIT_S = 150.0
# A calibration slice's time at the reference speed, about what it takes on
# an unloaded 2-vCPU x86-64 virtual machine; it only scales the reported times.
REFERENCE_SLICE_S = 2.0e-3
SLICES_PER_GAP = 3


@dataclass
class JobResult:
    seconds: float
    rss_mb: float
    returncode: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(
    command: list[str], env: dict[str, str], timeout: float = RUN_LIMIT_S
) -> JobResult:
    """Run one process to exit with both pipes drained; kill it on timeout.

    ``seconds`` runs from spawn to exit and ``rss_mb`` is the child's
    ``ru_maxrss`` from ``os.wait4``.  The child is always reaped here.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT
    )
    sinks: dict[object, list[bytes]] = {proc.stdout: [], proc.stderr: []}
    timed_out = drained = False
    try:
        with selectors.DefaultSelector() as selector:
            for pipe in sinks:
                selector.register(pipe, selectors.EVENT_READ)
            deadline = start + timeout
            while selector.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0 and not timed_out:
                    proc.kill()
                    timed_out = True
                for key, _ in selector.select(None if timed_out else remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        sinks[key.fileobj].append(data)
                    else:
                        selector.unregister(key.fileobj)
        drained = True
    finally:
        if not drained:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return JobResult(
        time.perf_counter() - start,
        usage.ru_maxrss / 1024,
        proc.returncode,
        timed_out,
        b"".join(sinks[proc.stdout]),
        b"".join(sinks[proc.stderr]),
    )


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "linetrees.cli", *argv]


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def recorded_digests(workload: str, seed: int) -> dict[str, str]:
    """Recorded stdout digests by job argv, for the default seed only."""
    path = BENCH / "record.json"
    if seed != DEFAULT_SEED or not path.exists():
        return {}
    return json.loads(path.read_text())["digests"].get(workload, {})


class Tally:
    """Jobs attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, argv: list[str], reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{' '.join(argv)}: {reason}")


def judge(argv, result: JobResult, expected_digest: str | None, check) -> str | None:
    if result.timed_out:
        return f"timed out after {result.seconds:.0f} s"
    reason = check(argv, result.returncode, result.stdout)
    if reason and result.returncode:
        reason += ": " + result.stderr.decode(errors="replace").strip()[-200:]
    if reason is None and expected_digest and digest(result.stdout) != expected_digest:
        reason = "stdout differs from the recorded default-seed digest"
    return reason


def calibration_slice() -> float:
    """Seconds taken by a fixed slice of interpreter work (dict updates on
    tuple keys, 64-bit products), the kind of work the package does."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + (i * 0x9E3779B97F4A7C15) % 1000003
    return time.perf_counter() - start


class Runner:
    """Runs CLI jobs one at a time, each scaled to the reference machine speed.

    The speed of this shared host drifts by up to 2x over minutes, which
    would swamp any change to the program.  Calibration slices right before
    and after every job measure the speed the job ran at; ``scaled`` is its
    time in seconds at the reference speed, where a slice takes
    ``REFERENCE_SLICE_S``.  This process and its jobs share one CPU, the one
    the slices measure.  On series-fixpoint this cut the spread of wall_s
    over runs from 31% to 7%.
    """

    def __init__(self):
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._slices: list[float] = []
        self._slices_at = 0.0

    def _calibrate(self) -> list[float]:
        self._slices = [calibration_slice() for _ in range(SLICES_PER_GAP)]
        self._slices_at = time.perf_counter()
        return self._slices

    def run(self, argv: list[str]) -> tuple[JobResult, float]:
        """The job's result and its time scaled to the reference speed."""
        fresh = time.perf_counter() - self._slices_at < 0.1
        before = self._slices if fresh else self._calibrate()
        timeout = max(1.0, self.deadline - time.perf_counter())
        result = run_process(cli_command(argv), self.env, timeout)
        after = self._calibrate()
        speed = REFERENCE_SLICE_S / statistics.median(before + after)
        return result, result.seconds * speed


def measure(
    jobs: list[list[str]], seconds: float, expected: dict[str, str], check=checks.check
):
    """End-to-end metrics of a job list run round after round in subprocesses."""
    runner = Runner()
    tally = Tally()
    runner.run(["--version"])  # compiles bytecode if missing
    setup, setup_raw = [], []
    for _ in range(SETUP_RUNS):
        result, scaled = runner.run(["--version"])
        tally.add(["--version"], judge(["--version"], result, None, check))
        setup.append(scaled)
        setup_raw.append(result.seconds)
    walls, walls_raw, rss = [], [], []
    per_job: list[list[float]] = [[] for _ in jobs]
    start = time.perf_counter()
    while True:
        ran = [runner.run(argv) for argv in jobs]
        for argv, (result, _) in zip(jobs, ran):
            tally.add(argv, judge(argv, result, expected.get(" ".join(argv)), check))
        scaled = [job_s for _, job_s in ran]
        walls.append(sum(scaled))
        walls_raw.append(sum(result.seconds for result, _ in ran))
        for times, job_s in zip(per_job, scaled):
            times.append(job_s)
        rss.append(max(result.rss_mb for result, _ in ran))
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(t for times in per_job for t in times),
        # The slowest job by its median over rounds: the largest time of one
        # round would mostly measure the host's rarest stalls.
        "job_max_s": max(statistics.median(times) for times in per_job),
        "peak_rss_mb": max(rss),
    }
    info = {
        "rounds": len(walls),
        "jobs": len(jobs) * len(walls),
        "unscaled_wall_s": round(statistics.median(walls_raw), 4),
        "unscaled_setup_s": round(statistics.median(setup_raw), 4),
    }
    return metrics, tally, info


def cap_enumerate() -> list[str]:
    """The enumerate job of enumerate-stream with the most trees, whose
    levels (line counts 0 to ``--max-lines``) are reported one by one."""

    def trees(argv: list[str]) -> int:
        opts = checks.options(argv)
        d, max_lines = int(opts["d"]), int(opts["max-lines"])
        return sum(checks.fuss_catalan(d, size + 1) for size in range(max_lines + 1))

    stream = workloads.jobs("enumerate-stream", DEFAULT_SEED)
    return max((argv for argv in stream if argv[0] == "enumerate"), key=trees)


def import_seconds(env: dict[str, str]) -> float:
    """Fresh-interpreter import of linetrees.cli minus a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_RUNS):
        bare.append(run_process([sys.executable, "-c", "pass"], env).seconds)
        full.append(run_process([sys.executable, "-c", "import linetrees.cli"], env).seconds)
    return statistics.median(full) - statistics.median(bare)


def run_in_process(cli, jobs: list[list[str]], tracer=None):
    """Call ``cli.main`` on every job; return the wall time and each stdout."""
    outputs = []
    gc.collect()
    main_id = tracer.name_id("cli.main") if tracer else None
    start = time.perf_counter()
    for job_id, argv in enumerate(jobs):
        buffer = io.StringIO()
        if tracer:
            tracer.job_id = job_id
            index = tracer.open(main_id)
        try:
            with redirect_stdout(buffer):
                code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            if tracer:
                tracer.close(index)
        outputs.append((code, buffer.getvalue().encode()))
    return time.perf_counter() - start, outputs


def layer_metrics(tracer, jobs, traced_wall, untraced_wall, stdout_bytes, import_s):
    inclusive, calls, layer_self = tracer.totals()
    counts = tracer.counts
    draws = counts["counting.draws"]
    pairs = counts["series.mul.pairs_visited"]
    cap = cap_enumerate()
    cap_job = jobs.index(cap) if cap in jobs else None
    levels = int(checks.options(cap)["max-lines"]) + 1
    metrics = {
        "cli.import_s": import_s,
        "cli.stdout_bytes": stdout_bytes,
        **{f"{layer}.self_s": value for layer, value in layer_self.items()},
        "series.solve_tree_equation.s": inclusive["series.solve_tree_equation"],
        "series.solve_tree_equation.calls": calls["series.solve_tree_equation"],
        "series.mul.s": inclusive["series.mul"],
        "series.mul.calls": counts["series.mul.calls"],
        "series.mul.pairs_visited": pairs,
        "series.mul.pairs_kept": counts["series.mul.pairs_kept"],
        "series.mul.keep_ratio": counts["series.mul.pairs_kept"] / pairs if pairs else 0.0,
        "series.closed_form_series.s": inclusive["series.closed_form_series"],
        "series.verify.s": inclusive["series.verify"],
        "combinatorics.closed_form_count.s": inclusive["combinatorics.closed_form_count"],
        "combinatorics.closed_form_count.calls": calls["combinatorics.closed_form_count"],
        "counting.table_build.s": inclusive["counting.table_build"],
        "counting.sample_uniform.s": inclusive["counting.sample_uniform"],
        "counting.draws": draws,
        "counting.unrank_us_per_tree": (
            1e6 * (inclusive["counting.sample_uniform"] - inclusive["counting.table_build"]) / draws
            if draws else 0.0
        ),
        "counting.rng.words_per_draw": counts["counting.rng.words"] / draws if draws else 0.0,
        "trees.enumerate_by_lines.s": inclusive["trees.enumerate_by_lines"],
        "trees.enumerate.trees": counts["trees.enumerate.trees"],
        **{
            f"trees.enumerate.level_s.{level}": tracer.level_s.get((cap_job, level), 0.0)
            for level in range(levels)
        },
        "trees.encode.s": inclusive["trees.encode"],
        "trees.encode.calls": counts["trees.encode.calls"],
        "verification.verify_oracle.s": inclusive["verification.verify_oracle"],
        "verification.coefficients_checked": counts["verification.coefficients_checked"],
        "roots.rouche_isolation_check.s": inclusive["roots.rouche_isolation_check"],
        "roots.rouche_isolation_check.calls": counts["roots.rouche_isolation_check.calls"],
        "roots.residual_max": tracer.residual_max,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": traced_wall - sum(layer_self.values()),
    }
    return metrics


def measure_traced(
    jobs: list[list[str]], seconds: float, expected: dict[str, str], check=checks.check
):
    """Per-layer metrics from in-process passes, untraced then traced.

    Pairs of passes repeat while another fits in ``seconds``; the metrics
    come from the pair with the median traced wall time, so that its layer
    self times and ``trace.unattributed_s`` add up to its ``trace.wall_s``.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from linetrees import cli

    if Path(cli.__file__).resolve().parent != SRC / "linetrees":
        raise SystemExit(f"error: imported linetrees from {cli.__file__}, not {SRC}")
    import_s = import_seconds(child_env())
    tally = Tally()
    pairs = []
    start = time.perf_counter()
    while True:
        untraced_wall, untraced = run_in_process(cli, jobs)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, traced = run_in_process(cli, jobs, tracer)
        finally:
            tracer.uninstall()
        for argv, (code, out), (_, reference) in zip(jobs, traced, untraced):
            reason = check(argv, code, out)
            if reason is None and out != reference:
                reason = "traced stdout differs from the untraced stdout"
            if reason is None and expected.get(" ".join(argv), digest(out)) != digest(out):
                reason = "stdout differs from the recorded default-seed digest"
            tally.add(argv, reason)
        stdout_bytes = sum(len(out) for _, out in traced)
        pairs.append(
            layer_metrics(tracer, jobs, traced_wall, untraced_wall, stdout_bytes, import_s)
        )
        del tracer, traced, untraced
        elapsed = time.perf_counter() - start
        if elapsed * (len(pairs) + 1) / len(pairs) > seconds:
            break
    pairs.sort(key=lambda m: m["trace.wall_s"])
    return pairs[(len(pairs) - 1) // 2], tally, {"pairs": len(pairs)}


def report(spec_metrics: list[dict], values: dict, tally: Tally, info: dict) -> dict:
    missing = {m["name"] for m in spec_metrics} - set(values)
    if missing:
        raise SystemExit(f"error: metrics not computed: {sorted(missing)}")
    for m in spec_metrics:
        print(f"{m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    failed = len(tally.failures)
    print(f"{'fail_ratio':<40} {failed / tally.attempted:>16.6g} 1"
          f"  ({failed} of {tally.attempted} jobs failed)")
    print("  ".join(f"{k}={v}" for k, v in info.items()))
    for line in tally.failures[:20]:
        print(f"FAILED {line}")
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linetrees" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'linetrees'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    jobs = workloads.jobs(args.workload, args.seed)
    expected = recorded_digests(args.workload, args.seed)
    print(f"workload={args.workload} seed={args.seed} jobs={len(jobs)}", flush=True)
    if args.trace:
        values, tally, info = measure_traced(jobs, args.seconds, expected)
        spec_metrics = spec["per_layer"]
    else:
        values, tally, info = measure(jobs, args.seconds, expected)
        spec_metrics = spec["end_to_end"]
    print(json.dumps(report(spec_metrics, values, tally, info)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
