"""Fast self-test of the benchmark: one tiny job per workload.

    python3 -m pytest -q bench/test_selftest.py

It checks that every metric of BENCHMARK.json is printed, in both modes,
that the traced layer self times add up to the traced wall time, and that a
deliberately corrupted output line is counted as a failed job, and that the
roots check catches a wrong count, root, multiplicity or admissibility.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import LAYERS  # noqa: E402

TINY = {
    "series-fixpoint": ["series", "--d", "2", "--order", "4"],
    "sample-draw": ["sample", "--d", "3", "--profile", "1,1,1", "--count", "5", "--seed", "7"],
    "enumerate-stream": ["enumerate", "--d", "2", "--max-lines", "3"],
    "cli-mix": ["count", "--d", "2", "--profile", "1,2"],
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def few_repeats(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "IMPORT_RUNS", 1)


def test_tiny_jobs_cover_every_workload():
    assert set(TINY) == {w["name"] for w in SPEC["workloads"]}
    assert set(TINY) == set(run.workloads.WHY)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_end_to_end_metric_is_printed(workload, capsys):
    result = run.report(SPEC["end_to_end"], *run.measure([TINY[workload]], 0, {}))
    printed = capsys.readouterr().out
    for metric in SPEC["end_to_end"]:
        assert re.search(rf"^{re.escape(metric['name'])} .* {re.escape(metric['unit'])}$",
                         printed, re.M)
        assert result["metrics"][metric["name"]]["value"] > 0
    assert re.search(r"^fail_ratio +0 1 ", printed, re.M)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_per_layer_metric_is_printed(workload, capsys):
    values, tally, info = run.measure_traced([TINY[workload]], 0, {})
    result = run.report(SPEC["per_layer"], values, tally, info)
    printed = capsys.readouterr().out
    for metric in SPEC["per_layer"]:
        assert re.search(rf"^{re.escape(metric['name'])} ", printed, re.M)
    assert result["correct"]
    layers = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    assert layers + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"])


def corrupt_last_digit(argv, returncode, stdout):
    """The real check, applied to stdout with its last digit changed."""
    if argv != ["--version"]:
        match = list(re.finditer(rb"[0-9]", stdout))[-1]
        digit = str((int(stdout[match.start():match.end()]) + 1) % 10).encode()
        stdout = stdout[: match.start()] + digit + stdout[match.end():]
    return checks.check(argv, returncode, stdout)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_corrupted_output_line_counts_as_failure(workload, capsys):
    result = run.report(
        SPEC["end_to_end"], *run.measure([TINY[workload]], 0, {}, check=corrupt_last_digit)
    )
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] == 2
    assert re.search(r"^fail_ratio +0.5 1 ", capsys.readouterr().out, re.M)


ROOTS = ["roots", "--d", "3", "--g=0.05,-0.04,0.03", "--radius", "2.0"]


def _count_two(doc):
    doc["inside_count"] = 2


def _move_a_root(doc):
    doc["roots"][-1]["re"] *= 1.001


def _merge_two_roots(doc):
    doc["roots"][0]["mult"] += 1
    del doc["roots"][-1]


def _flip_admissible(doc):
    doc["admissible"] = not doc["admissible"]


@pytest.mark.parametrize("corrupt", [_count_two, _move_a_root, _merge_two_roots,
                                     _flip_admissible])
def test_roots_check_recomputes_what_it_checks(corrupt):
    result = run.run_process(run.cli_command(ROOTS), run.child_env())
    assert checks.check(ROOTS, result.returncode, result.stdout) is None
    doc = json.loads(result.stdout)
    corrupt(doc)
    assert checks.check(ROOTS, 0, (json.dumps(doc) + "\n").encode()) is not None
