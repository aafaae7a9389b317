"""Self-test of the benchmark at toy sizes.

    python3 -m pytest bench

Runs every workload traced and untraced, checks that the metrics printed
are exactly the ones BENCHMARK.json declares, and that a deliberately
corrupted reference answer is counted as a failure.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
run = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

import workloads  # noqa: E402  (importable once run.py has set the path)

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", sorted(run.GENERATORS))
def test_workload_is_clean_and_reports_declared_metrics(workload, trace, tmp_path):
    metrics, attempted, problems = run.measure(workload, 3, 0, trace, "toy", tmp_path)
    assert problems == []
    assert attempted >= 2 * len(workloads.SIZES)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    if trace:
        assert (tmp_path / "spans.json").is_file()
    assert (tmp_path / "jobs.jsonl").is_file()


def _toy_jobs(tmp_path: Path) -> list[workloads.Job]:
    spec, _, _ = run.set_up("chain", 3, "toy", tmp_path)
    return spec.plan(tmp_path, workloads.Oracle(run.ROOT))


def test_corrupted_references_count_as_failures(tmp_path):
    jobs = _toy_jobs(tmp_path)
    check = next(i for i, j in enumerate(jobs) if j.kind == "check")
    monitor = next(i for i, j in enumerate(jobs) if j.kind == "monitor")
    events = workloads.events_of(Path(jobs[monitor].argv[-1]))
    assert events
    # The chain is observable, and its plant run raises the flag well before
    # the last event; claim otherwise for both.
    jobs[check] = dataclasses.replace(
        jobs[check], verify=workloads.expect_check("3", False, None)
    )
    wrong_flags = [0] * (len(events) - 1) + [1]
    jobs[monitor] = dataclasses.replace(
        jobs[monitor], verify=workloads.expect_monitor(events, wrong_flags)
    )
    runner = run.Runner(jobs)
    runner.run_pass(0)
    problems = runner.problems()
    assert len(problems) == 2
    assert problems[0].startswith("chain:check (pass 0): exit 0, expected 1")
    assert problems[1].startswith("chain:monitor-0 (pass 0): record")


def test_correct_references_pass(tmp_path):
    runner = run.Runner(_toy_jobs(tmp_path))
    runner.run_pass(0)
    assert runner.problems() == []


def test_result_has_the_contract_keys(tmp_path):
    result = run.report(*run.measure("mixed", 1, 0, False, "toy", tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
