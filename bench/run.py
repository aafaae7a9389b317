"""critnet benchmark: one workload per run, closed loop, the real CLI in-process.

    python3 bench/run.py --workload chain --seed 1 --seconds 12 --trace 0

A run sets up its inputs from the seed (importing critnet and writing the
generated `.net` and event files, several times, reporting the median),
computes reference answers outside the timed region, then runs passes of
the workload's jobs through `critnet.cli.main([...])` until `--seconds`
have elapsed: one job at a time, with `gc.collect()` between jobs and
stdout captured. Every job's exit code and output are checked against its
reference; each mismatch is printed by name on stderr and counted as failed.

`--trace 0` prints the end-to-end metrics. Their times are wall times
divided by the host's pace, measured by a fixed calibration round between
jobs (see `pace.py`), because the host's own speed drifts by more than the
benchmark's bounds; raw wall medians and the pace are printed on stderr. `--trace 1` alternates untraced
and traced passes and prints per-layer metrics taken from spans recorded
around each layer's public functions, plus the tracing overhead. The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`. Work files, the per-job log (wall time next to the
space/time ledger for every check) and the spans go to
`bench/.work/<workload>-<seed>-t<trace>/`.

Exit status is 0 when a result was printed, 2 when the run could not be
made (for instance, no critnet sources beside this directory).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from pace import Pace  # noqa: E402
from tracing import Tracer, layer_metrics, quantile  # noqa: E402
from workloads import GENERATORS, SIZES, Job, Oracle, Spec, ledger_of  # noqa: E402

perf = time.perf_counter
SETUP_REPEATS = 7
KINDS = ("check", "baseline", "synth", "compose", "reduce", "monitor")


def import_critnet():
    """Import critnet afresh from this checkout's `src`."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "critnet" or n.startswith("critnet.")]:
        del sys.modules[name]
    module = importlib.import_module("critnet")
    if Path(module.__file__).resolve().parent != (ROOT / "src" / "critnet").resolve():
        raise ImportError(f"critnet came from {module.__file__}, not from {src}")
    return module


def set_up(
    workload: str, seed: int, scale: str, work: Path, pace: Pace | None = None
) -> tuple[Spec, list[float], list[float]]:
    """Import critnet, generate and write the inputs; time each repeat.

    Returns the spec, the import times, and the set-up times divided by the
    host's pace around each repeat.
    """
    pace = pace or Pace()
    import_s, setup_s = [], []
    for _ in range(SETUP_REPEATS if scale == "full" else 1):
        pace.tick(force=True)
        start = perf()
        import_critnet()
        imported = perf()
        spec = GENERATORS[workload](seed, **SIZES[workload][scale])
        for name, text in spec.files.items():
            (work / name).write_text(text, encoding="utf-8")
        end = perf()
        pace.tick(force=True)
        setup_s.append((end - start) / pace.at(start, end))
        import_s.append(imported - start)
    return spec, import_s, setup_s


@dataclass(frozen=True)
class Record:
    index: int  # position in the workload's job list
    pass_no: int
    traced: bool
    start: float
    seconds: float
    code: int | None
    lines: int
    ledger: tuple[int, int] | None
    problem: str | None


class Runner:
    """Runs passes over a job list and checks every output."""

    def __init__(self, jobs: list[Job], tracer: Tracer | None = None, pace: Pace | None = None):
        self.jobs = jobs
        self.tracer = tracer
        self.pace = pace or Pace()
        self.records: list[Record] = []
        self._digests: dict[int, str] = {}
        self._main = importlib.import_module("critnet.cli").main

    def run_pass(self, pass_no: int, traced: bool = False) -> float:
        """One pass of every job; returns the seconds spent inside jobs."""
        if traced:
            self.tracer.install()
        try:
            return sum(self._run(index, pass_no, traced) for index in range(len(self.jobs)))
        finally:
            if traced:
                self.tracer.uninstall()

    def run_fair(self, seconds: float) -> None:
        """Run jobs until `seconds` have passed and each kind ran, untraced.

        The next job is always of the kind that has had the least time so
        far, so each kind gets about an equal share of the run and quick
        kinds give many samples. Within a kind the jobs take turns.
        """
        by_kind: dict[str, list[int]] = {}
        for index, job in enumerate(self.jobs):
            by_kind.setdefault(job.kind, []).append(index)
        spent = dict.fromkeys(by_kind, 0.0)
        turns = dict.fromkeys(by_kind, 0)
        deadline = perf() + seconds
        while perf() < deadline or not all(turns.values()):
            kind = min(spent, key=spent.get)
            indices = by_kind[kind]
            cycle, turn = divmod(turns[kind], len(indices))
            turns[kind] += 1
            spent[kind] += self._run(indices[turn], 1 + cycle, False)

    def _run(self, index: int, pass_no: int, traced: bool) -> float:
        """Run one job, check its output, and log it; returns its seconds."""
        job = self.jobs[index]
        job_id = len(self.records)
        argv = list(job.argv)
        out, err = io.StringIO(), io.StringIO()
        error = None
        self.pace.tick()
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf()
            try:
                if traced:
                    code = self.tracer.call_job(job_id, self._main, argv)
                else:
                    code = self._main(argv)
            except Exception as e:  # a crash is a failed job, not a failed run
                code, error = None, f"raised {type(e).__name__}: {e}"
            seconds = perf() - start
        text = out.getvalue()
        problem = error or job.verify(code, text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if problem is None and self._digests.setdefault(index, digest) != digest:
            problem = "stdout differs from the job's first run"
        if job.save_stdout is not None and code == 0:
            job.save_stdout.write_text(text, encoding="utf-8")
        ledger = ledger_of(text) if job.kind in ("check", "baseline") else None
        self.records.append(
            Record(index, pass_no, traced, start, seconds, code, text.count("\n"), ledger, problem)
        )
        return seconds

    def problems(self) -> list[str]:
        return [
            f"{self.jobs[r.index].name} (pass {r.pass_no}): {r.problem}"
            for r in self.records
            if r.problem
        ]

    def write_log(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as f:
            for job_id, r in enumerate(self.records):
                job = self.jobs[r.index]
                entry = {
                    "job": job_id,
                    "pass": r.pass_no,
                    "traced": r.traced,
                    "name": job.name,
                    "kind": job.kind,
                    "wall_s": r.seconds,
                    "pace": self.pace.at(r.start, r.start + r.seconds),
                    "exit": r.code,
                    "problem": r.problem,
                }
                if r.ledger is not None:
                    entry["ledger_space"], entry["ledger_time"] = r.ledger
                f.write(json.dumps(entry) + "\n")


def end_to_end(runner: Runner, setup_s: list[float]) -> dict:
    """End-to-end metrics from the timed (not warm-up) jobs.

    Each job's time is its wall time over the host's pace around it.
    Percentiles are over inputs: each job's time is the median of its
    repeats, and `.p50`/`.p90` are taken over the jobs of a kind. A workload
    with one network per kind thus reports equal p50 and p90, and noise in a
    few repeats does not move the tail.
    """
    times = _medians(runner, lambda r: runner.pace.at(r.start, r.start + r.seconds))
    wall = _medians(runner, lambda r: 1.0)
    print(
        f"host pace {runner.pace.median():.4g} over {len(runner.pace.durations)} rounds; "
        f"wall medians: check {statistics.median(wall['check']):.6g} s, "
        f"synth {statistics.median(wall['synth']):.6g} s, "
        f"monitor {statistics.median(wall['monitor']):.6g} events/s",
        file=sys.stderr,
    )
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "check_s.p50": (statistics.median(times["check"]), "s"),
        "check_s.p90": (quantile(times["check"], 90), "s"),
        "synth_s.p50": (statistics.median(times["synth"]), "s"),
        "synth_s.p90": (quantile(times["synth"], 90), "s"),
        "baseline_s.p50": (statistics.median(times["baseline"]), "s"),
        "compose_s.p50": (statistics.median(times["compose"]), "s"),
        "reduce_s.p50": (statistics.median(times["reduce"]), "s"),
        "monitor_events_per_s": (statistics.median(times["monitor"]), "events/s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }


def _medians(runner: Runner, pace_of) -> dict[str, list[float]]:
    """Per kind, each timed job's median over its repeats of its time
    (events per second for monitor jobs), with wall time divided by `pace_of`."""
    samples: dict[int, list[float]] = {}
    for r in runner.records:
        if r.pass_no > 0:
            seconds = r.seconds / pace_of(r)
            value = r.lines / seconds if runner.jobs[r.index].kind == "monitor" else seconds
            samples.setdefault(r.index, []).append(value)
    times: dict[str, list[float]] = {kind: [] for kind in KINDS}
    for index, values in samples.items():
        times[runner.jobs[index].kind].append(statistics.median(values))
    return times


def measure(
    workload: str, seed: int, seconds: float, trace: bool, scale: str, work: Path
) -> tuple[dict, int, list[str]]:
    """Set up, run jobs for `seconds`, and check every output.

    Returns (metrics as name -> (value, unit), jobs attempted, problems).
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pace = Pace()
    spec, import_s, setup_s = set_up(workload, seed, scale, work, pace)
    jobs = spec.plan(work, Oracle(ROOT))
    tracer = Tracer() if trace else None
    runner = Runner(jobs, tracer, pace)
    gc.collect()
    gc.freeze()  # keep inputs and references out of the per-job collections

    runner.run_pass(0)  # warm-up: checked, but not timed
    origin = perf()
    pair_seconds = {False: 0.0, True: 0.0}
    if trace:
        # Whole passes, so that counts per pass compare; untraced and traced
        # passes alternate which goes first.
        pass_no = 1
        while pass_no == 1 or perf() - origin < seconds:
            for traced in (False, True) if pass_no % 4 == 1 else (True, False):
                pair_seconds[traced] += runner.run_pass(pass_no, traced)
                pass_no += 1
    else:
        runner.run_fair(seconds)
    pace.tick(force=True)  # a round after the last job

    problems = runner.problems()
    attempted = len(runner.records)
    runner.write_log(work / "jobs.jsonl")
    if trace:
        tracer.write(work / "spans.json", origin)
        pass_of = [r.pass_no for r in runner.records]
        metrics, count_problems, compared = layer_metrics(tracer, pass_of)
        problems += count_problems
        attempted += compared
        if spec.aggregates is not None:
            for idx, counts in tracer.counts.items():
                if "aggregates" not in counts:
                    continue
                attempted += 1
                if counts["aggregates"] != spec.aggregates:
                    problems.append(
                        f"onthefly span {idx}: {counts['aggregates']} aggregates, "
                        f"expected {spec.aggregates}"
                    )
        metrics["setup.import_s"] = (statistics.median(import_s), "s")
        metrics["trace.overhead_share"] = (
            pair_seconds[True] / pair_seconds[False] - 1,
            "share",
        )
    else:
        metrics = end_to_end(runner, setup_s)
    return metrics, attempted, problems


def report(metrics: dict, attempted: int, problems: list[str]) -> dict:
    """Print mismatches and metrics on stderr; return the result object."""
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    failed = len(problems)
    print(f"failed_share {failed / attempted:.4f} share ({failed} of {attempted})", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = HERE / ".work" / f"{args.workload}-{args.seed}-t{args.trace}"
    try:
        measured = measure(args.workload, args.seed, args.seconds, bool(args.trace), "full", work)
    except ImportError as e:
        print(f"error: cannot run the benchmark: {e}", file=sys.stderr)
        return 2
    print(json.dumps(report(*measured)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
