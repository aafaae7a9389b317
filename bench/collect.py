"""Run the benchmark over several seeds and record the results.

    python3 bench/collect.py --workloads chain,line --seeds 1-10 --out results.json

Each run is a fresh process (`bench/run.py`), one after another. The output
file holds the machine facts and every run's result line, as `run.py`
printed it. The table on stdout gives, per workload and metric, the median
and the spread: the distance between the first and third quartiles over the
median, as `statistics.quantiles(values, n=4)` gives them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over the median)."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a seed or a range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    runs = []
    for workload in args.workloads.split(","):
        for seed in seeds_of(args.seeds):
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, "trace": args.trace, "result": result})
            print(
                f"{workload} seed {seed}: {time.monotonic() - start:.1f} s, "
                f"failed {result['failed']} of {result['attempted']}",
                flush=True,
            )
    args.out.write_text(json.dumps({"machine": machine(), "runs": runs}, indent=1) + "\n")

    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for run in runs:
            if run["workload"] == workload:
                for name, metric in run["result"]["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}")
        for name, vals in values.items():
            median, iqr = spread(vals)
            bound = bounds.get(name)
            mark = "" if bound is None or iqr < bound / 3 else "  <- above a third of the bound"
            print(f"  {name:34s} median {median:<12.6g} spread {iqr:6.3f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
