"""Spans around the calls each critnet module makes into the next.

The library is not edited. `Tracer.install` replaces module attributes (the
names `critnet.cli` and `critnet.pipeline` call through, and
`MonitorSession.feed`) with wrappers that record a span per call and, where
a layer does countable work, a few counts taken from its return value.
`uninstall` puts the originals back. A target the library no longer has is
skipped with a warning, so the untraced metrics never depend on internals.

A span is (name, start, end, parent span, job id). Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from pathlib import Path

perf = time.perf_counter


def _ledger(report) -> dict:
    return {"ledger_space": report.ledger.space, "ledger_time": report.ledger.time}


def _length(result) -> dict:
    return {"output_bytes": len(result)}


# (module, attribute, span name, counts taken from the result)
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("critnet.cli", "run_algorithm3", "pipeline.run_algorithm3", _ledger),
    ("critnet.cli", "run_algorithm1", "pipeline.run_algorithm1", _ledger),
    ("critnet.cli", "parse_network", "netio.parse_network", None),
    ("critnet.cli", "parse_observers", "netio.parse_observers", None),
    ("critnet.cli", "serialize_network", "netio.serialize", _length),
    ("critnet.cli", "serialize_observer", "netio.serialize", _length),
    ("critnet.cli", "export_dot", "netio.serialize", _length),
    (
        "critnet.cli",
        "quotient_network",
        "equivalence.quotient_network",
        lambda r: {"classes": len(r[1].classes)},
    ),
    (
        "critnet.cli",
        "compose_network",
        "compose.compose_network",
        lambda r: {"product_states": len(r.states)},
    ),
    ("critnet.cli", "start_session", "monitor.start_session", None),
    (
        "critnet.pipeline",
        "quotient_network",
        "equivalence.quotient_network",
        lambda r: {"classes": len(r[1].classes)},
    ),
    (
        "critnet.pipeline",
        "build_decentralized",
        "observer.build_decentralized",
        lambda r: {"local_states": sum(len(obs.states) for _, obs in r.locals)},
    ),
    (
        "critnet.pipeline",
        "compose_decentralized",
        "observer.compose_decentralized",
        lambda r: {"bank_states": len(r.states)},
    ),
    (
        "critnet.equivalence",
        "bisim_check",
        "equivalence.bisim_check",
        lambda r: {"merges": int(r is not None)},
    ),
]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, job]
        self.counts: dict[int, dict] = {}  # span index -> counts
        self.generations: dict[int, list] = {}  # span index -> [(t, frontier, seen)]
        self.sessions: list = []
        self.retained: dict[int, int] = {}  # job -> monitor records kept
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # --- recording ---

    def _wrap(self, name: str, fn: Callable, counts: Callable | None = None) -> Callable:
        spans, stack, counts_of = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.job)
            if counts is not None:
                counts_of[idx] = counts(result)
            return result

        return traced

    def _wrap_onthefly(self, fn: Callable) -> Callable:
        """Explorer span plus its per-generation hook and result counts."""
        spans = self.spans
        inner = self._wrap("onthefly.run_onthefly", fn)

        def run_onthefly(network, max_states=None, on_generation=None):
            idx = len(spans)
            log = self.generations[idx] = []

            def hook(generation, frontier, seen):
                log.append((perf(), frontier, seen))
                if on_generation is not None:
                    on_generation(generation, frontier, seen)

            outcome = inner(network, max_states, on_generation=hook)
            self.counts[idx] = {
                "aggregates": outcome.aggregates_seen,
                "generations": outcome.generations,
            }
            return outcome

        return run_onthefly

    def call_job(self, job: int, fn: Callable, *args):
        """Run one CLI job under a root span."""
        self.job = job
        self.sessions.clear()
        try:
            return self._wrap("cli.main", fn)(*args)
        finally:
            self.retained[job] = sum(len(getattr(s, "step_log", ())) for s in self.sessions)
            self.sessions.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for module_name, attr, name, counts in TARGETS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                print(f"trace: {module_name}.{attr} not found, not traced", file=sys.stderr)
                continue
            fn = getattr(module, attr)
            if attr == "start_session":
                fn = self._keep_session(fn)
            self._patch(module, attr, self._wrap(name, fn, counts))
        pipeline = importlib.import_module("critnet.pipeline")
        if hasattr(pipeline, "run_onthefly"):
            self._patch(pipeline, "run_onthefly", self._wrap_onthefly(pipeline.run_onthefly))
        monitor = importlib.import_module("critnet.monitor")
        self._patch(monitor.MonitorSession, "feed", self._wrap("monitor.feed", monitor.MonitorSession.feed))

    def _keep_session(self, fn: Callable) -> Callable:
        def start_session(*args, **kwargs):
            session = fn(*args, **kwargs)
            self.sessions.append(session)
            return session

        return start_session

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- results ---

    def write(self, path: Path, origin: float) -> None:
        """Spans as JSON: one [name, start, end, parent, job] row per span."""
        rows = [
            [name, round(start - origin, 7), round(end - origin, 7), parent, job]
            for name, start, end, parent, job in self.spans
        ]
        path.write_text(
            json.dumps({"columns": ["name", "start_s", "end_s", "parent", "job"], "spans": rows})
        )

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, pass_of: list[int]) -> tuple[dict, list[str], int]:
    """Per-layer metrics from the spans of the traced passes.

    Times named `_s` are medians per call. Counts are totals over one pass
    of the workload; they must repeat exactly from pass to pass. Returns the
    metrics, one problem per pass whose counts differ from the first, and
    the number of passes so compared.
    """
    own = tracer.self_times()
    durations: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, list[float]] = defaultdict(list)
    per_pass: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    explore_us = aggregates_total = 0.0
    tails: list[float] = []
    for idx, (name, start, end, _, job) in enumerate(tracer.spans):
        durations[name].append(end - start)
        self_s[name].append(own[idx])
        counts = per_pass[pass_of[job]]
        for key, value in tracer.counts.get(idx, {}).items():
            counts[key] += value
        if name == "equivalence.bisim_check":
            counts["bisim_check_calls"] += 1
        elif name == "monitor.feed":
            counts["events"] += 1
        elif name == "onthefly.run_onthefly":
            log = tracer.generations.get(idx, [])
            explore_us += (end - start) * 1e6
            aggregates_total += tracer.counts[idx]["aggregates"]
            if log:
                tails.append(end - log[-1][0])
                counts["peak_frontier"] = max(counts["peak_frontier"], *(f for _, f, _ in log))
    for job, kept in tracer.retained.items():
        per_pass[pass_of[job]]["retained_records"] += kept

    problems = []
    passes = sorted(per_pass)
    first = per_pass[passes[0]] if passes else {}
    for p in passes[1:]:
        differ = sorted(k for k in set(first) | set(per_pass[p]) if first.get(k) != per_pass[p].get(k))
        if differ:
            problems.append(f"counts {', '.join(differ)} of pass {p} differ from pass {passes[0]}")
    calls = first.get("bisim_check_calls", 0)
    feed_us = [d * 1e6 for d in durations["monitor.feed"]]
    pipeline_self = self_s["pipeline.run_algorithm3"] + self_s["pipeline.run_algorithm1"]

    metrics = {
        "onthefly.explore_s": (_median(durations["onthefly.run_onthefly"]), "s"),
        "onthefly.us_per_aggregate": (explore_us / aggregates_total if aggregates_total else 0.0, "us"),
        "onthefly.aggregates": (first.get("aggregates", 0), "count"),
        "onthefly.generations": (first.get("generations", 0), "count"),
        "onthefly.peak_frontier": (first.get("peak_frontier", 0), "count"),
        "onthefly.tail_s": (_median(tails), "s"),
        "equivalence.quotient_s": (_median(durations["equivalence.quotient_network"]), "s"),
        "equivalence.bisim_check_calls": (calls, "count"),
        "equivalence.bisim_check_s": (_median(durations["equivalence.bisim_check"]), "s"),
        "equivalence.merge_ratio": (first.get("merges", 0) / calls if calls else 0.0, "ratio"),
        "equivalence.classes": (first.get("classes", 0), "count"),
        "observer.build_decentralized_s": (_median(durations["observer.build_decentralized"]), "s"),
        "observer.local_states": (first.get("local_states", 0), "count"),
        "observer.compose_decentralized_s": (_median(durations["observer.compose_decentralized"]), "s"),
        "observer.bank_states": (first.get("bank_states", 0), "count"),
        "compose.compose_network_s": (_median(durations["compose.compose_network"]), "s"),
        "compose.product_states": (first.get("product_states", 0), "count"),
        "netio.parse_network_s": (_median(durations["netio.parse_network"]), "s"),
        "netio.serialize_s": (_median(durations["netio.serialize"]), "s"),
        "netio.parse_observers_s": (_median(durations["netio.parse_observers"]), "s"),
        "netio.output_bytes": (first.get("output_bytes", 0), "bytes"),
        "pipeline.self_s": (_median(pipeline_self), "s"),
        "pipeline.ledger_space": (first.get("ledger_space", 0), "count"),
        "pipeline.ledger_time": (first.get("ledger_time", 0), "count"),
        "monitor.feed_us.p50": (_median(feed_us), "us"),
        "monitor.feed_us.p99": (quantile(feed_us, 99), "us"),
        "monitor.events": (first.get("events", 0), "count"),
        "monitor.retained_records": (first.get("retained_records", 0), "count"),
        "cli.self_s": (_median(self_s["cli.main"]), "s"),
    }
    return metrics, problems, max(len(passes) - 1, 0)
