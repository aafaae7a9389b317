"""Host pace: a fixed calibration round, timed between jobs.

The host the benchmark was written on shares its cores with other tenants,
and its speed drifts by up to 1.7x over a few seconds; every job of a run
moves with it, so raw wall times of the same code differed by a third
between runs. A calibration round is fixed pure-Python work, independent of
critnet, of the kind critnet does (tuples, frozensets, dicts, short lists).
It runs between jobs, at most every `PERIOD_S`, with the collector off. A
job's pace is the median duration of the rounds within `WINDOW_S` of it,
over `REFERENCE_S`; its reported time is its wall time divided by its pace,
that is, the seconds it would take on a host that runs a round in
`REFERENCE_S`. A change to critnet moves the jobs and not the rounds, so it
shows in full; a change in the host's speed moves both and cancels.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

perf = time.perf_counter

REFERENCE_S = 0.003  # a round's duration on a nominal host; fixed, never measured
PERIOD_S = 0.05  # least time between two rounds
WINDOW_S = 0.15  # rounds this close to a job set its pace
NEAREST = 3  # rounds used when fewer lie within the window


def calibration_round() -> int:
    """Fixed work: hash tuples and frozensets into dicts, sort short lists."""
    table: dict[tuple[int, int, int], frozenset[int]] = {}
    seen: set[frozenset[int]] = set()
    total = 0
    for i in range(2500):
        key = (i % 97, i % 89, i % 83)
        state = frozenset(key)
        table[key] = state
        seen.add(state)
        total += len(table.get((i % 50, 1, 2), ()))
        row = [i, i + 1, i % 7]
        row.sort(reverse=True)
        total += row[0]
    return total + len(seen)


class Pace:
    """Calibration rounds over a run: (midpoint, duration), in time order."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def tick(self, force: bool = False) -> None:
        """Run a round if `PERIOD_S` has passed since the last (or if forced)."""
        if not force and self.times and perf() - self.times[-1] < PERIOD_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf()
            calibration_round()
            end = perf()
        finally:
            if enabled:
                gc.enable()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def at(self, start: float, end: float) -> float:
        """The host's pace over [start, end]: round time over `REFERENCE_S`."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < NEAREST:
            middle = (start + end) / 2
            lo = bisect.bisect_left(self.times, middle)
            lo, hi = max(0, lo - NEAREST), min(len(self.times), lo + NEAREST)
            nearest = sorted(range(lo, hi), key=lambda i: abs(self.times[i] - middle))
            picked = [self.durations[i] for i in nearest[:NEAREST]]
        else:
            picked = self.durations[lo:hi]
        return statistics.median(picked) / REFERENCE_S

    def median(self) -> float:
        return statistics.median(self.durations) / REFERENCE_S
