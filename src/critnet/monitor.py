"""Replaying event streams through a bank of local observers.

A session runs a bank (``DecentralizedObserver``), one local observer per
member, which the bank checked when it was built. Each incoming event moves
every local whose alphabet contains it and leaves the others untouched, so
each local sees exactly the projection of the stream onto its alphabet. The
session flag is the OR of the local flags after all affected locals have
stepped.

A session compiles its locals once, when it starts. Locals with equal int
tables (``observer.distinct_tables``) own the same labels and move in
lockstep, whatever their states are called, so they share one cursor, as
bisimilar members lifted from one class representative do; each local still
reads its own states. Each cursor steps over its observer's int table
(``ObserverFsm.rows`` and ``flags``), compiled at start into one row per
label mapping a state position to the next (None when there is no move).

Every event goes through one step, ``feed``, which commits only if every
owner can move. The local flags live in a buffer of ``'0'``/``'1'`` bytes,
next to a count of raised cursors; both change only where a cursor's output
flips, so an event costs its owners plus one decode, however many locals
there are. ``lines`` yields each record's text as its event is applied.

Sessions are the one mutable thing in this package and expect a single
writer. Their memory is fixed at start: the compiled tables are sized by
the distinct local tables, and no record is kept per event, only the current
states, the bit buffer and three counters. An event no run of the plant
allows poisons the session: the step is not applied and every later feed
fails fast.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from .compose import owners_by_label
from .errors import DesyncError, InvalidInputError
from .fsm import Word
from .observer import DecentralizedObserver, ObserverFsm, distinct_tables


class StepRecord(NamedTuple):
    """What one event did: who moved, each local's flag as '0'/'1', the OR."""

    index: int
    label: str
    moved: tuple[bool, ...]
    bits: str
    flag: int

    @property
    def outputs(self) -> tuple[int, ...]:
        return tuple(map(int, self.bits))

    def line(self) -> str:
        return f"{self.index} {self.label} {self.bits} {self.flag}"


class MonitorSession:
    """Stateful replay of an event stream through a bank of local observers.

    ``steps`` counts the events applied and ``raises`` the events after
    which the session flag went from 0 to 1.
    """

    def __init__(self, bank: DecentralizedObserver):
        self._locals = bank.locals
        # Numbered by first use, so a lower cursor's first local comes earlier.
        self._cursors, observers = distinct_tables(obs for _, obs in self._locals)
        # Per cursor: its observer's flags by position, the current position
        # and output, and the locals it fans out to. The locals' outputs are
        # kept as '0'/'1' bytes, with a count of the cursors that are raised;
        # both change only when an output flips.
        flags = [obs.flags for obs in observers]
        rows = [obs.rows for obs in observers]
        self._current = [obs.start for obs in observers]
        self._out = [f[i] for f, i in zip(flags, self._current)]
        self._fanout = [[] for _ in observers]
        for i, c in enumerate(self._cursors):
            self._fanout[c].append(i)
        self._bits = bytearray(48 + self._out[c] for c in self._cursors)
        self._raised = sum(self._out)
        # Per label: each owning cursor with its row by position and its
        # flags, and the record's moved flags.
        self._labels = {
            label: (
                tuple((c, tuple(row.get(label) for row in rows[c]), flags[c]) for c in owners),
                tuple(c in owners for c in self._cursors),
            )
            for label, owners in owners_by_label(observers)
        }
        self.poisoned = False
        self.steps = 0
        self.raises = 0

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._locals)

    @property
    def states(self) -> tuple:
        return tuple(obs.states[self._current[c]] for (_, obs), c in zip(self._locals, self._cursors))

    @property
    def outputs(self) -> tuple[int, ...]:
        return tuple(map(self._out.__getitem__, self._cursors))

    @property
    def flag(self) -> int:
        return 1 if self._raised else 0

    def feed(self, label: str) -> StepRecord:
        """Apply one event atomically, count the step, and return its record.

        The label must belong to at least one local's alphabet. If some
        local that owns the label has no move, no local steps at all, the
        session is poisoned, and the desync is raised naming the first such
        local in session order.
        """
        if self.poisoned:
            raise DesyncError("session poisoned by an earlier desync")
        entry = self._labels.get(label)
        if entry is None:
            raise InvalidInputError(f"label {label!r} is in no local's alphabet")
        moves, moved = entry
        current = self._current
        for c, row, _ in moves:
            if row[current[c]] is None:
                self.poisoned = True
                raise DesyncError(
                    f"local {self._locals[self._cursors.index(c)][0]!r} has no move on "
                    f"{label!r}: the stream is not a trace of the composed plant"
                )
        raised = before = self._raised
        out, bits = self._out, self._bits
        for c, row, flags in moves:
            nxt = current[c] = row[current[c]]
            if flags[nxt] != out[c]:
                out[c] = o = flags[nxt]
                raised += 1 if o else -1
                for i in self._fanout[c]:
                    bits[i] = 48 + o
        if raised != before:
            self._raised = raised
            if not before:
                self.raises += 1
        self.steps = steps = self.steps + 1
        # tuple.__new__ skips the Python-level __new__ of the named tuple.
        return tuple.__new__(StepRecord, (steps, label, moved, bits.decode(), 1 if raised else 0))

    def lines(self, labels: Iterable[str]) -> Iterator[str]:
        """Feed each label as it is drawn and yield its record's line; the next
        label is drawn only once the line is taken. The first error propagates."""
        feed = self.feed
        for label in labels:
            yield feed(label).line()

    def replay(self, word: Word | Iterable[str]) -> list[StepRecord]:
        """Feed a whole word; the first desync propagates."""
        return [self.feed(label) for label in word]


def start_session(
    source: DecentralizedObserver | Sequence[tuple[str, ObserverFsm]],
) -> MonitorSession:
    """Open a session over a bank or over explicit (name, observer) pairs,
    which are checked as a bank."""
    if not isinstance(source, DecentralizedObserver):
        source = DecentralizedObserver(source)
    return MonitorSession(source)
