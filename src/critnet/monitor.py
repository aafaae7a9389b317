"""Replaying event streams through a bank of local observers.

A session holds one local observer per member. Each incoming event moves
every local whose alphabet contains it and leaves the others untouched, so
each local sees exactly the projection of the stream onto its alphabet. The
session flag is the OR of the local flags, recomputed once per event, after
all affected locals have stepped.

A session compiles its locals once, when it starts. Locals with equal
observers own the same labels and move in lockstep, so they share one
cursor, as bisimilar members lifted from one class representative do; full
equality is only tested between observers with the same initial state,
alphabet and size. Each cursor steps over its observer's int table
(``ObserverFsm.rows`` and ``flags``), compiled at start into one row per
label mapping a state position to the next (None when there is no move).
An event steps each distinct owner once and fans the flags out to every
local.

Sessions are the one mutable thing in this package and expect a single
writer. Their memory is fixed at start: the tables are sized by the
distinct observers, and no record is kept per event, only the current
states and two counters. An event no run of the plant allows poisons the
session: the step is not applied and every later feed fails fast.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .compose import owners_by_label
from .errors import DesyncError, InvalidInputError
from .fsm import Word
from .observer import DecentralizedObserver, ObserverFsm

_BITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class StepRecord:
    """What one event did: who moved, the local flags, the combined flag."""

    index: int
    label: str
    moved: tuple[bool, ...]
    outputs: tuple[int, ...]
    flag: int

    def line(self) -> str:
        bits = bytes(self.outputs).translate(_BITS).decode("ascii")
        return f"{self.index} {self.label} {bits} {self.flag}"


class MonitorSession:
    """Stateful replay of an event stream through local observers.

    ``steps`` counts the events applied and ``raises`` the events after
    which the session flag went from 0 to 1.
    """

    def __init__(self, locals_: Sequence[tuple[str, ObserverFsm]]):
        if not locals_:
            raise InvalidInputError("a session needs at least one local observer")
        names = [name for name, _ in locals_]
        if len(set(names)) != len(names):
            raise InvalidInputError(f"duplicate local names in {names}")
        self._locals = tuple(locals_)
        # Cursors are numbered by first use, so a lower cursor's first local
        # comes earlier in the session. Full identities are compared only
        # among observers that agree on initial state, alphabet and size.
        observers: list[ObserverFsm] = []
        alike: dict[tuple, list[int]] = {}
        cursors = []
        for _, obs in self._locals:
            same = alike.setdefault((obs.initial, obs.alphabet, len(obs.states)), [])
            for c in same:
                if observers[c] is obs or observers[c] == obs:
                    break
            else:
                c = len(observers)
                observers.append(obs)
                same.append(c)
            cursors.append(c)
        self._cursors = tuple(cursors)
        # Per cursor: its observer's states and outputs by position, the
        # current position, and the current output.
        self._outputs_by_id = [obs.flags for obs in observers]
        self._estimates = [obs.states for obs in observers]
        self._current = [obs.start for obs in observers]
        self._out = [out[i] for out, i in zip(self._outputs_by_id, self._current)]
        # Per label: the cursors that step, their rows by position, and the
        # record's moved flags.
        self._labels = {
            label: (
                owners,
                tuple(tuple(row.get(label) for row in observers[c].rows) for c in owners),
                tuple(c in owners for c in self._cursors),
            )
            for label, owners in owners_by_label(observers)
        }
        self._last_flag = self.flag
        self.poisoned = False
        self.steps = 0
        self.raises = 0

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._locals)

    @property
    def states(self) -> tuple:
        return tuple(self._estimates[c][self._current[c]] for c in self._cursors)

    @property
    def outputs(self) -> tuple[int, ...]:
        return tuple(map(self._out.__getitem__, self._cursors))

    @property
    def flag(self) -> int:
        return 1 if 1 in self._out else 0

    def feed(self, label: str) -> StepRecord:
        """Apply one event atomically and count the step.

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
        owners, rows, moved = entry
        current = self._current
        targets = list(map(tuple.__getitem__, rows, map(current.__getitem__, owners)))
        if None in targets:
            self.poisoned = True
            stuck = self._cursors.index(owners[targets.index(None)])
            raise DesyncError(
                f"local {self._locals[stuck][0]!r} has no move on {label!r}: "
                f"the stream is not a trace of the composed plant"
            )
        out, outputs_by_id = self._out, self._outputs_by_id
        for c, nxt in zip(owners, targets):
            current[c] = nxt
            out[c] = outputs_by_id[c][nxt]
        self.steps += 1
        flag = 1 if 1 in out else 0
        if flag > self._last_flag:
            self.raises += 1
        self._last_flag = flag
        return StepRecord(
            index=self.steps,
            label=label,
            moved=moved,
            outputs=tuple(map(out.__getitem__, self._cursors)),
            flag=flag,
        )

    def replay(self, word: Word | Iterable[str]) -> list[StepRecord]:
        """Feed a whole word; the first desync propagates."""
        return [self.feed(label) for label in word]


def start_session(
    source: DecentralizedObserver | Sequence[tuple[str, ObserverFsm]],
) -> MonitorSession:
    """Open a session over a bank or over explicit (name, observer) pairs."""
    if isinstance(source, DecentralizedObserver):
        return MonitorSession(source.locals)
    return MonitorSession(tuple(source))
