"""Replaying event streams through a bank of local observers.

A session holds one local observer per member. Each incoming event moves
every local whose alphabet contains it and leaves the others untouched, so
each local sees exactly the projection of the stream onto its alphabet. The
session keeps one flag per local and refreshes only the flags of the locals
that stepped; the session flag is their OR, recomputed once per event, after
all affected locals have stepped.

Sessions are the one mutable thing in this package and expect a single
writer. They keep the current estimates and a step counter, never a record
per event, so a long stream runs in constant memory. An event no run of the
plant allows poisons the session: the step is not applied and every later
feed fails fast.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .compose import owners_by_label
from .errors import DesyncError, InvalidInputError
from .fsm import Word
from .observer import DecentralizedObserver, ObserverFsm


@dataclass(frozen=True)
class StepRecord:
    """What one event did: who moved, the local flags, the combined flag."""

    index: int
    label: str
    moved: tuple[bool, ...]
    outputs: tuple[int, ...]
    flag: int

    def line(self) -> str:
        bits = "".join(str(y) for y in self.outputs)
        return f"{self.index} {self.label} {bits} {self.flag}"


class MonitorSession:
    """Stateful replay of an event stream through local observers."""

    def __init__(self, locals_: Sequence[tuple[str, ObserverFsm]]):
        if not locals_:
            raise InvalidInputError("a session needs at least one local observer")
        names = [name for name, _ in locals_]
        if len(set(names)) != len(names):
            raise InvalidInputError(f"duplicate local names in {names}")
        self._locals = tuple(locals_)
        self._states = [obs.initial for _, obs in self._locals]
        self._outputs = [obs.output(obs.initial) for _, obs in self._locals]
        # Per label: the locals that step, and the record's moved flags.
        self._owners = {
            label: (idx, tuple(i in idx for i in range(len(self._locals))))
            for label, idx in owners_by_label(obs for _, obs in self._locals)
        }
        self.poisoned = False
        self.steps = 0

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._locals)

    @property
    def states(self) -> tuple:
        return tuple(self._states)

    @property
    def outputs(self) -> tuple[int, ...]:
        return tuple(self._outputs)

    @property
    def flag(self) -> int:
        return 1 if any(self._outputs) else 0

    def feed(self, label: str) -> StepRecord:
        """Apply one event atomically and count the step.

        The label must belong to at least one local's alphabet. If some
        local that owns the label has no move, no local steps at all, the
        session is poisoned, and the desync is raised naming that local.
        """
        if self.poisoned:
            raise DesyncError("session poisoned by an earlier desync")
        if label not in self._owners:
            raise InvalidInputError(f"label {label!r} is in no local's alphabet")
        owners, moved = self._owners[label]
        targets = {}
        for i in owners:
            nxt = self._locals[i][1].succ_state(self._states[i], label)
            if nxt is None:
                self.poisoned = True
                raise DesyncError(
                    f"local {self._locals[i][0]!r} has no move on {label!r}: "
                    f"the stream is not a trace of the composed plant"
                )
            targets[i] = nxt
        for i, nxt in targets.items():
            self._states[i] = nxt
            self._outputs[i] = self._locals[i][1].output(nxt)
        self.steps += 1
        outputs = tuple(self._outputs)
        return StepRecord(
            index=self.steps,
            label=label,
            moved=moved,
            outputs=outputs,
            flag=1 if any(outputs) else 0,
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
