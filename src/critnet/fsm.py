"""Core data model: nondeterministic finite state machines with critical states.

A machine is a tuple (states, initial, alphabet, transitions, critical).
Transitions are nondeterministic: each (state, label) pair maps to a set of
successors, with absent pairs meaning the empty set. Machines are immutable
after construction and every operation here is a pure function.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from .errors import InvalidInputError, MalformedFsmError

# A word is a finite sequence of labels; the empty tuple is the empty word.
Word = tuple[str, ...]

# Reserved in textual word representations for the empty word; never a label.
EPSILON_TOKEN = "eps"

_EMPTY: frozenset[str] = frozenset()


class Fsm:
    """Finite state machine with a designated set of critical states.

    Construction validates structural rules and raises MalformedFsmError on
    violation. The initial states must be homogeneous: all critical or all
    non-critical, otherwise no observer could ever classify the empty trace.
    """

    __slots__ = ("states", "initial", "alphabet", "critical", "_delta", "_key", "_ints")

    def __init__(
        self,
        states: Iterable[str],
        initial: Iterable[str],
        alphabet: Iterable[str],
        transitions: Iterable[tuple[str, str, str]],
        critical: Iterable[str] = (),
    ):
        self.states = frozenset(states)
        self.initial = frozenset(initial)
        self.alphabet = frozenset(alphabet)
        self.critical = frozenset(critical)

        if not self.states:
            raise MalformedFsmError("machine needs at least one state")
        if any(not s for s in self.states):
            raise MalformedFsmError("state names must be nonempty")
        if not self.initial:
            raise MalformedFsmError("machine needs at least one initial state")
        if not self.initial <= self.states:
            raise MalformedFsmError(
                f"initial states {sorted(self.initial - self.states)} not in state set"
            )
        if not self.critical <= self.states:
            raise MalformedFsmError(
                f"critical states {sorted(self.critical - self.states)} not in state set"
            )
        for label in self.alphabet:
            if not label:
                raise MalformedFsmError("empty string is not a valid label")
            if label == EPSILON_TOKEN:
                raise MalformedFsmError(f"label {EPSILON_TOKEN!r} is reserved for the empty word")

        delta: dict[str, dict[str, set[str]]] = {}
        for src, label, dst in transitions:
            if src not in self.states:
                raise MalformedFsmError(f"transition source {src!r} not in state set")
            if dst not in self.states:
                raise MalformedFsmError(f"transition target {dst!r} not in state set")
            if label not in self.alphabet:
                raise MalformedFsmError(f"transition label {label!r} not in alphabet")
            delta.setdefault(src, {}).setdefault(label, set()).add(dst)
        self._delta: dict[str, dict[str, frozenset[str]]] = {
            src: {label: frozenset(dsts) for label, dsts in by_label.items()}
            for src, by_label in delta.items()
        }

        # Initial homogeneity: a mixed initial set already straddles the
        # critical boundary before any event happens.
        if self.initial & self.critical and not self.initial <= self.critical:
            raise MalformedFsmError(
                "initial states must be all critical or all non-critical"
            )

        # Built on first use; see _identity and int_moves.
        self._key = None
        self._ints = None

    def succ(self, state: str, label: str) -> frozenset[str]:
        """Successor set of one state under one label (empty if none)."""
        return self._delta.get(state, {}).get(label, _EMPTY)

    def moves(self, state: str) -> Mapping[str, frozenset[str]]:
        """All outgoing transitions of a state, keyed by label."""
        return self._delta.get(state, {})

    def transitions(self) -> Iterator[tuple[str, str, str]]:
        """Iterate transition triples (src, label, dst) in canonical order."""
        for src in sorted(self._delta):
            by_label = self._delta[src]
            for label in sorted(by_label):
                for dst in sorted(by_label[label]):
                    yield src, label, dst

    @property
    def deterministic(self) -> bool:
        """True when there is one initial state and no branching anywhere."""
        if len(self.initial) != 1:
            return False
        return all(
            len(dsts) <= 1
            for by_label in self._delta.values()
            for dsts in by_label.values()
        )

    def int_moves(self) -> tuple[tuple[str, ...], tuple, tuple]:
        """The machine over int state ids, built on first use and then kept.

        Returns the states in id order; per id, its moves as (label, target
        ids) pairs in label order; and per id, whether the state is critical
        and whether it is initial.
        """
        if self._ints is None:
            states = tuple(self.states)
            index = {x: i for i, x in enumerate(states)}
            moves = []
            for x in states:
                out = self.moves(x)
                row = [(label, tuple([index[y] for y in out[label]])) for label in sorted(out)]
                moves.append(tuple(row))
            flags = tuple((x in self.critical, x in self.initial) for x in states)
            self._ints = (states, tuple(moves), flags)
        return self._ints

    def _identity(self) -> tuple:
        if self._key is None:
            self._key = (
                self.states,
                self.initial,
                self.alphabet,
                self.critical,
                frozenset(self.transitions()),
            )
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fsm):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        return (
            f"Fsm(states={len(self.states)}, initial={sorted(self.initial)}, "
            f"alphabet={sorted(self.alphabet)}, critical={sorted(self.critical)})"
        )


def step(m: Fsm, from_states: Iterable[str], label: str) -> frozenset[str]:
    """Image of a set of states under one label."""
    out: set[str] = set()
    for x in from_states:
        out |= m.succ(x, label)
    return frozenset(out)


def extended_delta(m: Fsm, from_states: Iterable[str], word: Word) -> frozenset[str]:
    """States reachable from ``from_states`` along ``word``.

    The empty word reaches exactly the given states; each label then maps a
    set through the union of its members' successor sets. Unknown states or
    labels are rejected rather than treated as dead ends.
    """
    current = frozenset(from_states)
    if not current <= m.states:
        raise InvalidInputError(f"states {sorted(current - m.states)} not in machine")
    for label in word:
        if label not in m.alphabet:
            raise InvalidInputError(f"label {label!r} not in alphabet")
        current = step(m, current, label)
    return current


def in_language(m: Fsm, word: Word) -> bool:
    """Whether some initial state can execute the whole word."""
    for label in word:
        if label not in m.alphabet:
            raise InvalidInputError(f"label {label!r} not in alphabet")
    return bool(extended_delta(m, m.initial, word))


def project_word(word: Word, sublabels: Iterable[str]) -> Word:
    """Erase the labels outside ``sublabels``, keeping the order of the rest."""
    keep = frozenset(sublabels)
    return tuple(label for label in word if label in keep)


def reachable_states(m: Fsm) -> frozenset[str]:
    """States reachable from the initial set (the initial states included)."""
    seen = set(m.initial)
    frontier = list(m.initial)
    while frontier:
        next_frontier: list[str] = []
        for x in frontier:
            for dsts in m.moves(x).values():
                for y in dsts:
                    if y not in seen:
                        seen.add(y)
                        next_frontier.append(y)
        frontier = next_frontier
    return frozenset(seen)


def accessible(m: Fsm) -> Fsm:
    """Restrict a machine to its reachable part.

    The alphabet is kept as declared even if some labels become unused.
    """
    keep = reachable_states(m)
    if keep == m.states:
        return m
    return Fsm(
        keep,
        m.initial,
        m.alphabet,
        (t for t in m.transitions() if t[0] in keep),
        m.critical & keep,
    )
