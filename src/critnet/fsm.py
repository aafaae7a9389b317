"""Core data model: nondeterministic finite state machines with critical states.

A machine is a tuple (states, initial, alphabet, transitions, critical).
Transitions are nondeterministic: each (state, label) pair maps to a set of
successors, with absent pairs meaning the empty set. Machines are immutable
after construction and every operation here is a pure function.

The public constructor, and so the network parser, checks every structural
rule. Machines this package builds itself (composed products) skip those
checks through ``Fsm._trusted``. The label "eps" is reserved for the empty
word, so no machine may use it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from .errors import InvalidInputError, MalformedFsmError

# A word is a finite sequence of labels; the empty tuple is the empty word.
Word = tuple[str, ...]

# Reserved for the empty word; never a label.
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
        self._assign(states, initial, alphabet, {}, critical)

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
        self._delta = {
            src: {label: frozenset(dsts) for label, dsts in by_label.items()}
            for src, by_label in delta.items()
        }

        # Initial homogeneity: a mixed initial set already straddles the
        # critical boundary before any event happens.
        if self.initial & self.critical and not self.initial <= self.critical:
            raise MalformedFsmError(
                "initial states must be all critical or all non-critical"
            )

    @classmethod
    def _trusted(
        cls,
        states: Iterable[str],
        initial: Iterable[str],
        alphabet: Iterable[str],
        delta: dict[str, dict[str, frozenset[str]]],
        critical: Iterable[str],
    ) -> Fsm:
        """A machine this package built itself, taken without re-validation.

        The builder guarantees what ``__init__`` checks: nonempty state
        names, a nonempty initial set on one side of the critical set,
        critical states among the states, and ``delta`` holding a row
        ``{label: nonempty frozenset of targets}`` per source that moves,
        with every endpoint a state and every label in ``alphabet``.
        ``delta`` is kept, not copied.
        """
        m = object.__new__(cls)
        m._assign(states, initial, alphabet, delta, critical)
        return m

    def _assign(self, states, initial, alphabet, delta, critical) -> None:
        self.states = frozenset(states)
        self.initial = frozenset(initial)
        self.alphabet = frozenset(alphabet)
        self.critical = frozenset(critical)
        self._delta: dict[str, dict[str, frozenset[str]]] = delta
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

    def int_moves(self) -> tuple[tuple[str, ...], tuple, tuple]:
        """The machine over int state ids, built on first use and then kept.

        Returns the states in id order; per id, its moves as a row
        ``{label: target ids}`` in label order, target ids ascending; and
        per id, whether the state is critical and whether it is initial.
        """
        if self._ints is None:
            states = tuple(self.states)
            index = {x: i for i, x in enumerate(states)}
            moves = tuple(
                {a: tuple(sorted([index[y] for y in out[a]])) for a in sorted(out)}
                for out in map(self.moves, states)
            )
            flags = tuple((x in self.critical, x in self.initial) for x in states)
            self._ints = (states, moves, flags)
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


def in_language(m: Fsm, word: Word) -> bool:
    """Whether some initial state can execute the whole word.

    Every label must belong to the alphabet, even past the point where the
    word has already left the language.
    """
    current = m.initial
    for label in word:
        if label not in m.alphabet:
            raise InvalidInputError(f"label {label!r} not in alphabet")
        current = step(m, current, label)
    return bool(current)
