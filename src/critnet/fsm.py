"""Core data model: nondeterministic finite state machines with critical states.

A machine is a tuple (states, initial, alphabet, transitions, critical).
Transitions are nondeterministic: each (state, label) pair maps to a set of
successors, with absent pairs meaning the empty set. Machines are immutable
after construction and every operation here is a pure function.

A machine is stored as one int table over state ids (``Fsm.int_moves``):
per id a row ``{label: target ids}`` and a (critical, initial) flag pair.
Every machine, parsed or composed, numbers its states in sorted-name order,
so ascending ids are ascending names and the table alone is canonical:
equality compares it, writers walk it in id order without sorting, and a
name is found by bisecting the names. Names appear again only when a
caller asks for states, successors or transitions.

The public constructor checks every structural rule. Machines this package
builds itself (composed products) hand over their table through
``Fsm._trusted`` and skip those checks. The label "eps" is reserved for the
empty word, so no machine or observer may use it (``check_labels``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence

from .errors import InvalidInputError, MalformedFsmError

# A word is a finite sequence of labels; the empty tuple is the empty word.
Word = tuple[str, ...]

# Reserved for the empty word; never a label.
EPSILON_TOKEN = "eps"

_EMPTY: frozenset[str] = frozenset()

# One state's moves: label -> target ids, labels sorted, ids ascending.
Row = dict[str, tuple[int, ...]]


def _rows(triples: Iterable, index: dict[str, int], alphabet: frozenset) -> list[Row] | None:
    """Per id its row, filled in id order from sorted triples; None at a bad or unsortable one."""
    rows: list[Row] = [{} for _ in index]
    last = object()  # the source of no triple
    try:
        for src, label, dst in sorted(triples):
            if src is not last:  # a source's moves come together
                row, last = rows[index[src]], src
            j = index[dst]
            ys = row.get(label)
            if ys is None:
                if label not in alphabet:  # a label is checked where it enters a row
                    return None
                row[label] = (j,)
            elif ys[-1] != j:  # a repeated triple sorts next to itself
                row[label] = ys + (j,)
    except (KeyError, TypeError, ValueError):  # unknown, unhashable, unorderable, not triples
        return None
    return rows


def check_labels(alphabet: frozenset) -> None:
    """The label rule of machines and observers: nonempty strings, never "eps"."""
    if strays := [x for x in alphabet if not isinstance(x, str)]:
        raise MalformedFsmError(f"label {strays[0]!r} is not a string")
    if "" in alphabet:
        raise MalformedFsmError("empty string is not a valid label")
    if EPSILON_TOKEN in alphabet:
        raise MalformedFsmError(f"label {EPSILON_TOKEN!r} is reserved for the empty word")


class Fsm:
    """Finite state machine with a designated set of critical states.

    Construction validates structural rules and raises MalformedFsmError on
    violation. The initial states must be homogeneous: all critical or all
    non-critical, otherwise no observer could ever classify the empty trace.
    """

    __slots__ = ("states", "initial", "alphabet", "critical", "_table")

    def __init__(
        self,
        states: Iterable[str],
        initial: Iterable[str],
        alphabet: Iterable[str],
        transitions: Iterable[tuple[str, str, str]],
        critical: Iterable[str] = (),
    ):
        states, initial = frozenset(states), frozenset(initial)
        alphabet, critical = frozenset(alphabet), frozenset(critical)
        if not states:
            raise MalformedFsmError("machine needs at least one state")
        if strays := [x for x in states if not isinstance(x, str)]:
            raise MalformedFsmError(f"state name {strays[0]!r} is not a string")
        check_labels(alphabet)
        if not all(states):
            raise MalformedFsmError("state names must be nonempty")
        if not initial:
            raise MalformedFsmError("machine needs at least one initial state")
        if not (initial <= states and critical <= states):  # key=str: strays may mix types
            for role, part in (("initial", initial), ("critical", critical)):
                if stray := part - states:
                    raise MalformedFsmError(f"{role} states {sorted(stray, key=str)} not in state set")

        names = sorted(states)
        index = dict(zip(names, range(len(names))))
        rows = None if iter(transitions) is transitions else _rows(transitions, index, alphabet)
        if rows is None:  # a one-shot iterator, a bad triple, or triples that do not sort
            checked = []  # in input order, so an error names the first bad triple
            for src, label, dst in transitions:
                i, j = index.get(src), index.get(dst)
                if i is None:
                    raise MalformedFsmError(f"transition source {src!r} not in state set")
                if j is None:
                    raise MalformedFsmError(f"transition target {dst!r} not in state set")
                if label not in alphabet:
                    raise MalformedFsmError(f"transition label {label!r} not in alphabet")
                checked.append((names[i], label, names[j]))  # the machine's own name objects
            rows = _rows(checked, index, alphabet)

        # Initial homogeneity: a mixed initial set already straddles the
        # critical boundary before any event happens.
        if initial & critical and not initial <= critical:
            raise MalformedFsmError("initial states must be all critical or all non-critical")
        flags = [(x in critical, x in initial) for x in names]
        self._assign(names, rows, flags, initial, alphabet, critical)

    @classmethod
    def _trusted(
        cls,
        names: Sequence[str],
        alphabet: Iterable[str],
        rows: Sequence[Row],
        flags: Sequence[tuple[bool, bool]],
    ) -> Fsm:
        """A machine this package built itself, taken without re-validation.

        The builder guarantees what ``__init__`` checks, and that ids follow
        sorted names: distinct nonempty state names in ascending order, at
        least one initial id, all initial ids on one side of the critical
        set, and per id a row ``{label: target ids}`` with labels sorted and
        in ``alphabet``, target ids ascending and in range.
        """
        m = object.__new__(cls)
        initial = frozenset([x for x, (_, init) in zip(names, flags) if init])
        critical = frozenset([x for x, (crit, _) in zip(names, flags) if crit])
        m._assign(names, rows, flags, initial, frozenset(alphabet), critical)
        return m

    def _assign(self, names, rows, flags, initial, alphabet, critical) -> None:
        self._table = (tuple(names), tuple(rows), tuple(flags))
        self.states = frozenset(names)
        self.initial, self.alphabet, self.critical = initial, alphabet, critical

    def int_moves(self) -> tuple[tuple[str, ...], tuple[Row, ...], tuple[tuple[bool, bool], ...]]:
        """The machine's table, built at construction and kept.

        Returns the state names in id order; per id, its row
        ``{label: target ids}``; and per id, whether the state is critical
        and whether it is initial.
        """
        return self._table

    def succ(self, state: str, label: str) -> frozenset[str]:
        """Successor set of one state under one label (empty if none)."""
        names, rows, _ = self._table
        i = bisect_left(names, state) if isinstance(state, str) else len(names)
        if i == len(names) or names[i] != state:
            return _EMPTY
        return frozenset([names[j] for j in rows[i].get(label, ())])

    def transitions(self) -> Iterator[tuple[str, str, str]]:
        """Iterate transition triples (src, label, dst) in canonical order."""
        names, rows, _ = self._table
        for src, row in zip(names, rows):
            for label, ys in row.items():
                for j in ys:
                    yield src, label, names[j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fsm):
            return NotImplemented
        return self.alphabet == other.alphabet and self._table == other._table

    def __hash__(self) -> int:
        # Rows are dicts; names and flags are what equal machines share too.
        names, _, flags = self._table
        return hash((self.alphabet, names, flags))

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
