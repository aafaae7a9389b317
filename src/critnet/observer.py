"""Observers: deterministic estimate-tracking machines with boolean outputs.

The observer of a machine tracks, after each event, the set of states the
machine could be in. Its output flags whether that estimate touches the
critical set. A machine is critically observable exactly when every flagged
estimate lies wholly inside the critical set, so the flag is never ambiguous.

A decentralized observer keeps one local observer per network member and
combines their flags with OR; composing the bank yields a machine isomorphic
to the observer of the composed network.

An observer is stored as one int table over state positions: per position
a row ``{label: next position}`` and an output flag. The estimate tables
the builders explore already have that layout, so local observers, composed
banks and projected on-the-fly locals take it over as it is and skip the
public constructor's checks; the public constructor, and so the observer
parser, keeps every one. Bank composition, monitor sessions, isomorphism
and the cost ledger step over rows by position and name states only on the
way out; plant ids follow sorted names, as in every ``Fsm``. The bank walk
and sessions step locals with equal tables as one (``distinct_tables``).
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from math import comb

from .compose import Network, check_budget, explore, owners_by_label, walk_product
from .errors import InvalidInputError, MalformedFsmError
from .fsm import Fsm

# An estimate is a nonempty frozenset of plant states. Composed banks use
# tuples of estimates, one per member, as their states.
ObserverState = object


def state_text(z: ObserverState) -> str:
    """Canonical text for an observer state: "{p,q}" or "({p},{q,r})"."""
    if isinstance(z, frozenset):
        return "{" + ",".join(sorted(z)) + "}"
    if isinstance(z, tuple):
        return "(" + ",".join(state_text(part) for part in z) + ")"
    return str(z)


def state_sort_key(z: ObserverState):
    if isinstance(z, frozenset):
        return (len(z), tuple(sorted(z)))
    return tuple(state_sort_key(part) for part in z)


def _nonempty(z: ObserverState) -> bool:
    if isinstance(z, frozenset):
        return bool(z)
    if isinstance(z, tuple):
        return bool(z) and all(_nonempty(part) for part in z)
    return False


class ObserverFsm:
    """Deterministic machine over state estimates, with a 0/1 output per state.

    States are kept in discovery order so that "first violating state" means
    the same thing on every run. Equality is structural and order-free.

    It is one int table over positions in ``states``: ``rows[i]`` maps the
    labels state ``i`` moves on to the next position, ``flags[i]`` is its
    output, and ``start`` is the initial state's position.
    """

    __slots__ = ("states", "initial", "alphabet", "rows", "flags", "start", "_key")

    def __init__(
        self,
        states: Sequence[ObserverState],
        initial: ObserverState,
        alphabet: Iterable[str],
        transitions: Mapping[tuple[ObserverState, str], ObserverState],
        outputs: Mapping[ObserverState, int],
    ):
        states = tuple(states)
        index = {z: i for i, z in enumerate(states)}
        if len(index) != len(states):
            raise MalformedFsmError("duplicate observer states")
        if initial not in index:
            raise MalformedFsmError("initial estimate missing from state set")
        for z in states:
            if not _nonempty(z):
                raise MalformedFsmError("the empty estimate cannot be an observer state")
            if outputs.get(z) not in (0, 1):
                raise MalformedFsmError(f"state {state_text(z)} needs a 0/1 output")
        if len(outputs) != len(states):
            raise MalformedFsmError("outputs given for unknown states")
        alphabet = frozenset(alphabet)
        rows: list[dict[str, int]] = [{} for _ in states]
        for (src, label), dst in transitions.items():
            if src not in index or dst not in index:
                raise MalformedFsmError("transition endpoint is not an observer state")
            if label not in alphabet:
                raise MalformedFsmError(f"transition label {label!r} not in alphabet")
            rows[index[src]][label] = index[dst]

        reached, _, _ = explore((index[initial],), lambda i: rows[i].values())
        if len(reached) != len(states):
            seen = set(reached)
            unreachable = sorted(state_text(z) for i, z in enumerate(states) if i not in seen)
            raise MalformedFsmError(f"unreachable observer states: {unreachable}")
        self._assign(states, alphabet, rows, [outputs[z] for z in states], index[initial])

    @classmethod
    def _trusted(
        cls,
        states: Sequence[ObserverState],
        alphabet: Iterable[str],
        rows: Sequence[dict[str, int]],
        flags: Sequence[int],
    ) -> ObserverFsm:
        """An observer this package built itself, taken without re-validation.

        The builder guarantees what ``__init__`` checks: distinct nonempty
        states with the initial one first, every position reachable from 0
        in ``rows`` (a row ``{label: position}`` per position, labels in
        ``alphabet``), and a 0/1 flag per position. ``rows`` and ``flags``
        are kept, not copied.
        """
        obs = object.__new__(cls)
        obs._assign(states, alphabet, rows, flags, 0)
        return obs

    def _assign(self, states, alphabet, rows, flags, start) -> None:
        self.states = tuple(states)
        self.initial = self.states[start]
        self.alphabet = frozenset(alphabet)
        self.rows = rows
        self.flags = flags
        self.start = start
        # Built on first use; see _identity.
        self._key = None

    def transitions(self) -> list[tuple[ObserverState, str, ObserverState]]:
        """Transition triples in canonical (source, label) order."""
        states = self.states
        order = sorted(range(len(states)), key=lambda i: state_sort_key(states[i]))
        return [(states[i], x, states[j]) for i in order for x, j in sorted(self.rows[i].items())]

    def _triples(self):
        states = self.states
        for z, row in zip(states, self.rows):
            for label, j in row.items():
                yield z, label, states[j]

    def _identity(self) -> tuple:
        if self._key is None:
            self._key = (
                self.initial,
                self.alphabet,
                frozenset(zip(self.states, self.flags)),
                frozenset(self._triples()),
            )
        return self._key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ObserverFsm):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        return (
            f"ObserverFsm(states={len(self.states)}, "
            f"initial={state_text(self.initial)}, alphabet={sorted(self.alphabet)})"
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of an observability check.

    When not observable, ``witness`` is the first estimate found that raises
    the flag without lying wholly inside the critical set.
    """

    observable: bool
    witness: ObserverState | None = None

    def __str__(self) -> str:
        if self.observable:
            return "observable"
        return f"not observable, witness {state_text(self.witness)}"


class EstimateTable:
    """A machine's local observer, built lazily and interned as int ids.

    Estimates get ids in discovery order, starting with the initial estimate
    at id 0. Per id the table keeps the estimate, whether it touches the
    critical set and whether it lies inside it, and a successor row
    ``{label: id}`` computed the first time the id is expanded and never
    again. Estimates are interned and stepped as sets of the machine's state
    ids (``Fsm.int_moves``); each gets its names once, when first interned.
    Only the estimates some exploration reaches are expanded, and only those
    a caller packs are ranked (``rank``), so ``build_observer`` ranks none.
    """

    __slots__ = (
        "machine",
        "labels",
        "estimates",
        "touches",
        "contained",
        "rows",
        "by_rank",
        "_members",
        "_ids",
    )

    def __init__(self, m: Fsm):
        self.machine = m
        self.labels = sorted(m.alphabet)
        self.estimates: list[frozenset[str]] = []
        self.touches: list[bool] = []
        self.contained: list[bool] = []
        self.rows: list[dict[str, int] | None] = []
        self.by_rank: dict[int, int] = {}
        self._members: list[frozenset[int]] = []
        self._ids: dict[frozenset[int], int] = {}
        _, _, flags = m.int_moves()
        self._intern(frozenset([x for x, (_, init) in enumerate(flags) if init]))

    def _intern(self, members: frozenset[int]) -> int:
        i = self._ids.get(members)
        if i is None:
            i = self._ids[members] = len(self.estimates)
            names, _, flags = self.machine.int_moves()
            critical = [flags[x][0] for x in members]
            self.estimates.append(frozenset([names[x] for x in members]))
            self.touches.append(any(critical))
            self.contained.append(all(critical))
            self._members.append(members)
            self.rows.append(None)
        return i

    def rank(self, i: int) -> int:
        """Estimate ``i``'s place among all nonempty sets of the n states, by
        size, then by sorted ids (``state_sort_key`` order): below 2^n - 1.
        Records it in ``by_rank``, which maps it back to ``i``."""
        ids = self._members[i]
        if len(ids) == 1:
            (r,) = ids
        else:
            n, k, r = len(self.machine.states), len(ids), -1
            for x in sorted(ids):
                r, k = r + comb(n, k) - comb(n - 1 - x, k), k - 1
        self.by_rank[r] = i
        return r

    def row(self, i: int) -> dict[str, int]:
        """Successor ids of estimate ``i`` by label, in sorted label order."""
        row = self.rows[i]
        if row is None:
            moves = self.machine.int_moves()[1]
            images: dict[str, set[int]] = {}
            for x in self._members[i]:
                for label, ys in moves[x].items():
                    images.setdefault(label, set()).update(ys)
            # A loop, not a comprehension: a comprehension would make ``self``
            # a closure cell, which every call pays for, cached or not.
            row = {}
            for label in self.labels:
                image = images.get(label)
                if image:
                    row[label] = self._intern(frozenset(image))
            self.rows[i] = row
        return row


def build_observer(m: Fsm, max_states: int | None = None) -> ObserverFsm:
    """Subset construction seeded at the full initial-state estimate.

    Expands every row of a fresh estimate table breadth first. The kernel
    stores ids in the order the table interns them, so the table's ids are
    already the observer's state positions.
    """
    table = EstimateTable(m)
    explore((0,), lambda i: table.row(i).values(), max_states, "observer exceeded {} states")
    return ObserverFsm._trusted(
        table.estimates, m.alphabet, table.rows, [1 if t else 0 for t in table.touches]
    )


def check_observable(obs: ObserverFsm, critical: Iterable[str]) -> Verdict:
    """Decide critical observability from a built observer.

    The machine it observes is critically observable exactly when every
    flagged estimate is contained in ``critical``. States are scanned in
    discovery order, so the witness is reproducible.
    """
    crit = frozenset(critical)
    for z, flag in zip(obs.states, obs.flags):
        if not isinstance(z, frozenset):
            raise InvalidInputError(
                "check_observable needs estimate states; composed banks are "
                "checked through the pipeline"
            )
        if flag == 1 and not z <= crit:
            return Verdict(False, z)
    return Verdict(True)


@dataclass(frozen=True)
class DecentralizedObserver:
    """A bank of local observers, one per network member, OR-combined."""

    locals: tuple[tuple[str, ObserverFsm], ...]

    def __post_init__(self):
        if not self.locals:
            raise InvalidInputError("a decentralized observer needs at least one local")
        names = [name for name, _ in self.locals]
        if len(set(names)) != len(names):
            raise InvalidInputError(f"duplicate local names in {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.locals)

    @property
    def observers(self) -> tuple[ObserverFsm, ...]:
        return tuple(obs for _, obs in self.locals)


def build_decentralized(
    network: Network, max_states: int | None = None
) -> DecentralizedObserver:
    """One full local observer per member, no composition performed."""
    return DecentralizedObserver(
        tuple((name, build_observer(m, max_states)) for name, m in network.members)
    )


def distinct_tables(observers: Iterable[ObserverFsm]) -> tuple[tuple[int, ...], list[ObserverFsm]]:
    """Each observer's number, and the observer that first used each number.

    Observers with equal ``start``, ``alphabet``, ``rows`` and ``flags`` move
    in lockstep under every word, whatever their states are called, so they
    share a number; numbers follow first use.
    """
    alike, numbers, distinct = {}, [], []
    for obs in observers:
        same = alike.setdefault((obs.start, obs.alphabet, tuple(obs.flags)), [])
        c = next((c for c in same if distinct[c].rows == obs.rows), len(distinct))
        if c == len(distinct):
            distinct.append(obs)
            same.append(c)
        numbers.append(c)
    return tuple(numbers), distinct


def compose_decentralized(
    d: DecentralizedObserver, max_states: int | None = None
) -> ObserverFsm:
    """Synchronous product of the bank, flags OR-combined.

    States are aggregates: one estimate per member. A shared label moves
    every local owning it, and blocks when any of them has no move. With a
    single local the bank composes to that local itself, within the same
    budget. ``walk_product`` steps one field per distinct table
    (``distinct_tables``) and emits the bank's rows by aggregate position;
    each local names its field with its own states once, at the end.
    """
    budget = "composed bank exceeded {} states"
    if len(d.locals) == 1:
        only = d.locals[0][1]
        check_budget(len(only.states), max_states, budget)
        return only
    numbers, distinct = distinct_tables(d.observers)
    owners = owners_by_label(distinct)
    rows_of, starts = [obs.rows for obs in distinct], [(obs.start,) for obs in distinct]
    aggs, moves, layout = walk_product(rows_of, owners, starts, max_states, budget)
    position = {agg: p for p, agg in enumerate(aggs)}
    fields = [[(agg & mask) >> shift for agg in aggs] for mask, shift in layout]
    states = [list(map(obs.states.__getitem__, fields[c])) for obs, c in zip(d.observers, numbers)]
    flags = [list(map(obs.flags.__getitem__, ids)) for obs, ids in zip(distinct, fields)]
    return ObserverFsm._trusted(
        list(zip(*states)),
        {label for label, _ in owners},
        [{label: position[dst] for label, dst in row.items()} for row in moves],
        [1 if any(f) else 0 for f in zip(*flags)],
    )


def validate_critical_observer(obs: ObserverFsm, m: Fsm) -> bool:
    """Exact check that ``obs`` classifies every run of ``m`` correctly.

    Walks all reachable (plant state, observer state) pairs that share a
    trace and compares the flag with actual criticality at every step. This
    covers every run of any length, not a sample.
    """
    if obs.alphabet != m.alphabet:
        raise InvalidInputError("observer and machine must share an alphabet")

    _, moves, plant_flags = m.int_moves()

    # Pairs hold a plant state id and an observer position, or None when
    # the plant can move but the observer cannot follow the run.
    def wrong(pair: tuple[int, int | None]) -> bool:
        x, p = pair
        return p is None or obs.flags[p] != plant_flags[x][0]

    def expand(pair: tuple[int, int]):
        x, p = pair
        row = obs.rows[p]
        for label, ys in moves[x].items():
            p2 = row.get(label)
            for y in ys:
                yield y, p2

    init = [(x, obs.start) for x, (_, initial) in enumerate(plant_flags) if initial]
    if any(map(wrong, init)):
        return False
    _, bad, _ = explore(init, expand, stop=wrong)
    return bad is None


def sampled_runs_agree(
    obs: ObserverFsm,
    m: Fsm,
    rng: random.Random,
    runs: int = 100,
    max_len: int = 10,
) -> bool:
    """Spot-check observer flags along random runs of the plant.

    A False answer is definitive; True only says the sample found nothing.
    """
    if obs.alphabet != m.alphabet:
        raise InvalidInputError("observer and machine must share an alphabet")
    _, moves, plant_flags = m.int_moves()
    # Plant ids follow sorted names, so ascending ids draw the same runs
    # from a seed as names would.
    initial = [x for x, (_, init) in enumerate(plant_flags) if init]
    for _ in range(runs):
        x = rng.choice(initial)
        p = obs.start
        if obs.flags[p] != plant_flags[x][0]:
            return False
        for _ in range(max_len):
            enabled = [(label, y) for label, ys in moves[x].items() for y in ys]
            if not enabled:
                break
            label, x = rng.choice(enabled)
            p = obs.rows[p].get(label)
            if p is None:
                return False
            if obs.flags[p] != plant_flags[x][0]:
                return False
    return True
