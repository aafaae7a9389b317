"""Observers: deterministic estimate-tracking machines with boolean outputs.

The observer of a machine tracks, after each event, the set of states the
machine could be in. Its output flags whether that estimate touches the
critical set. A machine is critically observable exactly when every flagged
estimate lies wholly inside the critical set, so the flag is never ambiguous.

A decentralized observer keeps one local observer per network member and
combines their flags with OR; composing the bank yields a machine isomorphic
to the observer of the composed network.

An observer is stored as one int table over state positions: per position
a row ``{label: next position}`` and an output flag. Local observers and
projected on-the-fly locals come from one method (``EstimateTable.observer``)
and composed banks from the packed product walk; both skip the public
constructor's checks, which the constructor, and so the observer parser,
keeps. Bank composition, monitor sessions, isomorphism
and the cost ledger step over rows by position and name states only on the
way out; plant ids follow sorted names, as in every ``Fsm``. Members and
locals with equal tables (``distinct_tables``) are built, walked and stepped once.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .compose import Members, Network, check_budget, explore, owners_by_label, walk_product
from .errors import InvalidInputError, MalformedFsmError
from .fsm import Fsm, check_labels

if TYPE_CHECKING:  # annotations only, so importing critnet does not import random
    import random

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
    """Estimates by size, then by sorted names, before tuples, which compare part by part."""
    if isinstance(z, frozenset):
        return (0, len(z), tuple(sorted(z)))
    return (1, tuple(map(state_sort_key, z)))


def _state_fault(z: ObserverState) -> str:
    """Why ``z`` cannot be an observer state, or "" when it can."""
    if isinstance(z, tuple) and z:
        return next(filter(None, map(_state_fault, z)), "")
    if not isinstance(z, frozenset):
        return f"{z!r} is not an estimate"
    if strays := [x for x in z if not isinstance(x, str) or not x]:
        return f"estimate member {strays[0]!r} is not a state name"
    return "" if z else "the empty estimate cannot be an observer state"


class ObserverFsm:
    """Deterministic machine over state estimates, with a 0/1 output per state.

    States are kept in discovery order so that "first violating state" means
    the same thing on every run. Equality is structural and order-free.

    It is one int table over positions in ``states``: ``rows[i]`` maps the
    labels state ``i`` moves on to the next position, ``flags[i]`` is its
    output, and ``start`` is the initial state's position.
    """

    __slots__ = ("states", "initial", "alphabet", "rows", "flags", "start")

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
            if fault := _state_fault(z):
                raise MalformedFsmError(fault)
            if outputs.get(z) not in (0, 1):
                raise MalformedFsmError(f"state {state_text(z)} needs a 0/1 output")
        if len(outputs) != len(states):
            raise MalformedFsmError("outputs given for unknown states")
        alphabet = frozenset(alphabet)
        check_labels(alphabet)
        rows: list[dict[str, int]] = [{} for _ in states]
        for (src, label), dst in transitions.items():
            if src not in index or dst not in index:
                raise MalformedFsmError("transition endpoint is not an observer state")
            if label not in alphabet:
                raise MalformedFsmError(f"transition label {label!r} not in alphabet")
            rows[index[src]][label] = index[dst]

        reached, _ = explore((index[initial],), lambda i: rows[i].values())
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

    def transitions(self) -> list[tuple[ObserverState, str, ObserverState]]:
        """Transition triples in canonical (source, label) order."""
        states = self.states
        order = sorted(range(len(states)), key=lambda i: state_sort_key(states[i]))
        return [(states[i], x, states[j]) for i in order for x, j in sorted(self.rows[i].items())]

    def _identity(self) -> tuple:
        states = self.states
        pairs = zip(states, self.rows)
        moves = frozenset((z, x, states[j]) for z, row in pairs for x, j in row.items())
        return self.initial, self.alphabet, frozenset(zip(states, self.flags)), moves

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


class Verdict(NamedTuple):
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
    """A machine's local observer, built lazily, one int key per estimate.

    An estimate is an int mask over the state ids (``Fsm.int_moves``). Its
    key is its canonical rank among the nonempty sets of the n states, by
    size, then by sorted ids (``state_sort_key`` order), so keys lie below
    2^n - 1. ``keys`` maps masks to keys and ``masks`` maps back. Per key the
    table keeps whether the estimate touches the critical set and whether
    it lies inside it, and a successor row ``{label: key}`` computed the
    first time the key is expanded. Names are built only on the way out.
    """

    __slots__ = (
        "machine",
        "critical",
        "start",
        "keys",
        "masks",
        "touches",
        "contained",
        "rows",
    )

    def __init__(self, m: Fsm):
        self.machine = m
        critical = initial = 0
        for x, (c, i) in enumerate(m.int_moves()[2]):
            critical, initial = critical | c << x, initial | i << x
        self.critical = critical
        self.keys: dict[int, int] = {}
        self.masks: dict[int, int] = {}
        self.touches: dict[int, int] = {}
        self.contained: dict[int, int] = {}
        self.rows: dict[int, dict[str, int]] = {}
        self.start = self._intern(initial)

    def _intern(self, mask: int) -> int:
        key = self.keys.get(mask)
        if key is None:
            ids = _ids(mask)
            n, k, key = len(self.machine.states), len(ids), -1
            for x in ids:
                key, k = key + comb(n, k) - comb(n - 1 - x, k), k - 1
            self.keys[mask], self.masks[key] = key, mask
            self.touches[key] = 1 if mask & self.critical else 0
            self.contained[key] = 1 if mask & self.critical == mask else 0
        return key

    def row(self, key: int) -> dict[str, int]:
        """Successor keys of estimate ``key`` by label, in sorted label order."""
        row = self.rows.get(key)
        if row is None:
            moves, images = self.machine.int_moves()[1], {}
            for x in _ids(self.masks[key]):
                for label, ys in moves[x].items():
                    for y in ys:
                        images[label] = images.get(label, 0) | 1 << y
            # A loop, not a comprehension: a comprehension would make ``self``
            # a closure cell, which every call pays for, cached or not.
            row = self.rows[key] = {}
            for label in sorted(images):
                row[label] = self._intern(images[label])
        return row

    def estimate(self, key: int) -> frozenset[str]:
        """The estimate under ``key``, as a set of state names."""
        return frozenset(map(self.machine.int_moves()[0].__getitem__, _ids(self.masks[key])))

    def observer(self, keys: Sequence[int]) -> ObserverFsm:
        """The observer over ``keys`` by position, the first one initial;
        moves to estimates not in ``keys`` are dropped."""
        position = dict(zip(keys, range(len(keys))))
        # A loop: a comprehension per row costs more than its few moves.
        rows = []
        for key in keys:
            rows.append(row := {})
            for label, k in self.row(key).items():
                if k in position:
                    row[label] = position[k]
        flags = list(map(self.touches.__getitem__, keys))
        return ObserverFsm._trusted(list(map(self.estimate, keys)), self.machine.alphabet, rows, flags)


def _ids(mask: int) -> list[int]:
    """The state ids in ``mask``, ascending."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def build_observer(m: Fsm, max_states: int | None = None) -> ObserverFsm:
    """Subset construction seeded at the full initial-state estimate.

    Expands every row of a fresh estimate table breadth first; the observer
    takes the estimates in the order the walk stores them.
    """
    table = EstimateTable(m)
    keys, _ = explore(
        (table.start,), lambda key: table.row(key).values(), max_states, "observer exceeded {} states"
    )
    return table.observer(keys)


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


class DecentralizedObserver(Members):
    """A bank of local observers, one per network member, OR-combined."""

    __slots__ = ("locals",)
    _owner, _role, _kind = "a decentralized observer", "local", ObserverFsm

    @property
    def observers(self) -> tuple[ObserverFsm, ...]:
        return tuple(obs for _, obs in self.locals)


def build_decentralized(network: Network, max_states: int | None = None) -> DecentralizedObserver:
    """One full local observer per member, no composition performed.

    Members with equal tables (``distinct_tables``) share one subset construction, in member
    order; a copy keeps the first one's rows and flags and names estimates by its own states.
    """
    numbers, machines = distinct_tables(network.machines)
    built = [build_observer(m, max_states) for m in machines]
    locals_ = []
    for (name, m), c in zip(network.members, numbers):
        obs = built[c]
        if m is not machines[c]:
            rename = dict(zip(machines[c].int_moves()[0], m.int_moves()[0])).__getitem__
            states = [frozenset(map(rename, z)) for z in obs.states]
            obs = ObserverFsm._trusted(states, obs.alphabet, obs.rows, obs.flags)
        locals_.append((name, obs))
    return DecentralizedObserver(tuple(locals_))


def distinct_tables(items: Iterable[ObserverFsm] | Iterable[Fsm]) -> tuple[tuple[int, ...], list]:
    """Each observer's or machine's number, and the one that first used each number.

    Observers with equal ``start``, ``alphabet``, ``rows`` and ``flags`` move
    in lockstep under every word, whatever their states are called. Machines
    with equal ``alphabet`` and ``int_moves`` rows and flags share state ids,
    so refinement classes, and observers up to state names. Numbers follow first use.
    """
    alike, numbers, distinct = {}, [], []
    for item in items:
        if isinstance(item, Fsm):
            _, rows, flags = item.int_moves()
        else:
            rows, flags = item.rows, (item.start, *item.flags)
        same = alike.setdefault((item.alphabet, flags), [])
        # A loop, not ``next`` over a generator: most members are alone in their bucket.
        for c, seen in same:
            if seen == rows:
                break
        else:
            same.append((c := len(distinct), rows))
            distinct.append(item)
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
    (``distinct_tables``) and hands back the bank's rows by position, as
    kept, and each table's position in every aggregate; each local names
    its positions with its own states once, at the end.
    """
    budget = "composed bank exceeded {} states"
    if len(d.locals) == 1:
        only = d.locals[0][1]
        check_budget(len(only.states), max_states, budget)
        return only
    numbers, distinct = distinct_tables(d.observers)
    owners = owners_by_label(distinct)
    rows_of, starts = [obs.rows for obs in distinct], [(obs.start,) for obs in distinct]
    moves, fields = walk_product(rows_of, owners, starts, max_states, budget)
    states = [list(map(obs.states.__getitem__, fields[c])) for obs, c in zip(d.observers, numbers)]
    flags = [list(map(obs.flags.__getitem__, ids)) for obs, ids in zip(distinct, fields)]
    flags = [1 if any(f) else 0 for f in zip(*flags)]
    return ObserverFsm._trusted(list(zip(*states)), {label for label, _ in owners}, moves, flags)


def _lockstep(obs: ObserverFsm, m: Fsm):
    """Initial (plant state id, observer position) pairs, each pair's
    successors in plant row order (position None where the observer cannot
    follow), and the test for a pair whose flag is wrong. Plant ids follow
    sorted names, so a seed draws the same runs from these as from names."""
    if obs.alphabet != m.alphabet:
        raise InvalidInputError("observer and machine must share an alphabet")
    _, moves, plant_flags = m.int_moves()

    def wrong(pair: tuple[int, int | None]) -> bool:
        x, p = pair
        return p is None or obs.flags[p] != plant_flags[x][0]

    def successors(pair: tuple[int, int]) -> list[tuple[int, int | None]]:
        x, p = pair
        row = obs.rows[p]
        return [(y, row.get(label)) for label, ys in moves[x].items() for y in ys]

    init = [(x, obs.start) for x, (_, initial) in enumerate(plant_flags) if initial]
    return init, successors, wrong


def validate_critical_observer(obs: ObserverFsm, m: Fsm) -> bool:
    """Exact check that ``obs`` classifies every run of ``m`` correctly.

    Walks all reachable (plant state, observer state) pairs that share a
    trace and compares the flag with actual criticality at every step. This
    covers every run of any length, not a sample.
    """
    init, successors, wrong = _lockstep(obs, m)
    if any(map(wrong, init)):
        return False
    _, bad = explore(init, successors, stop=wrong)
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
    init, successors, wrong = _lockstep(obs, m)
    for _ in range(runs):
        pair = rng.choice(init)
        if wrong(pair):
            return False
        for _ in range(max_len):
            enabled = successors(pair)
            if not enabled:
                break
            pair = rng.choice(enabled)
            if wrong(pair):
                return False
    return True
