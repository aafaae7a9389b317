"""Parallel composition of machines and networks, and the product walk.

Members synchronize on shared labels and interleave on private ones. A shared
label fires only when every member owning it has at least one successor;
otherwise it blocks. A product state is critical as soon as one component is.

``explore`` is the one breadth-first kernel behind every synchronous product
in the package: the plant here, the observer bank and the on-the-fly
aggregates elsewhere. ``compose_many`` walks tuples of member state ids
(``Fsm.int_moves``) and hands the product over as an int table of the same
layout, its states numbered in discovery order. It names each product state
once, at the end, as "(x1,x2,...,xN)". A member's states are flattened into
that name only when all of them split (``tuple_parts``) into the same
number of parts, which every product does; otherwise they stay whole, so
"(x,y)" next to "x" keeps distinct names. Re-composing a composed machine,
in memory or read back from a file, thus flattens again, and association
order changes neither state names nor structure. Member state names are
assumed free of commas outside brackets and of unbalanced brackets.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, product
from math import inf
from operator import getitem

from .errors import BudgetExceededError, InvalidInputError, MalformedFsmError
from .fsm import Fsm


@dataclass(frozen=True)
class Network:
    """An ordered collection of named machines composed by synchronization."""

    members: tuple[tuple[str, Fsm], ...]

    def __post_init__(self):
        if not self.members:
            raise InvalidInputError("a network needs at least one member")
        names = [name for name, _ in self.members]
        if len(set(names)) != len(names):
            raise InvalidInputError(f"duplicate member names in {names}")
        if any(not name for name in names):
            raise InvalidInputError("member names must be nonempty")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.members)

    @property
    def machines(self) -> tuple[Fsm, ...]:
        return tuple(m for _, m in self.members)

    def get(self, name: str) -> Fsm:
        for member_name, m in self.members:
            if member_name == name:
                return m
        raise KeyError(name)


def split_commas(text: str, opening: str, closing: str) -> list[str] | None:
    """``text`` split at the commas outside brackets, or None when unbalanced.

    Any character of ``opening`` opens a bracket and any of ``closing``
    closes one; all kinds count towards one depth.
    """
    parts: list[str] = []
    depth = start = 0
    for i, ch in enumerate(text):
        if ch in opening:
            depth += 1
        elif ch in closing:
            depth -= 1
            if depth < 0:
                return None
        elif ch == "," and not depth:
            parts.append(text[start:i])
            start = i + 1
    if depth:
        return None
    parts.append(text[start:])
    return parts


def tuple_parts(name: str) -> tuple[str, ...]:
    """Split a product-encoded state name into its components.

    Names of the form "(a,b,c)" split at top-level commas; anything else is
    atomic. Single-component parentheses stay atomic so that composition
    never renames a state that merely looks bracketed.
    """
    if len(name) < 2 or not (name.startswith("(") and name.endswith(")")):
        return (name,)
    parts = split_commas(name[1:-1], "({", ")}")
    if parts is None or len(parts) < 2 or not all(parts):
        return (name,)
    return tuple(parts)


def product_state_name(member_states: Sequence[str]) -> str:
    """Canonical flattened name for a tuple of member states.

    ``compose_many`` names a product state so when each member's states
    split alike.
    """
    flat: list[str] = []
    for state in member_states:
        flat.extend(tuple_parts(state))
    return "(" + ",".join(flat) + ")"


def owners_by_label(members: Iterable) -> list[tuple[str, tuple[int, ...]]]:
    """Sorted (label, indices of the members owning it); members have ``alphabet``."""
    owners: dict[str, tuple[int, ...]] = {}
    for i, m in enumerate(members):
        for label in m.alphabet:
            if label in owners:
                owners[label] += (i,)
            else:
                owners[label] = (i,)
    return sorted(owners.items())


def check_budget(count: int, max_states: int | None, budget_message: str) -> None:
    """Raise ``BudgetExceededError`` when ``count`` states exceed ``max_states``."""
    if max_states is not None and count > max_states:
        raise BudgetExceededError(budget_message.format(max_states))


def explore(
    init: Iterable[Hashable],
    expand: Callable[[Hashable], Iterable[Hashable]],
    max_states: int | None = None,
    budget_message: str = "",
    *,
    key: Callable[[Hashable], object] | None = None,
    stop: Callable[[Hashable], bool] | None = None,
    on_generation: Callable[[int, int, int], None] | None = None,
) -> tuple[list[Hashable], Hashable | None, int]:
    """Breadth-first walk from ``init``, one generation at a time.

    A generation is expanded in discovery order, or sorted by ``key``. Code
    after a ``yield`` in ``expand`` runs only once the kernel has stored that
    successor or found it stored, so callers record moves there. A fresh
    state for which ``stop`` holds ends the walk before it is stored, and
    the move to it is never recorded. More than ``max_states`` states, in
    the initial set or after any store, raise ``BudgetExceededError`` with
    ``budget_message.format(max_states)``. ``on_generation`` gets
    (generation, frontier size, states stored) before each generation.

    Returns the stored states in discovery order, the stop state or None,
    and the number of generations expanded before the stop.
    """
    limit = inf if max_states is None else max_states
    seen = dict.fromkeys(init)
    check_budget(len(seen), max_states, budget_message)
    frontier = list(seen)
    generation = 0
    while frontier:
        if on_generation is not None:
            on_generation(generation, len(frontier), len(seen))
        if key is not None and len(frontier) > 1:
            frontier.sort(key=key)
        next_frontier = []
        push = next_frontier.append
        for s in frontier:
            for t in expand(s):
                if t not in seen:
                    if stop is not None and stop(t):
                        return list(seen), t, generation
                    seen[t] = None
                    if len(seen) > limit:
                        raise BudgetExceededError(budget_message.format(max_states))
                    push(t)
        frontier = next_frontier
        generation += 1
    return list(seen), None, generation


def compose_many(machines: Sequence[Fsm], max_states: int | None = None) -> Fsm:
    """Accessible part of the synchronous product of the given machines.

    With a single machine this is the identity. ``max_states`` bounds the
    number of product states explored before giving up, and a single
    machine's own states. The product is valid by construction, so its
    table goes to ``Fsm._trusted`` by position, without the public
    constructor's checks.
    """
    if not machines:
        raise InvalidInputError("nothing to compose")
    if len(machines) == 1:
        check_budget(len(machines[0].states), max_states, "product exceeded {} states")
        return machines[0]

    owners = owners_by_label(machines)
    states_of, rows_of, flags_of = zip(*(m.int_moves() for m in machines))
    # The kernel expands states in the order it stores them, so moves[p]
    # is the row of product state p.
    moves: list[dict[str, list[tuple[int, ...]]]] = []

    def expand(ids: tuple[int, ...]):
        rows = list(map(getitem, rows_of, ids))
        unmoved = [(i,) for i in ids]
        row: dict[str, list[tuple[int, ...]]] = {}
        moves.append(row)
        for label, members in owners:
            choices = unmoved.copy()
            for i in members:
                image = rows[i].get(label)
                if image is None:
                    break
                choices[i] = image
            else:
                row[label] = targets = []
                for successor in product(*choices):
                    yield successor
                    targets.append(successor)

    initial = list(product(*([i for i, (_, init) in enumerate(f) if init] for f in flags_of)))
    reached, _, _ = explore(initial, expand, max_states, "product exceeded {} states")

    # Each member state is split into its parts once, however many product
    # states it appears in; see the module docstring for when it splits.
    flat = []
    for states in states_of:
        parts = list(map(tuple_parts, states))
        flat.append(parts if len(set(map(len, parts))) == 1 else [(x,) for x in states])
    names = ["(" + ",".join(chain.from_iterable(map(getitem, flat, ids))) + ")" for ids in reached]
    if len(set(names)) != len(names):
        seen: set[str] = set()
        clash = next(x for x in names if x in seen or seen.add(x))
        raise MalformedFsmError(f"product name collision at {clash!r}")
    position = {ids: p for p, ids in enumerate(reached)}
    rows = [
        {label: tuple(sorted(map(position.__getitem__, t))) for label, t in row.items()}
        for row in moves
    ]
    flags = [
        (any(f[i][0] for f, i in zip(flags_of, ids)), p < len(initial))
        for p, ids in enumerate(reached)
    ]
    return Fsm._trusted(names, {label for label, _ in owners}, rows, flags)


def compose_network(network: Network, max_states: int | None = None) -> Fsm:
    """Monolithic machine equivalent to the whole network."""
    return compose_many(network.machines, max_states=max_states)
