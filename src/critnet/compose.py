"""Parallel composition of machines and networks, and the product walk.

Members synchronize on shared labels and interleave on private ones. A shared
label fires only when every member owning it has at least one successor;
otherwise it blocks. A product state is critical as soon as one component is.

``walk_product`` steps packed ints for the plant and the observer bank (see
there), runs of labels in blocks, and stores each target as it steps, as the
on-the-fly walk does;
``explore`` is the breadth-first kernel of the walks that are not packed:
observer construction and reachability, ``iso_check`` and the validator.
``compose_many`` hands the plant over as an int table (``Fsm.int_moves``). It
names each product state once, at the end, as "(x1,x2,...,xN)", and numbers
the states by those names, as ids follow sorted names in every machine. A
member's states are flattened into that name only when all of them split
(``tuple_parts``) into the same number of parts, which every product does;
otherwise they stay whole, so "(x,y)" next to "x" keeps distinct names.
Re-composing a composed machine, in memory or read back from a file, thus
flattens again, and association order changes neither state names nor
structure. Member state names are assumed free of commas outside brackets and
of unbalanced brackets.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from itertools import product
from math import inf, prod

from .errors import BudgetExceededError, InvalidInputError, MalformedFsmError
from .fsm import Fsm


class Members:
    """(name, part) pairs fixed at construction, in the one slot a subclass declares: one or
    more, names distinct nonempty strings, parts ``_kind``; errors name ``_owner`` and ``_role``.
    Equality, hash and repr follow the pairs."""

    __slots__ = ()

    def __init__(self, pairs: Iterable[tuple[str, object]]):
        pairs, role, kind = tuple(pairs or ()), self._role, self._kind
        if not pairs:
            raise InvalidInputError(f"{self._owner} needs at least one {role}")
        for i, pair in enumerate(pairs):
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise InvalidInputError(f"{role} {i} is {pair!r}, not a (name, {kind.__name__}) pair")
        names = [name for name, _ in pairs]
        if strays := [name for name in names if not isinstance(name, str)]:
            raise InvalidInputError(f"{role} name {strays[0]!r} is not a string")
        if len(set(names)) != len(names):
            raise InvalidInputError(f"duplicate {role} names in {names}")
        if not all(names):
            raise InvalidInputError(f"{role} names must be nonempty")
        for name, value in pairs:
            if not isinstance(value, kind):
                raise InvalidInputError(f"{role} {name!r} is {value!r}, not an {kind.__name__}")
        object.__setattr__(self, self.__slots__[0], pairs)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _pairs(self) -> tuple:
        return getattr(self, self.__slots__[0])

    def __eq__(self, other: object) -> bool:
        return self._pairs() == other._pairs() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._pairs())

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self.__slots__[0]}={self._pairs()!r})"

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._pairs())


class Network(Members):
    """An ordered collection of named machines composed by synchronization."""

    __slots__ = ("members",)
    _owner, _role, _kind = "a network", "member", Fsm

    @property
    def machines(self) -> tuple[Fsm, ...]:
        return tuple(m for _, m in self.members)

    def get(self, name: str) -> Fsm:
        return dict(self.members)[name]


def split_commas(text: str, opening: str, closing: str) -> list[str] | None:
    """``text`` split at the commas outside brackets, or None when unbalanced.

    Any character of ``opening`` opens a bracket and any of ``closing``
    closes one; all kinds count towards one depth.
    """
    if not any(map(text.__contains__, opening + closing)):
        return text.split(",")
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
    stop: Callable[[Hashable], bool] | None = None,
) -> tuple[list[Hashable], Hashable | None]:
    """Breadth-first walk from ``init``, each state expanded in the order stored.

    A fresh state for which ``stop`` holds ends the walk before it is stored.
    More than ``max_states`` states, in the initial set or after any store,
    raise ``BudgetExceededError`` with ``budget_message.format(max_states)``.
    Returns the stored states in discovery order and the stop state or None.
    """
    limit = inf if max_states is None else max_states
    seen = dict.fromkeys(init)
    check_budget(len(seen), max_states, budget_message)
    states = list(seen)
    for s in states:
        for t in expand(s):
            if t not in seen:
                if stop is not None and stop(t):
                    return states, t
                seen[t] = None
                states.append(t)
                if len(states) > limit:
                    raise BudgetExceededError(budget_message.format(max_states))
    return states, None


def field_layout(widths: Sequence[int], low: int = 0) -> list[tuple[int, int]]:
    """Per member, (mask, shift) of its ``widths[i]`` bits in a packed int,
    member 0 highest, all above the lowest ``low`` bits."""
    layout, shift = [], low + sum(widths)
    for width in widths:
        shift -= width
        layout.append((((1 << width) - 1) << shift, shift))
    return layout


def _step(s: int, label: str, fields) -> int | tuple[int, ...] | None:
    """State ``s``'s move on ``label`` by its owners' ``fields``: None, a delta, or deltas."""
    delta, split = 0, ()
    for rows, mask, shift in fields:
        z = (s & mask) >> shift
        ys = rows[z].get(label)
        if ys is None:
            return None
        if ys.__class__ is not int:
            if len(ys) > 1:  # (y - z) << shift per target, with no closure
                split += (tuple(map(shift.__rlshift__, map(z.__rsub__, ys))),)
                continue
            ys = ys[0]
        delta += (ys - z) << shift
    return tuple(map(delta.__add__, map(sum, product(*split)))) if split else delta


# A block's memo holds at most 2**BLOCK_BITS keys. In-process, against one memo per label,
# `run_onthefly` on the benchmark's `line` and `chain` inputs read 1.04x and 0.96x with 6 bits,
# 0.79x and 0.82x with 9, 0.74x and 0.77x with 12, but with 12 their 14-bit plants and banks
# form no blocks. Fields at most 1.5 BLOCK_BITS wide form none: a block key is most of the state.
BLOCK_BITS = 9


def _fill(s: int, labels, step, *args) -> tuple:
    """A block's moves from ``s``, ``(label, move, None)`` per label that moves, each from the
    label's memo. A miss calls ``step(s, label, own, *args)``, and the move it finds carries
    ``own`` in place of None: first stepped here, so the on-the-fly walk logs it."""
    moves = ()
    for label, mask, memo, own in labels:
        if (x := memo.get(s & mask)) is None:
            d = step(s, label, own, *args)
            x = memo[s & mask] = () if d is None else ((label, d, None),)
            x = x and ((label, d, own),)
        moves += x
    return moves


def label_plan(owners, fields) -> list[tuple]:
    """How a packed walk steps the labels, in sorted order: ``(label, mask, memo, owners'
    fields)`` each, ``fields[i]`` being member i's (mask second, shift third), the memo keyed by
    ``s & mask``; mask None and a ``(mask, memo, (field,))`` per owner for a label all members
    own. In fields over 1.5 ``BLOCK_BITS`` bits wide, runs of other labels whose owners span at
    most ``BLOCK_BITS`` bits are blocks, ``(None, mask, memo of _fill's moves, run)``."""
    plan, last, n = [], (None, None), len(fields)
    wide = (fields[0][1] >> fields[-1][2]).bit_length() > BLOCK_BITS * 3 // 2
    for label, members in owners:
        mask, own = 0, ()
        for i in members:
            mask += fields[i][1]
            own += (fields[i],)
        if len(members) == n > 1:
            plan.append(last := (label, None, [(f[1], {}, (f,)) for f in own], own))
        elif wide and last[1] is not None and (join := last[1] | mask).bit_count() <= BLOCK_BITS:
            run = [last] if last[0] is not None else last[3]
            plan[-1] = last = (None, join, {}, [*run, (label, mask, {}, own)])
        else:
            plan.append(last := (label, mask, {}, own))
    return plan


def walk_product(rows_of, owners, starts, max_states, budget_message) -> tuple[list, list]:
    """Breadth-first walk of the synchronous product of int tables, packed.

    Member i has a row ``{label: targets}`` (one id, or ascending ids) per
    state id in ``rows_of[i]`` and initial ids ``starts[i]``; ``owners`` is
    ``owners_by_label`` of the members. A state is one int with a field per
    member (``field_layout``). ``_step`` gives a move as None (blocked), one
    delta, or deltas in ``itertools.product`` order, so states are found in
    member-id order. Labels step through ``label_plan``'s memos, a block per
    lookup, and a miss calls ``_step`` (in a block, via ``_fill``). Each
    target is stored as the walk steps to it, in ``explore``'s order and
    budget, so the row can hold its position.
    Returns per state, by discovery position, its row ``{label: target
    position or list of positions}``, and per member its id in each state.
    """
    # The initial states alone can be too many to list, so count them first.
    check_budget(prod(map(len, starts)), max_states, budget_message)
    layout = field_layout([(len(rows) - 1).bit_length() or 1 for rows in rows_of])
    plan = label_plan(owners, [(rows, *f) for rows, f in zip(rows_of, layout)])
    limit = inf if max_states is None else max_states
    states = list(map(sum, product(*[[z << f[1] for z in ids] for ids, f in zip(starts, layout)])))
    seen, moves = dict(zip(states, range(len(states)))), []
    for s in states:  # expanded in the order stored, so moves[p] is state p's row
        if len(states) > limit:  # every state is expanded, so one stored past the budget raises
            raise BudgetExceededError(budget_message.format(max_states))
        moves.append(row := {})
        for label, mask, memo, fields in plan:
            base = s
            if mask is not None:
                try:
                    d = memo[s & mask]
                except KeyError:  # a miss costs more than with get, but a hit less
                    d = memo[s & mask] = _step(s, label, fields) if label else _fill(s, fields, _step)
            else:
                d, split = 0, ()
                for mask, own, one in memo:
                    try:
                        x = own[s & mask]
                    except KeyError:
                        x = own[s & mask] = _step(s, label, one)
                    if x is None:
                        d = split = None
                        break
                    if x.__class__ is int:
                        d += x
                    else:
                        split += (x,)
                if split:
                    base, d = s + d, map(sum, product(*split))
            if d is None:
                continue
            if d.__class__ is int:
                if (p := seen.get(t := s + d)) is None:
                    p = seen[t] = len(states)
                    states.append(t)
                row[label] = p
                continue
            if label is not None:
                row[label] = targets = []
                for x in d:
                    if (p := seen.get(t := base + x)) is None:
                        p = seen[t] = len(states)
                        states.append(t)
                    targets.append(p)
                continue
            for label, d, _ in d:  # a block's moves, each stored as a label's
                if d.__class__ is int:
                    if (p := seen.get(t := s + d)) is None:
                        p = seen[t] = len(states)
                        states.append(t)
                    row[label] = p
                    continue
                row[label] = targets = []
                for x in d:
                    if (p := seen.get(t := s + x)) is None:
                        p = seen[t] = len(states)
                        states.append(t)
                    targets.append(p)
    ids = []
    for mask, shift in layout:
        ids.append(list(map(shift.__rrshift__, map(mask.__and__, states))))
    return moves, ids


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
    budget = "product exceeded {} states"
    if len(machines) == 1:
        check_budget(len(machines[0].states), max_states, budget)
        return machines[0]

    owners = owners_by_label(machines)
    states_of, rows_of, flags_of = zip(*(m.int_moves() for m in machines))
    starts = [[z for z, (_, init) in enumerate(flags) if init] for flags in flags_of]
    moves, fields = walk_product(rows_of, owners, starts, max_states, budget)

    # A member's states are split into their parts once, and only if a name
    # has a bracket; see the module docstring for when they split.
    texts, critical = [], []
    for states, flags, ids in zip(states_of, flags_of, fields):
        parts = list(map(tuple_parts, states)) if "(" in "".join(states) else ()
        texts.append(list(map(",".join, parts)) if len(set(map(len, parts))) == 1 else states)
        critical.append(map([crit for crit, _ in flags].__getitem__, ids))
    # The first and last members' texts carry the brackets, so a name is one join.
    texts[0], texts[-1] = ["(" + x for x in texts[0]], [x + ")" for x in texts[-1]]
    names = list(map(",".join, zip(*[map(x.__getitem__, ids) for x, ids in zip(texts, fields)])))
    critical = list(map(any, zip(*critical)))
    # Ids follow sorted names, and sorting puts any equal names side by side.
    order = sorted(range(len(names)), key=names.__getitem__)
    names = list(map(names.__getitem__, order))
    for x, y in zip(names, names[1:]):
        if x == y:
            raise MalformedFsmError(f"product name collision at {x!r}")
    rank = [0] * len(order)  # by discovery position
    for r, p in enumerate(order):
        rank[p] = r
    ones = list(zip(rank))  # (rank,) per position, shared by every single target
    for row in moves:  # remapped in place
        for label, t in row.items():
            row[label] = ones[t] if t.__class__ is int else tuple(sorted(map(rank.__getitem__, t)))
    initial = prod(map(len, starts))
    flags = [(critical[p], p < initial) for p in order]
    return Fsm._trusted(names, {label for label, _ in owners}, [moves[p] for p in order], flags)


def compose_network(network: Network, max_states: int | None = None) -> Fsm:
    """Monolithic machine equivalent to the whole network."""
    return compose_many(network.machines, max_states=max_states)
