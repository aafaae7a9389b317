"""Plain-data machines and the reference answers computed from them.

Nothing here imports critnet. The generators build `Machine` records, write
them in the network text format, and derive the expected answers (product
sizes, bisimulation classes, plant runs and their criticality) with code of
their own, so a check never compares the library against itself.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
class Machine:
    name: str
    states: tuple[str, ...]
    initial: tuple[str, ...]
    alphabet: tuple[str, ...]
    critical: frozenset[str]
    trans: tuple[tuple[str, str, str], ...]

    def succ_table(self) -> dict[tuple[str, str], tuple[str, ...]]:
        table: dict[tuple[str, str], list[str]] = {}
        for src, label, dst in self.trans:
            table.setdefault((src, label), []).append(dst)
        return {key: tuple(dsts) for key, dsts in table.items()}

    def renamed(self, name: str, prefix: str) -> Machine:
        """Same machine under a new name with every state renamed."""
        ren = {s: prefix + s for s in self.states}
        return Machine(
            name,
            tuple(ren[s] for s in self.states),
            tuple(ren[s] for s in self.initial),
            self.alphabet,
            frozenset(ren[s] for s in self.critical),
            tuple((ren[a], label, ren[b]) for a, label, b in self.trans),
        )

    def split(self, name: str, target: str, twin: str) -> Machine:
        """Add a twin of ``target`` with the same past, future, flags.

        The twin is bisimilar to its original, so the result is bisimilar
        to this machine.
        """
        extra = []
        for src, label, dst in self.trans:
            if src == target:
                extra.append((twin, label, dst))
            if dst == target:
                extra.append((src, label, twin))
            if src == dst == target:
                extra.append((twin, label, twin))
        return Machine(
            name,
            self.states + (twin,),
            self.initial + ((twin,) if target in self.initial else ()),
            self.alphabet,
            self.critical | ({twin} if target in self.critical else set()),
            tuple(dict.fromkeys(self.trans + tuple(extra))),
        )


def render_network(machines: Sequence[Machine]) -> str:
    """The network text format, one `fsm` section per machine."""
    chunks = []
    for m in machines:
        lines = [
            f"fsm {m.name}",
            "  states " + " ".join(m.states),
            "  initial " + " ".join(m.initial),
            "  alphabet " + " ".join(m.alphabet),
        ]
        if m.critical:
            lines.append("  critical " + " ".join(s for s in m.states if s in m.critical))
        lines.extend(f"  trans {a} {label} {b}" for a, label, b in m.trans)
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def _owners(machines: Sequence[Machine]) -> dict[str, tuple[int, ...]]:
    labels = sorted({label for m in machines for label in m.alphabet})
    return {
        label: tuple(i for i, m in enumerate(machines) if label in m.alphabet)
        for label in labels
    }


def product_counts(machines: Sequence[Machine]) -> tuple[int, int]:
    """(states, critical states) of the reachable synchronous product.

    A single machine composes to itself, unreachable states included. A
    product state is critical when some component is.
    """
    if len(machines) == 1:
        m = machines[0]
        return len(m.states), len(m.critical)
    tables = [m.succ_table() for m in machines]
    owners = _owners(machines)
    seen = set(product(*(m.initial for m in machines)))
    stack = list(seen)
    while stack:
        parts = stack.pop()
        for label, who in owners.items():
            choices: list[tuple[str, ...]] = [(x,) for x in parts]
            for i in who:
                nxt = tables[i].get((parts[i], label))
                if not nxt:
                    break
                choices[i] = nxt
            else:
                for successor in product(*choices):
                    if successor not in seen:
                        seen.add(successor)
                        stack.append(successor)
    critical = sum(
        1 for parts in seen if any(x in m.critical for x, m in zip(parts, machines))
    )
    return len(seen), critical


def bisimilar(m1: Machine, m2: Machine) -> bool:
    """Whether two members are interchangeable in a network.

    Equal alphabets, and a bisimulation whose related states agree on being
    critical and on being initial that covers every initial state on both
    sides. Computed as a greatest fixpoint over candidate pairs.
    """
    if set(m1.alphabet) != set(m2.alphabet):
        return False
    t1, t2 = m1.succ_table(), m2.succ_table()
    i1, i2 = set(m1.initial), set(m2.initial)
    rel = {
        (x, y)
        for x in m1.states
        for y in m2.states
        if (x in i1) == (y in i2) and (x in m1.critical) == (y in m2.critical)
    }
    changed = True
    while changed:
        changed = False
        for x, y in list(rel):
            for label in m1.alphabet:
                s1, s2 = t1.get((x, label), ()), t2.get((y, label), ())
                if not all(any((a, b) in rel for b in s2) for a in s1) or not all(
                    any((a, b) in rel for a in s1) for b in s2
                ):
                    rel.discard((x, y))
                    changed = True
                    break
    left = {x for x, _ in rel}
    right = {y for _, y in rel}
    return i1 <= left and i2 <= right


def bisim_classes(machines: Sequence[Machine]) -> list[list[str]]:
    """Members grouped by bisimilarity, classes in order of first member."""
    classes: list[list[Machine]] = []
    for m in machines:
        for cls in classes:
            if bisimilar(cls[0], m):
                cls.append(m)
                break
        else:
            classes.append([m])
    return [[m.name for m in cls] for cls in classes]


def simulate(
    machines: Sequence[Machine], rng: random.Random, length: int
) -> tuple[list[str], list[int]]:
    """A random plant run: its events and, after each, its criticality.

    Each step picks an event every owner can fire and a successor for each
    owner. The run stops early if no event is enabled.
    """
    # moves[i][x][label]: successors of member i's state x under label.
    moves: list[dict[str, dict[str, tuple[str, ...]]]] = []
    for m in machines:
        by_state: dict[str, dict[str, tuple[str, ...]]] = {x: {} for x in m.states}
        for (x, label), dsts in m.succ_table().items():
            by_state[x][label] = dsts
        moves.append(by_state)
    owners = list(_owners(machines).items())
    criticals = [m.critical for m in machines]
    state = [rng.choice(m.initial) for m in machines]
    here = [moves[i][x] for i, x in enumerate(state)]
    critical_count = sum(x in c for x, c in zip(state, criticals))
    events: list[str] = []
    flags: list[int] = []
    for _ in range(length):
        enabled = []
        for label, who in owners:
            for i in who:
                if label not in here[i]:
                    break
            else:
                enabled.append((label, who))
        if not enabled:
            break
        label, who = rng.choice(enabled)
        for i in who:
            options = here[i][label]
            nxt = options[0] if len(options) == 1 else rng.choice(options)
            critical_count += (nxt in criticals[i]) - (state[i] in criticals[i])
            state[i] = nxt
            here[i] = moves[i][nxt]
        events.append(label)
        flags.append(1 if critical_count else 0)
    return events, flags
