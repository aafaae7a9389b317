"""Reference for the plant product's table: a walk over tuples of member ids.

It is kept apart from ``oracles.py`` because the benchmark imports that
module into the process whose memory it measures.
"""

from __future__ import annotations

import itertools

from critnet import BudgetExceededError, Fsm, tuple_parts


def tuple_product_table(machines: list[Fsm], max_states: int | None = None):
    """The table ``compose_many`` returns, by a walk over tuples of member ids.

    Returns (names, rows, flags) laid out as ``Fsm.int_moves``, product
    states numbered in breadth-first discovery order: the initial tuples in
    lexicographic order first, then from each state the labels in sorted
    order and a label's targets in lexicographic order. A label fires when
    every member owning it has a successor. Each member's states flatten
    into the name when all of them split into the same number of parts.
    More than ``max_states`` stored states, the initial ones included,
    raise ``BudgetExceededError("product exceeded N states")``.
    """
    tables = [m.int_moves() for m in machines]
    labels = sorted(set().union(*(m.alphabet for m in machines)))

    def store(ids: tuple[int, ...]) -> None:
        position[ids] = len(order)
        order.append(ids)
        if max_states is not None and len(order) > max_states:
            raise BudgetExceededError(f"product exceeded {max_states} states")

    order: list[tuple[int, ...]] = []
    position: dict[tuple[int, ...], int] = {}
    starts = [[i for i, (_, init) in enumerate(flags) if init] for _, _, flags in tables]
    for ids in itertools.product(*starts):
        store(ids)
    initial = len(order)
    rows = []
    for ids in order:  # the list grows while it is walked: a queue
        row = {}
        for label in labels:
            choices = [
                rows_i[z].get(label, ()) if label in m.alphabet else (z,)
                for m, (_, rows_i, _), z in zip(machines, tables, ids)
            ]
            targets = list(itertools.product(*choices))
            if not targets:
                continue
            for t in targets:
                if t not in position:
                    store(t)
            row[label] = tuple(sorted(position[t] for t in targets))
        rows.append(row)

    flat = []
    for names, _, _ in tables:
        parts = [tuple_parts(x) for x in names]
        flat.append(parts if len({len(p) for p in parts}) == 1 else [(x,) for x in names])
    names = [
        "(" + ",".join(x for i, z in enumerate(ids) for x in flat[i][z]) + ")" for ids in order
    ]
    flags = [
        (any(tables[i][2][z][0] for i, z in enumerate(ids)), p < initial)
        for p, ids in enumerate(order)
    ]
    return names, rows, flags
