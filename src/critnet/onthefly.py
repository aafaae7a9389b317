"""Integrated decision and synthesis without materializing the composition.

The explorer walks aggregates (one estimate per member) breadth first, the
way the composed bank would, but stores only the per-member pieces. A fresh
aggregate whose combined estimate straddles the critical boundary settles
the question immediately: not observable, stop. If exploration drains the
frontier instead, the recorded pieces already span the projected local
observers and the network is observable.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from operator import getitem

from .compose import Network, explore, owners_by_label
from .observer import EstimateTable, ObserverFsm, Verdict


def straddle_test(
    parts: tuple[frozenset[str], ...], criticals: list[frozenset[str]]
) -> bool:
    """Whether a combined estimate mixes critical and non-critical states.

    The combined estimate is the cartesian product of the parts, where a
    tuple is critical as soon as one component is. The product touches the
    critical set iff some part intersects its member's critical set, and is
    contained in it iff some part is a subset of one. This closed form
    avoids enumerating the product.
    """
    touches = any(z & c for z, c in zip(parts, criticals))
    if not touches:
        return False
    contained = any(z <= c for z, c in zip(parts, criticals))
    return not contained


@dataclass(frozen=True)
class OnTheFlyOutcome:
    """Result of the integrated exploration.

    ``locals`` holds the projected local observers (per member, in member
    order) and is None when the network is not observable. The witnessed
    fields expose what had been recorded when exploration stopped; on the
    observable outcome the finalized locals extend the witnessed transitions
    with every transition of the full local observer whose endpoints both
    survived the projection.
    """

    verdict: Verdict
    locals: tuple[tuple[str, ObserverFsm], ...] | None
    aggregates_seen: int
    generations: int
    witnessed_states: tuple[tuple[frozenset[str], ...], ...]
    witnessed_transitions: tuple[
        tuple[tuple[frozenset[str], str, frozenset[str]], ...], ...
    ]


def run_onthefly(
    network: Network,
    max_states: int | None = None,
    on_generation: Callable[[int, int, int], None] | None = None,
) -> OnTheFlyOutcome:
    """Decide observability and synthesize projected locals in one pass.

    Exploration is breadth first by generation; aggregates within a
    generation go in canonical order and labels in sorted order, so the
    first straddling aggregate (the witness) is reproducible. The optional
    ``on_generation`` callback receives (generation index, frontier size,
    aggregates seen so far) at the start of each generation.

    Each member's estimates live in its own lazily built ``EstimateTable``,
    so aggregates are tuples of int ids and every member step is computed
    once per estimate. Estimates reappear only in the outcome.
    """
    machines = network.machines
    tables = [EstimateTable(m) for m in machines]
    keys = [t.keys for t in tables]
    touches = [t.touches for t in tables]
    contained = [t.contained for t in tables]
    owners = owners_by_label(machines)
    rec_states: list[dict[int, None]] = [{0: None} for _ in machines]
    rec_trans: list[dict[tuple[int, str], int]] = [{} for _ in machines]

    def expand(agg: tuple[int, ...]):
        rows = list(map(EstimateTable.row, tables, agg))
        for label, members in owners:
            parts = list(agg)
            for i in members:
                image = rows[i].get(label)
                if image is None:
                    break
                parts[i] = image
            else:
                successor = tuple(parts)
                yield successor
                for i in members:
                    rec_states[i][successor[i]] = None
                    rec_trans[i][(agg[i], label)] = successor[i]

    def straddles(agg: tuple[int, ...]) -> bool:
        # straddle_test's closed form, over every member's flags.
        return any(map(getitem, touches, agg)) and not any(
            map(getitem, contained, agg)
        )

    # Every table interns its member's initial estimate as id 0. The initial
    # aggregate is never straddle-tested: construction forces each member's
    # initial states to one side of its critical set, which puts the initial
    # product wholly on one side too.
    seen, witness, generations = explore(
        ((0,) * len(machines),),
        expand,
        max_states,
        "exploration exceeded {} aggregates",
        key=lambda agg: tuple(map(getitem, keys, agg)),
        stop=straddles,
        on_generation=on_generation,
    )
    if witness is None:
        verdict = Verdict(True)
        locals_ = tuple(
            (name, _finalize_local(t, kept))
            for name, t, kept in zip(network.names, tables, rec_states)
        )
    else:
        verdict = Verdict(False, tuple(t.estimates[z] for t, z in zip(tables, witness)))
        locals_ = None
    return OnTheFlyOutcome(
        verdict=verdict,
        locals=locals_,
        aggregates_seen=len(seen),
        generations=generations,
        witnessed_states=tuple(
            tuple(t.estimates[z] for z in d) for t, d in zip(tables, rec_states)
        ),
        witnessed_transitions=tuple(
            tuple(
                (t.estimates[src], label, t.estimates[dst])
                for (src, label), dst in d.items()
            )
            for t, d in zip(tables, rec_trans)
        ),
    )


def _finalize_local(table: EstimateTable, kept: dict[int, None]) -> ObserverFsm:
    """Full local observer restricted to the states the composition visits.

    Kept ids become positions in the order first reached, id 0 first.
    """
    position = {z: p for p, z in enumerate(kept)}
    rows = [{a: position[d] for a, d in table.row(z).items() if d in position} for z in kept]
    flags = [1 if table.touches[z] else 0 for z in kept]
    states = [table.estimates[z] for z in kept]
    return ObserverFsm._trusted(states, table.machine.alphabet, rows, flags)
