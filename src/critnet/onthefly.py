"""Integrated decision and synthesis without materializing the composition.

The explorer walks aggregates (one estimate per member) breadth first, the
way the composed bank would, but stores only the per-member pieces. A fresh
aggregate whose combined estimate straddles the critical boundary settles
the question immediately: not observable, stop. If exploration drains the
frontier instead, the recorded pieces already span the projected local
observers and the network is observable.

An aggregate is one int: the count of members whose estimate lies inside
their critical set, above it the count of those whose estimate touches it,
then one field per member (``compose.field_layout``, member 0 highest), n
bits wide for n states, holding the estimate's key (``EstimateTable``), so
aggregates sort canonically as plain ints. Labels step through the memos of
``compose.label_plan``, as the product walk's do: each holds the delta a move
adds to fields and counts (None: blocked), or a block's moves, so one AND and
one lookup serve a run of labels; a miss reads the owners' rows by their keys.
Like ``compose.walk_product``, the walk stores each fresh aggregate as it
steps; a move first stepped is logged, and the log is decoded after the walk.
"""

from __future__ import annotations

from collections.abc import Callable
from math import inf
from typing import NamedTuple

from .compose import Network, _fill, check_budget, field_layout, label_plan, owners_by_label
from .errors import BudgetExceededError
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


class OnTheFlyOutcome(NamedTuple):
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


def _step(agg: int, label: str, owners, width: int) -> int | None:
    """The delta ``label`` adds to ``agg``'s owners' fields and to both counts
    (``width`` bits each), or None when some owner blocks it."""
    delta = 0
    for t, mask, shift, _ in owners:
        z = (agg & mask) >> shift
        y = t.row(z).get(label)
        if y is None:
            return None
        delta += ((y - z) << shift) + ((t.touches[y] - t.touches[z]) << width)
        delta += t.contained[y] - t.contained[z]
    return delta


def run_onthefly(
    network: Network,
    max_states: int | None = None,
    on_generation: Callable[[int, int, int], None] | None = None,
) -> OnTheFlyOutcome:
    """Decide observability and synthesize projected locals in one pass.

    Exploration is breadth first by generation; aggregates within a
    generation go in canonical order and labels in sorted order, so the
    first straddling aggregate (the witness) is reproducible. A fresh
    aggregate is straddle-tested, then stored and counted against
    ``max_states``. ``on_generation`` receives (generation index, frontier
    size, aggregates seen so far) at the start of each generation.

    Each member's estimates live in its own lazily built ``EstimateTable``;
    an aggregate packs their keys into one int (see the module docstring),
    so a generation sorts as plain ints. A move is logged where its label's
    memo is filled, as a block's first fill steps it. A member's witnessed
    transitions are its part of the logged moves, in order, and its
    witnessed states their targets after its initial key; the move into the
    witness is never logged. Estimates are named only in the outcome.
    """
    machines = network.machines
    width = len(machines).bit_length()
    inside = (1 << width) - 1
    # Per member: its table, field mask and shift, and the recorded moves
    # {(key, label): key} in first-recorded order.
    tables = [EstimateTable(m) for m in machines]
    layout = field_layout([len(m.states) for m in machines], 2 * width)
    fields = [(t, mask, shift, {}) for t, (mask, shift) in zip(tables, layout)]
    initial = 0
    for t, _, shift, _ in fields:
        initial += (t.touches[t.start] << width) + t.contained[t.start] + (t.start << shift)
    plan, log = label_plan(owners_by_label(machines), fields), []
    limit = inf if max_states is None else max_states
    message = "exploration exceeded {} aggregates"
    check_budget(1, max_states, message)
    # The initial aggregate is never straddle-tested: construction forces
    # each member's initial states to one side of its critical set, which
    # puts the initial product wholly on one side too.
    frontier, seen, witness, generations = [initial], {initial}, None, 0
    while frontier and witness is None:
        if on_generation is not None:
            on_generation(generations, len(frontier), len(seen))
        expanding, frontier = sorted(frontier), []
        for agg in expanding:
            for label, mask, memo, owners in plan:
                if mask is not None:
                    delta = memo.get(agg & mask, _step)
                    fresh = delta is _step
                    if fresh and label:
                        delta = memo[agg & mask] = _step(agg, label, owners, width)
                    elif fresh:  # a block
                        delta = memo[agg & mask] = _fill(agg, owners, _step, width)
                else:
                    # A part is memoized only once a move using it fires, so a
                    # miss marks a first recording even after the label was
                    # blocked.
                    delta, fresh = 0, []
                    for mask, own, one in memo:
                        part = own.get(agg & mask, _step)
                        if part is _step:
                            part = _step(agg, label, one, width)
                            fresh.append((own, agg & mask, part))
                        if part is None:
                            own[agg & mask] = delta = None
                            break
                        delta += part
                    else:
                        for own, key, part in fresh:
                            own[key] = part
                if delta is None:
                    continue
                if label is not None:
                    if (t := agg + delta) not in seen:
                        if t & inside << width and not t & inside:
                            witness = t
                            break
                        seen.add(t)
                        if len(seen) > limit:
                            raise BudgetExceededError(message.format(max_states))
                        frontier.append(t)
                    if fresh:
                        log.append((agg, t, owners, label))
                    continue
                for label, delta, owners in delta:  # a block's moves, each stepped as a label's
                    if (t := agg + delta) not in seen:
                        if t & inside << width and not t & inside:
                            witness = t
                            break
                        seen.add(t)
                        if len(seen) > limit:
                            raise BudgetExceededError(message.format(max_states))
                        frontier.append(t)
                    if fresh and owners:
                        log.append((agg, t, owners, label))
                else:
                    continue
                break
            if witness is not None:
                break
        else:
            generations += 1
    for src, dst, owners, label in log:
        for _, mask, shift, recorded in owners:
            recorded.setdefault(((src & mask) >> shift, label), (dst & mask) >> shift)
    # Each field of a stored aggregate is an initial key or a logged target,
    # so every recorded move starts at a kept key: the initial key, then the
    # recorded targets in first-recorded order. Each is named once.
    kept = [list(dict.fromkeys((t.start, *recorded.values()))) for t, _, _, recorded in fields]
    named = [dict(zip(keys, map(t.estimate, keys))) for t, keys in zip(tables, kept)]
    if witness is None:
        verdict = Verdict(True)
        locals_ = tuple(zip(network.names, map(EstimateTable.observer, tables, kept)))
    else:
        masks, shifts = zip(*layout)
        keys = map(int.__rshift__, map(witness.__and__, masks), shifts)
        verdict = Verdict(False, tuple(map(EstimateTable.estimate, tables, keys)))
        locals_ = None
    return OnTheFlyOutcome(
        verdict=verdict,
        locals=locals_,
        aggregates_seen=len(seen),
        generations=generations,
        witnessed_states=tuple(tuple(names.values()) for names in named),
        witnessed_transitions=tuple(
            tuple((names[src], label, names[dst]) for (src, label), dst in d.items())
            for names, (_, _, _, d) in zip(named, fields)
        ),
    )
