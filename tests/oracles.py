"""Independent reference implementations used to cross-check the library.

These are deliberately naive: word enumeration, relation enumeration over
bitmasks, tuple expansion. They share as little code with the package as
possible; only the raw transition accessor Fsm.succ, the public
constructors and an observer's table (``rows``/``flags`` by position, walked
through this module's own ``ObserverWalk`` index) are reused.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import NamedTuple

from critnet import DecentralizedObserver, Fsm, Network, ObserverFsm, Verdict, build_observer


class ObserverWalk:
    """An observer stepped by state, through a state -> position index of its own."""

    def __init__(self, obs: ObserverFsm):
        self.obs = obs
        self.position = {z: i for i, z in enumerate(obs.states)}

    def succ(self, z, label: str):
        """The unique successor of ``z``, or None when the word leaves the language."""
        j = self.obs.rows[self.position[z]].get(label)
        return None if j is None else self.obs.states[j]

    def output(self, z) -> int:
        return self.obs.flags[self.position[z]]


def structural_key(m: Fsm) -> tuple:
    """A machine by name: states, initial, alphabet, critical and named triples."""
    moves = frozenset((x, a, y) for x in m.states for a in m.alphabet for y in m.succ(x, a))
    return m.states, m.initial, m.alphabet, m.critical, moves


def naive_step(m: Fsm, states: frozenset[str], label: str) -> frozenset[str]:
    out: set[str] = set()
    for s in states:
        out |= m.succ(s, label)
    return frozenset(out)


def extended_delta(m: Fsm, states, word: tuple[str, ...]) -> frozenset[str]:
    """States reachable from ``states`` along ``word``, one naive_step per label."""
    current = frozenset(states)
    for label in word:
        current = naive_step(m, current, label)
    return current


def project_word(word: tuple[str, ...], sublabels) -> tuple[str, ...]:
    """Erase the labels outside ``sublabels``, keeping the order of the rest."""
    return tuple(label for label in word if label in sublabels)


def network_alphabet(net: Network) -> frozenset[str]:
    return frozenset().union(*(m.alphabet for _, m in net.members))


def semantic_observable(m: Fsm) -> tuple[bool, frozenset[str] | None]:
    """Decide observability by walking words directly.

    Explores every reachable joint estimate via depth-first word extension
    with a visited set; flags a violation when an estimate touches the
    critical set without being contained in it.
    """
    start = frozenset(m.initial)
    seen = {start}
    stack = [start]
    while stack:
        est = stack.pop()
        if est & m.critical and not est <= m.critical:
            return False, est
        for label in sorted(m.alphabet):
            nxt = naive_step(m, est, label)
            if nxt and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True, None


def naive_subset_order(m: Fsm) -> list[frozenset[str]]:
    """Observer states in breadth-first discovery order, labels sorted."""
    order = [frozenset(m.initial)]
    for est in order:  # the list grows while it is walked: a queue
        for label in sorted(m.alphabet):
            nxt = naive_step(m, est, label)
            if nxt and nxt not in order:
                order.append(nxt)
    return order


class NaiveRun(NamedTuple):
    """What ``naive_first_straddle`` found, in the on-the-fly outcome's terms."""

    witness: tuple[frozenset[str], ...] | None
    states: list[list[frozenset[str]]]
    moves: list[list[tuple[frozenset[str], str, frozenset[str]]]]
    stored: int
    generations: list[tuple[int, int, int]]


def naive_first_straddle(net: Network) -> NaiveRun:
    """Generation-sorted breadth-first search over aggregates.

    Within a generation aggregates go in order of their members' estimate
    keys (size, then sorted state names), labels in sorted order. Returns
    the first fresh aggregate whose expanded product straddles the critical
    boundary (None if there is none); per member, the estimates reached
    through labels it owns, in first-reached order after its initial one,
    and the moves (source, label, target) it took, in first-taken order;
    the number of aggregates stored; and (generation, frontier size,
    aggregates stored) at the start of each generation. The initial
    aggregate is never tested, and the move into the straddling aggregate
    is not taken.
    """
    machines = [m for _, m in net.members]
    criticals = tuple(m.critical for m in machines)
    labels = sorted(set().union(*(m.alphabet for m in machines)))
    init = tuple(frozenset(m.initial) for m in machines)
    recorded = [[z] for z in init]
    moves: list[dict[tuple[frozenset[str], str], frozenset[str]]] = [{} for _ in machines]
    generations: list[tuple[int, int, int]] = []

    def key(agg):
        return tuple((len(z), tuple(sorted(z))) for z in agg)

    def result(witness):
        taken = [[(src, label, dst) for (src, label), dst in d.items()] for d in moves]
        return NaiveRun(witness, recorded, taken, len(seen), generations)

    seen = {init}
    frontier = [init]
    while frontier:
        generations.append((len(generations), len(frontier), len(seen)))
        nxt = []
        for agg in sorted(frontier, key=key):
            for label in labels:
                succ = tuple(
                    naive_step(m, z, label) if label in m.alphabet else z
                    for m, z in zip(machines, agg)
                )
                if not all(succ):
                    continue
                if succ not in seen:
                    if straddle_by_enumeration(succ, criticals):
                        return result(succ)
                    seen.add(succ)
                    nxt.append(succ)
                for i, m in enumerate(machines):
                    if label in m.alphabet:
                        moves[i].setdefault((agg[i], label), succ[i])
                        if succ[i] not in recorded[i]:
                            recorded[i].append(succ[i])
        frontier = nxt
    return result(None)


def estimates_by_word(m: Fsm, max_len: int) -> dict[tuple[str, ...], frozenset[str]]:
    """Every nonempty joint estimate for words up to max_len, by literal enumeration."""
    out: dict[tuple[str, ...], frozenset[str]] = {(): frozenset(m.initial)}
    frontier = [((), frozenset(m.initial))]
    for _ in range(max_len):
        nxt = []
        for word, est in frontier:
            for label in sorted(m.alphabet):
                est2 = naive_step(m, est, label)
                if est2:
                    w2 = word + (label,)
                    out[w2] = est2
                    nxt.append((w2, est2))
        frontier = nxt
    return out


def straddle_by_enumeration(
    parts: tuple[frozenset[str], ...], criticals: tuple[frozenset[str], ...]
) -> bool:
    """Expand the aggregate into explicit tuples and classify each one."""
    verdicts = []
    for combo in itertools.product(*parts):
        verdicts.append(any(x in criticals[i] for i, x in enumerate(combo)))
    return any(verdicts) and not all(verdicts)


def check_aggregate_observer(
    composed: ObserverFsm, criticals: list[frozenset[str]]
) -> Verdict:
    """Scan a composed bank for a flagged aggregate not wholly critical.

    A one-member bank has bare estimates as states. States go in discovery
    order, so the witness is the first straddling aggregate the bank reached.
    """
    for z in composed.states:
        parts = z if isinstance(z, tuple) else (z,)
        if straddle_by_enumeration(parts, criticals):
            return Verdict(False, z)
    return Verdict(True)


def _pair_respects(
    m1: Fsm, m2: Fsm, x: str, y: str, rel: set[tuple[str, str]]
) -> bool:
    if (x in m1.initial) != (y in m2.initial):
        return False
    if (x in m1.critical) != (y in m2.critical):
        return False
    for label in m1.alphabet:
        for x2 in m1.succ(x, label):
            if not any((x2, y2) in rel for y2 in m2.succ(y, label)):
                return False
    for label in m2.alphabet:
        for y2 in m2.succ(y, label):
            if not any((x2, y2) in rel for x2 in m1.succ(x, label)):
                return False
    return True


def is_bisimulation(m1: Fsm, m2: Fsm, rel: set[tuple[str, str]]) -> bool:
    return all(_pair_respects(m1, m2, x, y, rel) for x, y in rel)


def brute_force_largest_bisim(m1: Fsm, m2: Fsm) -> frozenset[tuple[str, str]]:
    """Union of all bisimulations, found by enumerating candidate relations.

    Pairs that fail the local initial/critical agreement can never appear in
    any bisimulation, so only subsets of the locally valid pairs are tried.
    """
    candidates = [
        (x, y)
        for x in sorted(m1.states)
        for y in sorted(m2.states)
        if (x in m1.initial) == (y in m2.initial)
        and (x in m1.critical) == (y in m2.critical)
    ]
    union: set[tuple[str, str]] = set()
    for mask in range(1 << len(candidates)):
        rel = {candidates[i] for i in range(len(candidates)) if mask >> i & 1}
        if rel <= union:
            continue
        if is_bisimulation(m1, m2, rel):
            union |= rel
    return frozenset(union)


def project_observer(
    composed: ObserverFsm, index: int, member: Fsm
) -> ObserverFsm:
    """Definitional projection of a composed decentralized observer.

    Keeps exactly the member estimates that occur as component index of some
    reachable aggregate, restricts the member's full observer to them, and
    takes the accessible part.
    """
    full = build_observer(member)
    survived = set()
    for agg in composed.states:
        if isinstance(agg, tuple):
            survived.add(agg[index])
        else:
            survived.add(agg)
    trans: dict[tuple[frozenset[str], str], frozenset[str]] = {}
    for src, label, dst in full.transitions():
        if src in survived and dst in survived:
            trans[(src, label)] = dst
    keep = []
    seen = {full.initial}
    queue = [full.initial]
    while queue:
        z = queue.pop(0)
        keep.append(z)
        for label in sorted(full.alphabet):
            nxt = trans.get((z, label))
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    kept_trans = {
        (src, label): dst
        for (src, label), dst in trans.items()
        if src in seen and dst in seen
    }
    walk = ObserverWalk(full)
    outputs = {z: walk.output(z) for z in keep}
    return ObserverFsm(keep, full.initial, full.alphabet, kept_trans, outputs)


def naive_compose(machines: list[Fsm]) -> Fsm:
    """Tuple-state product built by plain fixpoint iteration."""
    if len(machines) == 1:
        return machines[0]
    init = [tuple(combo) for combo in itertools.product(*(sorted(m.initial) for m in machines))]
    labels = set()
    for m in machines:
        labels |= m.alphabet
    states = set(init)
    changed = True
    trans = set()
    while changed:
        changed = False
        for combo in list(states):
            for label in sorted(labels):
                owners = [i for i, m in enumerate(machines) if label in m.alphabet]
                choices = []
                ok = True
                for i, m in enumerate(machines):
                    if i in owners:
                        nxt = m.succ(combo[i], label)
                        if not nxt:
                            ok = False
                            break
                        choices.append(sorted(nxt))
                    else:
                        choices.append([combo[i]])
                if not ok:
                    continue
                for target in itertools.product(*choices):
                    trans.add((combo, label, tuple(target)))
                    if tuple(target) not in states:
                        states.add(tuple(target))
                        changed = True
    def flat(combo: tuple[str, ...]) -> str:
        return "(" + ",".join(combo) + ")"

    critical = {
        flat(c) for c in states if any(x in machines[i].critical for i, x in enumerate(c))
    }
    init_flat = {flat(c) for c in init}
    if critical and init_flat & critical and not init_flat <= critical:
        raise AssertionError("oracle produced mixed initial criticality")
    return Fsm(
        (flat(c) for c in states),
        init_flat,
        labels,
        ((flat(a), label, flat(b)) for a, label, b in trans),
        critical,
    )


def naive_bank_product(bank: DecentralizedObserver) -> ObserverFsm:
    """Breadth-first product of a bank of two or more locals, one member at a time.

    From each aggregate, labels go in sorted order; a label fires when every
    local owning it has a successor, and moves only those locals. The flag
    is the OR of the local flags.
    """
    observers = bank.observers
    walks = [ObserverWalk(obs) for obs in observers]
    labels = sorted(set().union(*(obs.alphabet for obs in observers)))
    init = tuple(obs.initial for obs in observers)
    order, seen, queue, trans = [init], {init}, deque([init]), {}
    while queue:
        agg = queue.popleft()
        for label in labels:
            nxt = list(agg)
            for i, obs in enumerate(observers):
                if label in obs.alphabet:
                    nxt[i] = walks[i].succ(agg[i], label)
            if None in nxt:
                continue
            target = tuple(nxt)
            trans[(agg, label)] = target
            if target not in seen:
                seen.add(target)
                order.append(target)
                queue.append(target)
    outputs = {
        agg: 1 if any(walk.output(z) for walk, z in zip(walks, agg)) else 0
        for agg in order
    }
    return ObserverFsm(order, init, labels, trans, outputs)


def observer_run(obs: ObserverFsm, word: tuple[str, ...]) -> list[tuple[object, int]]:
    """(state, output) pairs along a trace of the observer, the initial state first."""
    walk = ObserverWalk(obs)
    run = [(obs.initial, walk.output(obs.initial))]
    for label in word:
        z = walk.succ(run[-1][0], label)
        assert z is not None, f"{word} is not a trace of the observer"
        run.append((z, walk.output(z)))
    return run


def naive_sampled_runs(obs: ObserverFsm, m: Fsm, rng, runs: int, max_len: int) -> bool:
    """The sampled observer check by name, drawing what the library draws.

    Each run starts at a random initial state, sorted by name, and takes at
    most ``max_len`` random moves, a move drawn from the state's (label,
    target) pairs with labels sorted and the targets of ``Fsm.succ`` sorted.
    False as soon as the observer cannot follow or flags a state wrongly.
    """
    walk = ObserverWalk(obs)
    initial = sorted(m.initial)
    for _ in range(runs):
        x, z = rng.choice(initial), obs.initial
        if walk.output(z) != (x in m.critical):
            return False
        for _ in range(max_len):
            enabled = [(a, y) for a in sorted(m.alphabet) for y in sorted(m.succ(x, a))]
            if not enabled:
                break
            label, x = rng.choice(enabled)
            z = walk.succ(z, label)
            if z is None or walk.output(z) != (x in m.critical):
                return False
    return True


def network_traces(net: Network, max_len: int, cap: int = 2000) -> list[tuple[str, ...]]:
    """Traces of the composed network by direct joint walking, capped."""
    labels = sorted(network_alphabet(net))
    start = tuple(frozenset(m.initial) for _, m in net.members)
    traces: list[tuple[str, ...]] = [()]
    frontier = [((), start)]
    for _ in range(max_len):
        nxt = []
        for word, ests in frontier:
            for label in labels:
                parts = []
                ok = True
                for (name, m), est in zip(net.members, ests):
                    if label in m.alphabet:
                        trg = naive_step(m, est, label)
                        if not trg:
                            ok = False
                            break
                        parts.append(trg)
                    else:
                        parts.append(est)
                if ok:
                    w2 = word + (label,)
                    traces.append(w2)
                    nxt.append((w2, tuple(parts)))
                    if len(traces) >= cap:
                        return traces
        frontier = nxt
    return traces


def naive_is_iso_witness(m1: Fsm, m2: Fsm, mapping: dict[str, str]) -> bool:
    """Definition of a machine isomorphism, checked literally.

    A bijection of the full state sets that sends initial states onto
    initial states, preserves criticality, and maps every reachable state's
    successor sets onto the image's successor sets.
    """
    if m1.alphabet != m2.alphabet or set(mapping) != set(m1.states):
        return False
    if set(mapping.values()) != set(m2.states) or len(m1.states) != len(m2.states):
        return False
    if {mapping[x] for x in m1.initial} != set(m2.initial):
        return False
    if any((x in m1.critical) != (mapping[x] in m2.critical) for x in m1.states):
        return False
    seen = set(m1.initial)
    stack = list(m1.initial)
    while stack:
        x = stack.pop()
        for label in m1.alphabet:
            succ = m1.succ(x, label)
            if {mapping[y] for y in succ} != set(m2.succ(mapping[x], label)):
                return False
            stack.extend(succ - seen)
            seen |= succ
    return True


def naive_iso_check(m1: Fsm, m2: Fsm) -> dict[str, str] | None:
    """First criticality-preserving bijection that is a witness, or None."""
    sides1 = [sorted(m1.critical), sorted(m1.states - m1.critical)]
    sides2 = [sorted(m2.critical), sorted(m2.states - m2.critical)]
    if [len(s) for s in sides1] != [len(s) for s in sides2]:
        return None
    for crit, rest in itertools.product(
        itertools.permutations(sides2[0]), itertools.permutations(sides2[1])
    ):
        mapping = dict(zip(sides1[0] + sides1[1], crit + rest))
        if naive_is_iso_witness(m1, m2, mapping):
            return mapping
    return None


def naive_monitor(
    locals_: list[tuple[str, ObserverFsm]], word: tuple[str, ...]
) -> tuple[list[tuple], tuple, str | None]:
    """Replay a word by stepping every local on its own, one at a time.

    Returns the records as (index, label, moved, outputs, flag) tuples, the
    states reached, and the desync text of the first event some owner of
    its label cannot follow (None if there is none). A desync stops the
    replay with every local left where it was before that event.
    """
    states = [obs.initial for _, obs in locals_]
    walks = [ObserverWalk(obs) for _, obs in locals_]
    records: list[tuple] = []
    for index, label in enumerate(word, start=1):
        moved = tuple(label in obs.alphabet for _, obs in locals_)
        after = list(states)
        for i, (name, obs) in enumerate(locals_):
            if moved[i]:
                z = walks[i].succ(states[i], label)
                if z is None:
                    return records, tuple(states), (
                        f"local {name!r} has no move on {label!r}: "
                        f"the stream is not a trace of the composed plant"
                    )
                after[i] = z
        states = after
        outputs = tuple(walk.output(z) for walk, z in zip(walks, states))
        records.append((index, label, moved, outputs, 1 if any(outputs) else 0))
    return records, tuple(states), None


def brute_force_observer_iso(o1: ObserverFsm, o2: ObserverFsm) -> list[dict]:
    """Every isomorphism from ``o1`` onto ``o2``, by trying each bijection.

    A bijection qualifies when it sends the initial state to the initial
    state, keeps every output, and maps the transition triples of ``o1``
    exactly onto those of ``o2`` over an equal alphabet. Only the states,
    initial state, alphabet, outputs and ``transitions()`` are read.
    """
    if o1.alphabet != o2.alphabet or len(o1.states) != len(o2.states):
        return []
    out1, out2 = dict(zip(o1.states, o1.flags)), dict(zip(o2.states, o2.flags))
    if out1[o1.initial] != out2[o2.initial]:
        return []
    moves1, moves2 = o1.transitions(), set(o2.transitions())
    # Non-initial states grouped by output; a bijection permutes within a group.
    rest1 = [[z for z in o1.states if z != o1.initial and out1[z] == b] for b in (0, 1)]
    rest2 = [[z for z in o2.states if z != o2.initial and out2[z] == b] for b in (0, 1)]
    if list(map(len, rest1)) != list(map(len, rest2)):
        return []
    found = []
    for zeros, ones in itertools.product(*map(itertools.permutations, rest2)):
        mapping = dict(zip(rest1[0] + rest1[1], zeros + ones))
        mapping[o1.initial] = o2.initial
        if {(mapping[x], a, mapping[y]) for x, a, y in moves1} == moves2:
            found.append(mapping)
    return found
