"""Machine equivalences: isomorphism, bisimulation, and network reduction.

Isomorphism here is structural identity of two observers up to state
renaming, outputs and initial states included. Bisimulation is the coarser
behavioural match used to drop redundant network members before synthesis:
bisimilar members add no information to the composed estimate, only
state-space volume. Every bisimulation question is answered by one partition
refinement over the disjoint union of the machines involved.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .compose import Network, compose_network, explore
from .fsm import Fsm
from .observer import (
    ObserverFsm,
    Verdict,
    build_observer,
    check_observable,
    distinct_tables,
    sampled_runs_agree,
    validate_critical_observer,
)


class IsoWitness(NamedTuple):
    """A bijection on states witnessing isomorphism."""

    mapping: dict


def is_iso_witness(o1: ObserverFsm, o2: ObserverFsm, mapping: dict) -> bool:
    """Check a candidate bijection against the isomorphism conditions.

    The map must be a bijection of the full state sets that sends the
    initial state to the initial state, preserves every output, and commutes
    with the transitions: a move exists on one side exactly when its image
    exists on the other.
    """
    if o1.alphabet != o2.alphabet or set(mapping) != set(o1.states):
        return False
    if set(mapping.values()) != set(o2.states) or len(mapping) != len(o2.states):
        return False
    index = {z: j for j, z in enumerate(o2.states)}
    image = [index[mapping[z]] for z in o1.states]
    if image[o1.start] != o2.start:
        return False
    for i, j in enumerate(image):
        row = {label: image[k] for label, k in o1.rows[i].items()}
        if o1.flags[i] != o2.flags[j] or row != o2.rows[j]:
            return False
    return True


def iso_check(o1: ObserverFsm, o2: ObserverFsm) -> IsoWitness | None:
    """Find an isomorphism witness, or None when the observers differ.

    The walk proposes and ``is_iso_witness`` decides. Observers are
    deterministic and every state is reachable, so under any isomorphism
    the pairs a lockstep walk from the initial states reaches, along the
    moves both sides have, are exactly its graph. Any map the pairs give is
    thus the only candidate.
    """

    def expand(pair: tuple[int, int]) -> list[tuple[int, int]]:
        row2 = o2.rows[pair[1]]
        return [(a, row2[label]) for label, a in o1.rows[pair[0]].items() if label in row2]

    pairs, _ = explore(((o1.start, o2.start),), expand)
    mapping = {o1.states[x]: o2.states[y] for x, y in pairs}
    return IsoWitness(mapping) if is_iso_witness(o1, o2, mapping) else None


def _refinement_classes(machines: Sequence[Fsm]) -> list[list[int]]:
    """Coarsest stable partition of the disjoint union of ``machines``.

    Round-based signature refinement over integer state ids, after
    Kanellakis and Smolka 1990 (Paige and Tarjan 1987 refine by splitters
    instead, in O(m log n)). Blocks start from the (critical, initial) flags.
    Each round reads every machine's own table (``Fsm.int_moves``) and
    numbers each state's signature (its block, and the blocks it reaches by
    each label) as it computes it, in one dict shared by the machines, so ids
    follow first occurrence and no round sorts. It stops when a round finds
    no more blocks than the last, and returns every state id's class per
    machine: two states share a class exactly when some bisimulation relates
    them, within one machine or across two.
    """
    tables = [m.int_moves() for m in machines]
    ids: dict = {}
    classes = [[ids.setdefault(f, len(ids)) for f in flags] for _, _, flags in tables]
    while True:
        count, ids = len(ids), {}
        number, new = ids.setdefault, []
        for cls, (_, rows, _) in zip(classes, tables):
            get = cls.__getitem__
            new.append([
                number((c, tuple([(a, frozenset(map(get, ys))) for a, ys in row.items()])), len(ids))
                for c, row in zip(cls, rows)
            ])
        classes = new
        if len(ids) == count:
            return classes


def largest_bisimulation(m1: Fsm, m2: Fsm) -> frozenset[tuple[str, str]]:
    """All pairs related by some bisimulation between the two machines.

    The union of all bisimulations is itself one, so relating every state
    of ``m1`` to every state of ``m2`` in the same refinement class gives
    the largest.
    """
    cls1, cls2 = _refinement_classes([m1, m2])
    right: dict[int, list[str]] = {}
    for y, c in zip(m2.int_moves()[0], cls2):
        right.setdefault(c, []).append(y)
    return frozenset((x, y) for x, c in zip(m1.int_moves()[0], cls1) for y in right.get(c, ()))


def bisim_check(m1: Fsm, m2: Fsm) -> frozenset[tuple[str, str]] | None:
    """Largest bisimulation, if the machines are interchangeable as members.

    That takes more than related states: the alphabets must be equal, since
    a member blocks a shared label it owns but cannot fire, while a member
    that does not own the label lets everyone else fire it. And each initial
    state must be matched by one of the other machine, so a relation missing
    an initial state on either side does not count: ``quotient_network``'s rule.
    """
    merged = len(quotient_network(Network((("1", m1), ("2", m2))))[0].members) == 1
    return largest_bisimulation(m1, m2) if merged else None


class EquivalenceClasses(NamedTuple):
    """Members grouped by bisimilarity, in member order; a class's first member is kept."""

    classes: tuple[tuple[str, ...], ...]

    @property
    def representatives(self) -> tuple[str, ...]:
        return tuple(cls[0] for cls in self.classes)

    def rep_of(self, name: str) -> str:
        return {member: cls[0] for cls in self.classes for member in cls}[name]


def quotient_network(network: Network) -> tuple[Network, EquivalenceClasses]:
    """Drop members bisimilar to an earlier one, keeping lowest-index reps.

    Members merge only with equal alphabets, so a member's key is its
    alphabet, and an alphabet two or more members share gets one refinement
    over one member per equal table (``distinct_tables``); a copy takes its
    table's classes. Initial states can only be related to initial states,
    so two such members are interchangeable exactly when their initial
    states fall in the same set of classes, which extends their keys.
    """
    members = network.members
    by_alphabet: dict[frozenset[str], list[int]] = {}
    for i, (_, m) in enumerate(members):
        by_alphabet.setdefault(m.alphabet, []).append(i)
    keys = [(m.alphabet,) for _, m in members]
    for indices in by_alphabet.values():
        # A lone alphabet has nothing to merge with. One refinement over all members took
        # 3.7-6.6x the time on the chain, line and mixed benchmarks, whose alphabets differ.
        if len(indices) > 1:
            numbers, machines = distinct_tables([members[i][1] for i in indices])
            for i, cls in zip(indices, map(_refinement_classes(machines).__getitem__, numbers)):
                flags = members[i][1].int_moves()[2]
                keys[i] += (frozenset([c for c, (_, init) in zip(cls, flags) if init]),)
    grouped: dict[tuple, list[tuple[str, Fsm]]] = {}
    for key, member in zip(keys, members):
        grouped.setdefault(key, []).append(member)
    classes = tuple(tuple(name for name, _ in group) for group in grouped.values())
    return Network(tuple(group[0] for group in grouped.values())), EquivalenceClasses(classes)


class PreservationReport(NamedTuple):
    """Side-by-side evidence that reduction preserves the analysis."""

    classes: EquivalenceClasses
    verdict_full: Verdict
    verdict_reduced: Verdict
    verdicts_agree: bool
    observer_serves_full: bool
    observer_serves_reduced: bool
    sampled_full: bool
    sampled_reduced: bool


def preservation_check(
    network: Network,
    runs: int = 100,
    max_len: int = 10,
    seed: int = 0,
    max_states: int | None = None,
) -> PreservationReport:
    """Confirm on one network that the quotient preserves the verdict.

    Builds both composed machines, compares observability verdicts, and
    validates the reduced network's observer against runs of the full one,
    both exactly (all reachable run pairs) and by seeded random sampling.
    """
    reduced, classes = quotient_network(network)
    full_m = compose_network(network, max_states=max_states)
    red_m = compose_network(reduced, max_states=max_states)
    verdict_full = check_observable(build_observer(full_m, max_states), full_m.critical)
    red_obs = build_observer(red_m, max_states)
    verdict_reduced = check_observable(red_obs, red_m.critical)

    # Merged members share an alphabet, so both compositions do too and the
    # reduced observer is directly comparable against the full machine.
    serves_full = validate_critical_observer(red_obs, full_m)
    serves_reduced = validate_critical_observer(red_obs, red_m)
    import random  # here, so that importing critnet does not import it
    rng = random.Random(seed)
    sampled_full = sampled_runs_agree(red_obs, full_m, rng, runs, max_len)
    sampled_reduced = sampled_runs_agree(red_obs, red_m, rng, runs, max_len)
    return PreservationReport(
        classes=classes,
        verdict_full=verdict_full,
        verdict_reduced=verdict_reduced,
        verdicts_agree=verdict_full.observable == verdict_reduced.observable,
        observer_serves_full=serves_full,
        observer_serves_reduced=serves_reduced,
        sampled_full=sampled_full,
        sampled_reduced=sampled_reduced,
    )
