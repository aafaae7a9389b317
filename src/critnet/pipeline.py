"""End-to-end decision procedures with comparable cost accounting.

Two routes decide the same question. The baseline materializes every local
observer and their full composition, then scans for a flagged estimate that
escapes the critical set. The reduced route first drops members bisimilar to
an earlier one, then runs the on-the-fly exploration, which stores only
per-member pieces and stops at the first straddling aggregate.

Stored work is measured uniformly. A state's size is its estimate's number
of plant states; an aggregate, a composed bank's tuple of estimates, sums
its parts. A stored transition costs the sizes of its source and target
plus one for the label, and every stored state carries one unit for its
output bit. Time counts stored transitions. Candidates rejected or
abandoned before storage cost nothing, so a first-step straddle yields a
time ledger of zero. Each observer's sums run in C, not per state.
"""

from __future__ import annotations

from itertools import chain
from operator import mul
from typing import NamedTuple

from .compose import Network
from .equivalence import EquivalenceClasses, quotient_network
from .observer import (
    ObserverFsm,
    Verdict,
    build_decentralized,
    check_observable,
    compose_decentralized,
)
from .onthefly import OnTheFlyOutcome, run_onthefly

DEFAULT_STATE_BUDGET = 1_000_000


class CostLedger(NamedTuple):
    """Stored-data units (space) and stored-transition count (time)."""

    space: int
    time: int


class PipelineReport(NamedTuple):
    """Verdict plus the artifacts and costs a pipeline run produced."""

    algorithm: str
    verdict: Verdict
    locals: tuple[tuple[str, ObserverFsm], ...] | None
    classes: EquivalenceClasses | None
    ledger: CostLedger
    ledger_baseline: CostLedger | None = None


def ledger_for_observers(observers: list[ObserverFsm]) -> CostLedger:
    space = time = 0
    for obs in observers:
        size = [sum(map(len, z)) if z.__class__ is tuple else len(z) for z in obs.states]
        degree = list(map(len, obs.rows))
        time += (moves := sum(degree))
        targets = map(size.__getitem__, chain.from_iterable(map(dict.values, obs.rows)))
        space += sum(map(mul, degree, size)) + moves + len(size) + sum(targets)
    return CostLedger(space=space, time=time)


def ledger_for_outcome(outcome: OnTheFlyOutcome) -> CostLedger:
    """Cost of what the on-the-fly run actually stored.

    On the observable outcome that is the finalized projected locals; on an
    abort it is the states and transitions witnessed up to the straddle.
    """
    if outcome.locals is not None:
        return ledger_for_observers([obs for _, obs in outcome.locals])
    moves = [move for member in outcome.witnessed_transitions for move in member]
    space = sum(len(src) + len(dst) + 1 for src, _, dst in moves)
    space += sum(map(len, outcome.witnessed_states))
    return CostLedger(space=space, time=len(moves))


def run_algorithm1(
    network: Network, max_states: int | None = DEFAULT_STATE_BUDGET
) -> PipelineReport:
    """Baseline: build all local observers, compose them, scan the product.

    The ledger charges every stored artifact: each full local observer and,
    for multi-member networks, the composed bank. A one-member bank composes
    to its only local, which ``check_observable`` decides. A bank state
    straddles when its flag is set (some part touches its member's critical
    set) and no part is contained in its member's critical set.
    """
    bank = build_decentralized(network, max_states)
    stored = list(bank.observers)
    if len(stored) == 1:
        verdict = check_observable(stored[0], network.machines[0].critical)
    else:
        composed = compose_decentralized(bank, max_states)
        criticals = [m.critical for m in network.machines]
        for z, flag in zip(composed.states, composed.flags):
            if flag and not any(map(frozenset.issubset, z, criticals)):
                verdict = Verdict(False, z)
                break
        else:
            verdict = Verdict(True)
        stored.append(composed)
    return PipelineReport(
        algorithm="1",
        verdict=verdict,
        locals=bank.locals,
        classes=None,
        ledger=ledger_for_observers(stored),
    )


def run_algorithm3(
    network: Network,
    max_states: int | None = DEFAULT_STATE_BUDGET,
    run_baseline: bool = False,
) -> PipelineReport:
    """Route otf's report on the bisimulation quotient, lifted back.

    The verdict and ledger transfer to the full network unchanged, and each
    original member is assigned the projected local observer of its class
    representative. With ``run_baseline`` the report also carries the
    baseline ledger on the original network for comparison.
    """
    reduced, classes = quotient_network(network)
    report = run_onthefly_report(reduced, max_states)
    locals_ = report.locals
    if locals_ is not None:
        by_rep = dict(locals_)
        rep = {name: cls[0] for cls in classes.classes for name in cls}
        locals_ = tuple((name, by_rep[rep[name]]) for name in network.names)
    baseline = run_algorithm1(network, max_states).ledger if run_baseline else None
    return report._replace(algorithm="3", locals=locals_, classes=classes, ledger_baseline=baseline)


def run_onthefly_report(
    network: Network, max_states: int | None = DEFAULT_STATE_BUDGET
) -> PipelineReport:
    """On-the-fly exploration of the network as given, no reduction."""
    outcome = run_onthefly(network, max_states)
    return PipelineReport(
        algorithm="otf",
        verdict=outcome.verdict,
        locals=outcome.locals,
        classes=None,
        ledger=ledger_for_outcome(outcome),
    )
