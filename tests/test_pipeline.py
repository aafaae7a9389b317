"""Decision pipelines and their cost ledgers."""

from __future__ import annotations

import random

import pytest

from critnet import (
    BudgetExceededError,
    CostLedger,
    Network,
    ObserverFsm,
    build_decentralized,
    build_observer,
    check_observable,
    compose_decentralized,
    ledger_for_observers,
    run_algorithm1,
    run_algorithm3,
    run_onthefly_report,
)
from conftest import make_fsm_a
from genutil import random_fsm, random_network, renamed_copy, with_duplicates
from oracles import check_aggregate_observer


def fz(*names):
    return frozenset(names)


class TestLedgerBaseline:
    def test_single_member_fixture(self, fsm_a):
        # One local observer with two singleton-estimate transitions and two
        # stored output bits; composing a one-member bank stores nothing new.
        report = run_algorithm1(Network((("A", fsm_a),)))
        assert report.verdict.observable
        assert report.ledger == CostLedger(space=8, time=2)
        assert report.algorithm == "1"
        assert report.classes is None

    def test_fixture_network(self, net_ab):
        report = run_algorithm1(net_ab)
        assert not report.verdict.observable
        assert report.verdict.witness == (fz("p"), fz("s", "t"))
        # Locals store 6+2 and 4+2 units, the composed bank 13+3.
        assert report.ledger == CostLedger(space=30, time=5)

    def test_locals_in_report(self, net_ab, fsm_a, fsm_b):
        report = run_algorithm1(net_ab)
        assert report.locals is not None
        by_name = dict(report.locals)
        assert by_name["A"] == build_observer(fsm_a)
        assert by_name["B"] == build_observer(fsm_b)

    def test_budget_propagates(self, net_ab):
        with pytest.raises(BudgetExceededError):
            run_algorithm1(net_ab, max_states=1)


class TestOnTheFlyReport:
    def test_fixture_network(self, net_ab):
        report = run_onthefly_report(net_ab)
        assert report.algorithm == "otf"
        assert not report.verdict.observable
        # One witnessed transition per member plus four stored estimates.
        assert report.ledger == CostLedger(space=11, time=2)
        assert report.classes is None
        assert report.locals is None

    def test_straddle_at_first_step_costs_no_time(self, fsm_b):
        report = run_onthefly_report(Network((("B", fsm_b),)))
        assert not report.verdict.observable
        assert report.ledger.time == 0
        assert report.ledger.space == 1

    def test_observable_single_member(self, fsm_a):
        report = run_onthefly_report(Network((("A", fsm_a),)))
        assert report.verdict.observable
        assert report.ledger == CostLedger(space=8, time=2)


class TestReducedPipeline:
    def test_duplicates_are_dropped_before_exploring(self, fsm_a):
        net = Network((("A", fsm_a), ("Acopy", renamed_copy(fsm_a, "c_"))))
        report = run_algorithm3(net, run_baseline=True)
        assert report.algorithm == "3"
        assert report.verdict.observable
        assert report.classes.classes == (("A", "Acopy"),)
        # Only the representative's local is synthesized and charged.
        assert report.ledger == CostLedger(space=8, time=2)
        # The baseline pays for two locals plus their composition.
        assert report.ledger_baseline == CostLedger(space=28, time=6)

    def test_lifted_locals_cover_all_members(self, fsm_a):
        net = Network((("A", fsm_a), ("Acopy", renamed_copy(fsm_a, "c_"))))
        report = run_algorithm3(net)
        assert report.ledger_baseline is None
        by_name = dict(report.locals)
        assert set(by_name) == {"A", "Acopy"}
        assert by_name["A"] == build_observer(fsm_a)
        # The duplicate reuses its representative's observer as-is.
        assert by_name["Acopy"] is by_name["A"]

    def test_not_observable_network(self, net_ab):
        report = run_algorithm3(net_ab, run_baseline=True)
        assert not report.verdict.observable
        assert report.locals is None
        assert report.ledger == CostLedger(space=11, time=2)
        assert report.ledger_baseline == CostLedger(space=30, time=5)

    def test_verdicts_agree_across_algorithms(self):
        rng = random.Random(601)
        for _ in range(30):
            net = random_network(rng, max_members=3, max_states=4)
            v1 = run_algorithm1(net, 50_000).verdict.observable
            votf = run_onthefly_report(net, 50_000).verdict.observable
            v3 = run_algorithm3(net, 50_000).verdict.observable
            assert v1 == votf == v3

    def test_reduced_never_costs_more_with_duplicates(self):
        rng = random.Random(602)
        for _ in range(20):
            base = random_network(rng, max_members=2, max_states=3)
            net = with_duplicates(rng, base, copies=rng.randint(1, 2))
            report = run_algorithm3(net, 50_000, run_baseline=True)
            assert report.ledger.space <= report.ledger_baseline.space
            assert report.ledger.time <= report.ledger_baseline.time


def _rebuilt(obs: ObserverFsm, names: list) -> ObserverFsm:
    """``obs`` through the public constructor, the state at position p named
    ``names[p]`` and the states listed backwards."""
    trans = {(names[p], x): names[q] for p, row in enumerate(obs.rows) for x, q in row.items()}
    outputs = dict(zip(names, obs.flags))
    return ObserverFsm(names[::-1], names[obs.start], obs.alphabet, trans, outputs)


class TestAggregateScan:
    def test_single_member_agrees_with_direct_check(self):
        rng = random.Random(603)
        for _ in range(40):
            m = random_fsm(rng, max_states=5)
            obs = build_observer(m)
            via_scan = check_aggregate_observer(obs, [m.critical])
            direct = check_observable(obs, m.critical)
            assert via_scan.observable == direct.observable
            assert via_scan.witness == direct.witness

    def test_baseline_agrees_with_the_scan_and_ledger_over_estimates(self):
        # run_algorithm1 scans by the bank's flags and each local's
        # containment per estimate; the straddle scan over the composed
        # bank's estimates is the reference.
        rng = random.Random(605)
        refuted = 0
        for _ in range(80):
            net = random_network(rng, max_members=3, max_states=4)
            bank = build_decentralized(net)
            composed = compose_decentralized(bank)
            report = run_algorithm1(net)
            want = check_aggregate_observer(composed, [m.critical for m in net.machines])
            assert report.verdict == want
            stored = [*bank.observers, composed] if len(net.members) > 1 else bank.observers
            assert report.ledger == ledger_for_observers(list(stored))
            refuted += not want.observable
        assert refuted >= 10

    def test_one_member_bank_is_its_local(self, monkeypatch):
        # A one-member network is decided on its only local; nothing is composed.
        def refuse(*args):
            raise AssertionError("a one-member bank was composed")

        monkeypatch.setattr("critnet.pipeline.compose_decentralized", refuse)
        rng = random.Random(606)
        refuted = 0
        for _ in range(60):
            m = random_fsm(rng, max_states=5)
            obs = build_observer(m)
            report = run_algorithm1(Network((("A", m),)))
            assert report.verdict == check_observable(obs, m.critical)
            assert report.ledger == ledger_for_observers([obs])
            assert report.locals == (("A", obs),)
            refuted += not report.verdict.observable
        assert refuted >= 5

    def test_ledger_for_observers_is_additive(self, fsm_a):
        obs = build_observer(fsm_a)
        one = ledger_for_observers([obs])
        two = ledger_for_observers([obs, obs])
        assert two.space == 2 * one.space
        assert two.time == 2 * one.time

    def test_ledger_matches_literal_sum_over_transitions(self):
        # The ledger's definition, restated over the sorted transition list:
        # per stored transition the sizes of both estimate tuples plus one,
        # plus one unit per stored state.
        def size(z):
            return sum(len(part) for part in (z if isinstance(z, tuple) else (z,)))

        rng = random.Random(604)
        for _ in range(40):
            net = random_network(rng, max_members=3, max_states=4)
            bank = build_decentralized(net)
            for obs in (*bank.observers, compose_decentralized(bank)):
                triples = obs.transitions()
                space = sum(size(src) + size(dst) + 1 for src, _, dst in triples)
                want = CostLedger(space=space + len(obs.states), time=len(triples))
                assert ledger_for_observers([obs]) == want

    def test_ledger_matches_literal_sum_on_constructed_observers(self):
        # The same sum, charged for a whole list at once, over seeded locals
        # and banks (copies included), over each of them rebuilt by the public
        # constructor with its states listed backwards, so that the initial
        # state sits away from position 0, and over each bank with every
        # other state renamed to an estimate, so that its states mix
        # frozensets and tuples, listed backwards too.
        def size(z):
            return sum(map(len, z)) if isinstance(z, tuple) else len(z)

        def literal(observers):
            space = time = 0
            for obs in observers:
                states = obs.states
                for src, row in zip(states, obs.rows):
                    for dst in row.values():
                        space, time = space + size(src) + size(states[dst]) + 1, time + 1
                space += len(states)
            return CostLedger(space=space, time=time)

        rng = random.Random(607)
        away = mixed = 0
        for _ in range(80):
            copies = rng.choice([0, 2])
            net = with_duplicates(rng, random_network(rng, max_members=3, max_states=4), copies)
            bank = build_decentralized(net)
            stored = [*bank.observers, compose_decentralized(bank)]
            backwards = [_rebuilt(obs, obs.states) for obs in stored]
            names = [
                z if p % 2 else frozenset(f"s{p}.{k}" for k in range(p % 3 + 1))
                for p, z in enumerate(stored[-1].states)
            ]
            blend = _rebuilt(stored[-1], names)
            for observers in (stored, backwards, [blend]):
                assert ledger_for_observers(observers) == literal(observers)
            away += any(obs.start for obs in backwards)
            mixed += len({z.__class__ for z in blend.states}) == 2
        assert away >= 45 and mixed >= 40
