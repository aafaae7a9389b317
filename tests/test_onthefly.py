"""Integrated decision/synthesis: straddle test, exploration, projected locals."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from critnet import (
    BudgetExceededError,
    Fsm,
    Network,
    build_decentralized,
    build_observer,
    compose_decentralized,
    compose_network,
    run_onthefly,
    straddle_test,
)
from critnet import compose, onthefly
from critnet.compose import BLOCK_BITS, walk_product
from critnet.observer import EstimateTable, state_sort_key
from genutil import SHARED_POOL, block_members, random_fsm, random_network
from oracles import (
    check_aggregate_observer,
    naive_first_straddle,
    project_observer,
    straddle_by_enumeration,
)


def fz(*names):
    return frozenset(names)


def _network(rng, members, common, **fsm):
    """Random members over shared and private labels; with ``common`` all own "a"."""
    machines = []
    for i in range(members):
        pool = SHARED_POOL[1:] if common else SHARED_POOL
        alphabet = rng.sample(pool, rng.randint(1, 2)) + (["a"] if common else [])
        if rng.random() < 0.4:
            alphabet.append(f"p{i}")
        machines.append((f"M{i + 1}", random_fsm(rng, alphabet=alphabet, **fsm)))
    return Network(tuple(machines))


class TestStraddleTest:
    def test_single_member_cases(self):
        assert not straddle_test((fz("q"),), [fz("q")])
        assert straddle_test((fz("s", "t"),), [fz("t")])
        assert not straddle_test((fz("s"),), [fz("t")])

    def test_fixture_network_cases(self):
        crits = [fz("q"), fz("t")]
        assert not straddle_test((fz("p"), fz("r")), crits)
        assert not straddle_test((fz("q"), fz("s", "t")), crits)
        assert straddle_test((fz("p"), fz("s", "t")), crits)

    def test_containment_through_any_member(self):
        # One fully critical part makes every product tuple critical, no
        # matter how mixed the other parts are.
        crits = [fz("c"), fz("x")]
        assert not straddle_test((fz("c"), fz("x", "y")), crits)

    def test_no_touch_no_straddle(self):
        crits = [fz(), fz()]
        assert not straddle_test((fz("a"), fz("b")), crits)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(501)
        pool = [f"s{i}" for i in range(5)]
        for _ in range(500):
            n = rng.randint(1, 4)
            parts = tuple(
                fz(*rng.sample(pool, rng.randint(1, 4))) for _ in range(n)
            )
            crits = [fz(*rng.sample(pool, rng.randint(0, 4))) for _ in range(n)]
            assert straddle_test(parts, crits) == straddle_by_enumeration(parts, crits)


class TestRunOnTheFly:
    def test_single_observable_member(self, fsm_a):
        out = run_onthefly(Network((("A", fsm_a),)))
        assert out.verdict.observable
        assert out.locals is not None and len(out.locals) == 1
        name, local = out.locals[0]
        assert name == "A"
        assert local == build_observer(fsm_a)
        assert out.aggregates_seen == 2
        assert out.generations == 2

    def test_single_not_observable_member(self, fsm_b):
        out = run_onthefly(Network((("B", fsm_b),)))
        assert not out.verdict.observable
        assert out.verdict.witness == (fz("s", "t"),)
        assert out.locals is None
        # The straddle is found before anything about it is recorded.
        assert out.witnessed_transitions == ((),)
        assert out.witnessed_states == ((fz("r"),),)
        assert out.aggregates_seen == 1

    def test_fixture_network_aborts_on_second_level(self, net_ab):
        out = run_onthefly(net_ab)
        assert not out.verdict.observable
        assert out.verdict.witness == (fz("p"), fz("s", "t"))
        assert out.locals is None
        assert out.witnessed_transitions == (
            ((fz("p"), "a", fz("q")),),
            ((fz("r"), "a", fz("s", "t")),),
        )
        assert out.witnessed_states == (
            (fz("p"), fz("q")),
            (fz("r"), fz("s", "t")),
        )

    def test_deterministic_reruns(self, net_ab):
        first = run_onthefly(net_ab)
        second = run_onthefly(net_ab)
        assert first == second

    def test_generation_callback(self, fsm_a):
        calls = []
        run_onthefly(
            Network((("A", fsm_a),)),
            on_generation=lambda gen, frontier, seen: calls.append((gen, frontier, seen)),
        )
        assert calls == [(0, 1, 1), (1, 1, 2)]

    def test_budget(self, fsm_a):
        with pytest.raises(BudgetExceededError):
            run_onthefly(Network((("A", fsm_a),)), max_states=1)

    def test_initial_aggregate_counts_against_budget(self):
        # Nothing moves, so the initial aggregate is all there is to store.
        net = Network((("A", Fsm(["p"], ["p"], ["a"], [])),))
        assert run_onthefly(net, max_states=1).aggregates_seen == 1
        with pytest.raises(BudgetExceededError, match="^exploration exceeded 0 aggregates$"):
            run_onthefly(net, max_states=0)

    def test_initial_aggregate_exempt_from_test(self):
        # A member whose states are all critical keeps every aggregate on the
        # critical side; the run must start normally and stay observable.
        m1 = Fsm(["x"], ["x"], ["a"], [("x", "a", "x")], critical=["x"])
        m2 = Fsm(["y", "z"], ["y"], ["a"], [("y", "a", "z"), ("y", "a", "y")])
        out = run_onthefly(Network((("C", m1), ("D", m2))))
        assert out.verdict.observable

    def test_locals_match_definitional_projection(self):
        rng = random.Random(502)
        checked = 0
        for _ in range(60):
            net = random_network(rng, max_members=3, max_states=4)
            out = run_onthefly(net, max_states=20_000)
            composed = compose_decentralized(build_decentralized(net), 20_000)
            if not out.verdict.observable:
                continue
            checked += 1
            for i, (name, local) in enumerate(out.locals):
                want = project_observer(composed, i, net.get(name))
                assert local == want
        assert checked >= 10

    def test_verdict_matches_composed_bank_scan(self):
        rng = random.Random(503)
        for _ in range(40):
            net = random_network(rng, max_members=3, max_states=4)
            out = run_onthefly(net, max_states=20_000)
            composed = compose_decentralized(build_decentralized(net), 20_000)
            criticals = [m.critical for m in net.machines]
            want = check_aggregate_observer(composed, criticals)
            assert out.verdict.observable == want.observable

    def test_witnessed_pieces_are_consistent(self):
        # Every witnessed transition stays within the witnessed states and
        # follows the member's own estimate dynamics.
        from critnet import step

        rng = random.Random(504)
        for _ in range(30):
            net = random_network(rng, max_members=3, max_states=4)
            out = run_onthefly(net, max_states=20_000)
            for i, (_, m) in enumerate(net.members):
                states = set(out.witnessed_states[i])
                for src, label, dst in out.witnessed_transitions[i]:
                    assert src in states and dst in states
                    assert step(m, src, label) == dst


class TestWitnessedRecords:
    """What the witnessed fields hold, read from the outcome alone."""

    def test_states_are_the_initial_estimate_then_each_new_target(self):
        # Each member's witnessed states are its initial estimate, then the
        # targets of its witnessed transitions in order, each listed once;
        # on an observable outcome each local's states are exactly those.
        rng = random.Random(3101)
        refuted = everyone = 0
        for _ in range(2000):
            net = random_network(rng, max_members=4, max_states=4)
            out = run_onthefly(net)
            pieces = zip(net.machines, out.witnessed_states, out.witnessed_transitions)
            for m, states, moves in pieces:
                start = build_observer(m).initial
                assert states == tuple(dict.fromkeys((start, *(dst for _, _, dst in moves))))
            if out.locals is None:
                refuted += 1
            else:
                for (_, local), states in zip(out.locals, out.witnessed_states):
                    assert local.states == states
            labels = [m.alphabet for m in net.machines]
            everyone += len(labels) > 1 and bool(frozenset.intersection(*labels))
        assert refuted >= 300 and 2000 - refuted >= 300 and everyone >= 200


class TestAgainstNaiveSearch:
    """Witness and recording order against a generation-sorted naive BFS."""

    def test_witness_and_recorded_order_match_naive_bfs(self):
        rng = random.Random(505)
        refuted = 0
        for _ in range(240):
            net = random_network(rng, max_members=4, max_states=5)
            out = run_onthefly(net)
            witness, recorded = naive_first_straddle(net)[:2]
            assert out.verdict.witness == witness
            assert out.verdict.observable == (witness is None)
            assert [list(states) for states in out.witnessed_states] == recorded
            refuted += witness is not None
        assert refuted >= 30

    def test_outcome_matches_naive_bfs_on_wide_and_shared_networks(self):
        # Small random networks; networks where every member owns "a"; and
        # networks of 5-6 members with 11-12 states each, whose packed
        # aggregates are wider than 64 bits. Members may start in two states.
        rng = random.Random(507)
        seen = Counter()
        for k in range(600):
            if k % 3 == 0:
                net = random_network(rng, max_members=4, max_states=5)
            elif k % 3 == 1:
                net = _network(rng, rng.randint(2, 4), True, max_states=5)
            else:
                common = rng.random() < 0.5
                net = _network(rng, rng.randint(5, 6), common, max_states=12, min_states=11)
            try:
                out = run_onthefly(net, max_states=500)
            except BudgetExceededError:
                seen["over budget"] += 1
                continue
            naive = naive_first_straddle(net)
            assert out.verdict.witness == naive.witness
            assert out.verdict.observable == (naive.witness is None)
            assert [list(states) for states in out.witnessed_states] == naive.states
            assert [list(moves) for moves in out.witnessed_transitions] == naive.moves
            assert out.aggregates_seen == naive.stored
            seen["refuted" if naive.witness else "observable"] += 1
            members = net.machines
            seen["common"] += len(members) > 1 and all("a" in m.alphabet for m in members)
            seen["two initial"] += any(len(m.initial) == 2 for m in members)
            width = 2 * len(members).bit_length() + sum(len(m.states) for m in members)
            seen["over 64 bits"] += width > 64 and naive.stored > 1
        assert seen["over budget"] <= 40
        assert seen["refuted"] + seen["observable"] >= 500
        assert seen["refuted"] >= 100 and seen["observable"] >= 300
        assert seen["common"] >= 250 and seen["two initial"] >= 300
        assert seen["over 64 bits"] >= 50

    def test_outcome_matches_naive_bfs_on_block_networks(self):
        # Five to seven members from ``genutil.block_members``, whose fields
        # are wide enough for runs of labels to step as blocks: each run
        # spans more than one block, "m", which every member owns, sorts
        # between two runs, and a "b" label is blocked at the start and fires
        # later ("late" counts networks where a "b" move is witnessed from a
        # member's later estimate). Two-target moves make estimates of two
        # states.
        rng = random.Random(509)
        seen = Counter()
        for _ in range(300):
            sizes = [rng.randint(3, 4) for _ in range(rng.randint(5, 7))]
            assert sum(sizes) > BLOCK_BITS * 3 // 2
            net = Network([(f"M{i}", m) for i, m in enumerate(block_members(rng, sizes, 2))])
            calls = []
            try:
                out = run_onthefly(net, 500, lambda *call: calls.append(call))
            except BudgetExceededError:
                seen["over budget"] += 1
                continue
            naive = naive_first_straddle(net)
            assert out.verdict.witness == naive.witness
            assert [list(states) for states in out.witnessed_states] == naive.states
            assert [list(moves) for moves in out.witnessed_transitions] == naive.moves
            assert (out.aggregates_seen, calls) == (naive.stored, naive.generations)
            if naive.stored > 1:
                message = f"^exploration exceeded {naive.stored - 1} aggregates$"
                with pytest.raises(BudgetExceededError, match=message):
                    run_onthefly(net, naive.stored - 1)
            seen["refuted" if naive.witness else "observable"] += 1
            pieces = zip(naive.states, naive.moves)
            seen["late"] += any(a[0] == "b" and z != zs[0] for zs, ms in pieces for z, a, _ in ms)
        assert seen["over budget"] <= 80 and seen["refuted"] >= 120 and seen["observable"] >= 60
        assert seen["late"] >= 120

    def test_generations_and_budget_point_match_naive_bfs(self):
        rng = random.Random(508)
        checked = 0
        for _ in range(200):
            net = random_network(rng, max_members=4, max_states=5)
            naive = naive_first_straddle(net)
            calls = []
            run_onthefly(net, naive.stored, lambda *call: calls.append(call))
            assert calls == naive.generations
            if naive.stored < 2:
                continue
            checked += 1
            calls.clear()
            budget = naive.stored - 1
            message = f"^exploration exceeded {budget} aggregates$"
            with pytest.raises(BudgetExceededError, match=message):
                run_onthefly(net, budget, lambda *call: calls.append(call))
            assert calls == [g for g in naive.generations if g[2] < naive.stored]
        assert checked >= 100

    def test_budget_counts_every_stored_aggregate(self):
        rng = random.Random(506)
        checked = 0
        for _ in range(60):
            net = random_network(rng, max_members=3, max_states=4)
            out = run_onthefly(net)
            n = out.aggregates_seen
            if not out.verdict.observable or n < 2:
                continue
            checked += 1
            assert run_onthefly(net, max_states=n).aggregates_seen == n
            with pytest.raises(BudgetExceededError):
                run_onthefly(net, max_states=n - 1)
        assert checked >= 10


class TestCanonicalRanks:
    """Table keys, which the packed fields hold, are ranks in canonical order."""

    def test_ranks_number_every_subset_in_canonical_order(self):
        for n in range(1, 10):
            # "q11" sorts before "q2": sorted names are not numeric order.
            names = [f"q{2 + 9 * i}" for i in range(n)]
            assert n < 2 or sorted(names) != names
            subsets = [frozenset(c) for k in range(1, n + 1) for c in combinations(names, k)]
            ranks = {}
            for z in subsets:
                table = EstimateTable(Fsm(names, z, ["a"], []))
                ranks[z] = table.start
                assert table.estimate(table.start) == z
            assert sorted(ranks.values()) == list(range(2**n - 1))
            assert sorted(subsets, key=ranks.get) == sorted(subsets, key=state_sort_key)

    def test_member_with_ranks_past_two_to_the_thirty_matches_naive_bfs(self):
        # A has 34 states, named so that "s10" < "s2": "a" grows an estimate
        # by the next state, "b" shifts it by three. B counts "a" moves up to
        # b19; reaching b19 is nondeterministic, so with b19 critical the
        # witness is {b18,b19}, after A's estimates have passed 13 states,
        # whose ranks exceed 2**30.
        n = 34
        s = [f"s{i}" for i in range(n)]
        grow = [(s[i], "a", s[j]) for i in range(n) for j in {i, min(i + 1, n - 1)}]
        shift = [(s[i], "b", s[(i + 3) % n]) for i in range(n)]
        a = Fsm(s, ["s0"], ["a", "b"], grow + shift)
        b = [f"b{i}" for i in range(20)]
        count = [(b[i], "a", b[min(i + 1, 19)]) for i in range(20)] + [("b18", "a", "b18")]
        past = 0
        for critical in (["b19"], []):
            net = Network((("A", a), ("B", Fsm(b, ["b0"], ["a"], count, critical))))
            out = run_onthefly(net)
            naive = naive_first_straddle(net)
            assert out.verdict.witness == naive.witness
            assert out.verdict.observable == (not critical)
            assert [list(states) for states in out.witnessed_states] == naive.states
            assert [list(moves) for moves in out.witnessed_transitions] == naive.moves
            assert out.aggregates_seen == naive.stored
            for z in out.witnessed_states[0]:
                past += sum(comb(n, k) for k in range(1, len(z))) > 2**30
        assert past >= 100


class TestOneStepPerKey:
    """A packed walk computes the move of a label only some members own once
    per key of its owners' fields, whether the label steps alone or in a
    block: a block's first fill reads each label's own memo before it calls
    ``_step``, so blocks add no ``_step`` calls, even on tiny products where
    memos rarely hit."""

    def test_each_walk_steps_a_label_once_per_owner_key(self, monkeypatch):
        rng = random.Random(512)
        fills = Counter()
        for module in (compose, onthefly):
            fill = module._fill

            def counted(s, labels, step, *args, fill=fill, module=module):
                fills[module.__name__] += 1
                return fill(s, labels, step, *args)

            monkeypatch.setattr(module, "_fill", counted)
        for k in range(240):
            if k % 3 == 2:  # shaped like the benchmark's `mixed` networks
                net = random_network(rng, max_members=4, max_states=4)
            else:  # wide enough for blocks: in the on-the-fly walk, or in the plant and bank
                sizes = [rng.randint(*((3, 4), (5, 8))[k % 3]) for _ in range(5)]
                net = Network([(f"M{i}", m) for i, m in enumerate(block_members(rng, sizes, 2))])
            members = net.machines
            labels = set().union(*(m.alphabet for m in members))
            shared = {a for a in labels if not all(a in m.alphabet for m in members)}
            walks = (
                (compose, lambda: compose_network(net)),
                (compose, lambda: compose_decentralized(build_decentralized(net))),
                (onthefly, lambda: run_onthefly(net, 2000)),
            )
            for module, walk in walks:
                totals = []
                for bits in (0, BLOCK_BITS):  # with no blocks, then with them
                    monkeypatch.setattr(compose, "BLOCK_BITS", bits)
                    calls = Counter()
                    step = module._step

                    def counted(s, label, fields, *args, step=step, calls=calls):
                        calls[label, s & sum(f[1] for f in fields)] += 1
                        return step(s, label, fields, *args)

                    monkeypatch.setattr(module, "_step", counted)
                    try:
                        done = walk()
                    except BudgetExceededError:
                        done = None
                    finally:
                        monkeypatch.setattr(module, "_step", step)
                    assert all(n == 1 for (label, _), n in calls.items() if label in shared), k
                    totals.append(sum(calls.values()))
                # A walk cut short, at a witness or the budget, may have
                # filled a block past the move it stopped at.
                if done is not None and getattr(done, "locals", ()) is not None:
                    assert totals[0] == totals[1], k
        assert fills["critnet.compose"] >= 1000 and fills["critnet.onthefly"] >= 1000


class TestHotPathsKeepPlainLocals:
    """No local of the on-the-fly walk, of the product walk or of
    ``EstimateTable.row`` is a closure cell.

    A comprehension or nested function reading a local turns it into a cell,
    and every access then pays an extra indirection, whether that code runs
    or not. (From Python 3.12 comprehensions are inlined and make no cells;
    generator expressions and nested functions still do.)
    """

    def test_onthefly_walk_has_no_cells(self):
        # The on-the-fly walk steps in its own loop, as the product walk
        # does; a set-up or naming expression that reads ``width`` or the
        # witness would make it a cell.
        assert run_onthefly.__code__.co_cellvars == ()

    def test_product_walk_has_no_cells(self):
        # The product walk steps in its own loop, so its own locals are the
        # ones every move reads; a set-up or decode comprehension that reads
        # one of them would make it a cell.
        assert walk_product.__code__.co_cellvars == ()

    def test_row_has_no_cells(self):
        assert EstimateTable.row.__code__.co_cellvars == ()
