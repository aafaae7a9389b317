"""Observer construction, observability verdicts, decentralized banks."""

from __future__ import annotations

import random

import pytest

import critnet.observer
from critnet import (
    BudgetExceededError,
    DecentralizedObserver,
    FormatError,
    Fsm,
    InvalidInputError,
    MalformedFsmError,
    Network,
    ObserverFsm,
    build_decentralized,
    build_observer,
    check_observable,
    compose_decentralized,
    compose_network,
    export_dot,
    iso_check,
    run_onthefly,
    sampled_runs_agree,
    serialize_observer,
    start_session,
    state_text,
    validate_critical_observer,
)
from conftest import make_converse_pair
from critnet.observer import distinct_tables
from genutil import (
    equal_rows_fsm,
    observable_fsm,
    random_fsm,
    random_network,
    renamed,
    renamed_copy,
    with_duplicates,
)
from oracles import (
    estimates_by_word,
    naive_bank_product,
    naive_monitor,
    naive_sampled_runs,
    naive_subset_order,
    network_traces,
    observer_run,
    semantic_observable,
)


class TestStateText:
    def test_estimate_text(self):
        assert state_text(frozenset({"q", "p"})) == "{p,q}"
        assert state_text(frozenset({"x"})) == "{x}"

    def test_aggregate_text(self):
        agg = (frozenset({"p"}), frozenset({"s", "t"}))
        assert state_text(agg) == "({p},{s,t})"


class TestBuildObserver:
    def test_fixture_a(self, fsm_a):
        obs = build_observer(fsm_a)
        zp, zq = frozenset({"p"}), frozenset({"q"})
        assert obs.states == (zp, zq)
        assert obs.initial == zp
        assert obs.flags == [0, 1]
        # zp moves to zq on "a" only; zq moves back on "b".
        assert obs.rows == [{"a": 1}, {"b": 0}]

    def test_fixture_b(self, fsm_b):
        obs = build_observer(fsm_b)
        zr, zst = frozenset({"r"}), frozenset({"s", "t"})
        assert obs.states == (zr, zst)
        assert obs.flags == [0, 1]
        assert "a" not in obs.rows[1]

    def test_observer_is_deterministic_by_construction(self):
        rng = random.Random(301)
        for _ in range(30):
            m = random_fsm(rng, max_states=5)
            obs = build_observer(m)
            assert len(obs.rows) == len(obs.flags) == len(obs.states)
            for z, row in zip(obs.states, obs.rows):
                assert isinstance(z, frozenset) and z
                # One next position per label: deterministic.
                assert set(row) <= obs.alphabet
                assert all(0 <= j < len(obs.states) for j in row.values())

    def test_estimates_match_word_enumeration(self):
        rng = random.Random(302)
        for _ in range(25):
            m = random_fsm(rng, max_states=4)
            obs = build_observer(m)
            for word, est in estimates_by_word(m, max_len=4).items():
                run = observer_run(obs, word)
                z, flag = run[-1]
                assert z == est
                assert flag == (1 if est & m.critical else 0)

    def test_budget_enforced(self, fsm_a):
        with pytest.raises(BudgetExceededError):
            build_observer(fsm_a, max_states=1)

    def test_states_in_naive_discovery_order(self):
        rng = random.Random(303)
        for _ in range(200):
            m = random_fsm(rng, max_states=6)
            assert list(build_observer(m).states) == naive_subset_order(m)

    def test_budget_threshold_is_exact(self):
        rng = random.Random(304)
        for _ in range(100):
            m = random_fsm(rng, max_states=6)
            n = len(build_observer(m).states)
            assert len(build_observer(m, max_states=n).states) == n
            with pytest.raises(BudgetExceededError) as caught:
                build_observer(m, max_states=n - 1)
            assert str(caught.value) == f"observer exceeded {n - 1} states"

    def test_critical_initial_flagged_immediately(self):
        m = Fsm(["x"], ["x"], ["a"], [("x", "a", "x")], critical=["x"])
        obs = build_observer(m)
        assert obs.flags[obs.start] == 1


class TestObserverFsmValidation:
    def _z(self, *names):
        return frozenset(names)

    def test_duplicate_states_rejected(self):
        z = self._z("x")
        with pytest.raises(MalformedFsmError, match="duplicate"):
            ObserverFsm([z, z], z, ["a"], {}, {z: 0})

    def test_missing_initial_rejected(self):
        with pytest.raises(MalformedFsmError, match="initial"):
            ObserverFsm([self._z("x")], self._z("y"), ["a"], {}, {self._z("x"): 0})

    def test_empty_estimate_rejected(self):
        # Alone or inside an aggregate.
        for z in (frozenset(), (self._z("x"), frozenset())):
            with pytest.raises(MalformedFsmError) as caught:
                ObserverFsm([z], z, ["a"], {}, {z: 0})
            assert str(caught.value) == "the empty estimate cannot be an observer state"

    def test_non_estimate_state_named(self):
        # A name, or an aggregate holding one, is no estimate at all.
        for z in ("p", ("p",)):
            with pytest.raises(MalformedFsmError) as caught:
                ObserverFsm([z], z, ["a"], {}, {z: 1})
            assert str(caught.value) == "'p' is not an estimate"

    def test_estimate_members_must_be_state_names(self):
        # Alone or inside an aggregate.
        for bad in (1, ""):
            z = frozenset({bad})
            for state in (z, (self._z("x"), z)):
                with pytest.raises(MalformedFsmError) as caught:
                    ObserverFsm([state], state, ["a"], {}, {state: 0})
                assert str(caught.value) == f"estimate member {bad!r} is not a state name"

    def test_labels_follow_the_machine_rule(self):
        z = self._z("p")
        for label, message in (
            (1, "label 1 is not a string"),
            ("", "empty string is not a valid label"),
            ("eps", "label 'eps' is reserved for the empty word"),
        ):
            with pytest.raises(MalformedFsmError) as caught:
                ObserverFsm([z], z, [label], {(z, label): z}, {z: 0})
            assert str(caught.value) == message

    def test_outputs_for_unknown_states_rejected(self):
        z = self._z("x")
        with pytest.raises(MalformedFsmError) as caught:
            ObserverFsm([z], z, ["a"], {}, {z: 0, self._z("y"): 1})
        assert str(caught.value) == "outputs given for unknown states"

    def test_transition_endpoint_must_be_a_state(self):
        z = self._z("x")
        with pytest.raises(MalformedFsmError) as caught:
            ObserverFsm([z], z, ["a"], {(z, "a"): self._z("y")}, {z: 0})
        assert str(caught.value) == "transition endpoint is not an observer state"

    def test_non_binary_output_rejected(self):
        z = self._z("x")
        with pytest.raises(MalformedFsmError, match="0/1"):
            ObserverFsm([z], z, ["a"], {}, {z: 2})

    def test_unreachable_state_rejected(self):
        z1, z2 = self._z("x"), self._z("y")
        with pytest.raises(MalformedFsmError, match="unreachable"):
            ObserverFsm([z1, z2], z1, ["a"], {}, {z1: 0, z2: 0})

    def test_foreign_transition_label_rejected(self):
        z = self._z("x")
        with pytest.raises(MalformedFsmError, match="label"):
            ObserverFsm([z], z, ["a"], {(z, "b"): z}, {z: 0})

    def test_structural_equality_ignores_order(self):
        z1, z2 = self._z("x"), self._z("y")
        trans = {(z1, "a"): z2, (z2, "a"): z1}
        o1 = ObserverFsm([z1, z2], z1, ["a"], trans, {z1: 0, z2: 1})
        o2 = ObserverFsm([z1, z2], z1, ["a"], dict(reversed(list(trans.items()))), {z2: 1, z1: 0})
        assert o1 == o2 and hash(o1) == hash(o2)

    def test_public_constructor_builds_the_int_table(self):
        z1, z2, z3 = self._z("x"), self._z("y"), self._z("z")
        trans = {(z2, "a"): z1, (z1, "b"): z3, (z3, "a"): z2}
        obs = ObserverFsm([z2, z1, z3], z1, ["a", "b"], trans, {z1: 0, z2: 1, z3: 0})
        assert obs.start == 1 and obs.initial == z1
        assert list(obs.rows) == [{"a": 1}, {"b": 2}, {"a": 0}]
        assert list(obs.flags) == [1, 0, 0]

    def test_estimates_and_aggregates_mixed_order_and_render(self):
        # The constructor takes estimates and tuples of them side by side;
        # canonical order puts estimates first, so nothing compares a tuple
        # with an estimate's key.
        a, b = self._z("a"), (self._z("b"),)
        obs = ObserverFsm([a, b], a, ["x"], {(a, "x"): b}, {a: 0, b: 1})
        assert obs.transitions() == [(a, "x", b)]
        with pytest.raises(FormatError) as caught:
            serialize_observer("M", obs)
        assert str(caught.value) == "only estimate-state observers serialize; composed banks do not"
        dot = export_dot(obs)
        assert '"{a}" -> "({b})" [label="x"];' in dot and '"({b})" [shape=doublecircle];' in dot

    def test_never_equal_to_a_non_observer(self, fsm_a):
        obs = build_observer(fsm_a)
        assert obs.__eq__(fsm_a) is NotImplemented
        assert obs != fsm_a and not obs == obs.states

    def test_repr(self, net_ab, fsm_a):
        assert repr(build_observer(fsm_a)) == "ObserverFsm(states=2, initial={p}, alphabet=['a', 'b'])"
        composed = compose_decentralized(build_decentralized(net_ab))
        assert repr(composed) == "ObserverFsm(states=3, initial=({p},{r}), alphabet=['a', 'b'])"

    def test_hash_key_built_on_first_use(self, fsm_a):
        o1, o2 = build_observer(fsm_a), build_observer(fsm_a)
        assert hash(o1) == hash(o2)
        assert o1 == o2 and o1 != build_observer(make_converse_pair().machines[0])


class TestCheckObservable:
    def test_fixture_a_observable(self, fsm_a):
        v = check_observable(build_observer(fsm_a), fsm_a.critical)
        assert v.observable
        assert v.witness is None
        assert str(v) == "observable"

    def test_fixture_b_not_observable(self, fsm_b):
        v = check_observable(build_observer(fsm_b), fsm_b.critical)
        assert not v.observable
        assert v.witness == frozenset({"s", "t"})
        assert str(v) == "not observable, witness {s,t}"

    def test_witness_is_first_in_discovery_order(self):
        # Both "a" and "b" lead to straddling estimates; discovery explores
        # labels in sorted order so the witness comes from "a".
        m = Fsm(
            ["x", "c1", "n1", "c2", "n2"],
            ["x"],
            ["a", "b"],
            [
                ("x", "a", "c1"),
                ("x", "a", "n1"),
                ("x", "b", "c2"),
                ("x", "b", "n2"),
            ],
            critical=["c1", "c2"],
        )
        v = check_observable(build_observer(m), m.critical)
        assert not v.observable
        assert v.witness == frozenset({"c1", "n1"})

    def test_matches_semantic_walk(self):
        rng = random.Random(303)
        for _ in range(60):
            m = random_fsm(rng, max_states=5)
            got = check_observable(build_observer(m), m.critical)
            want_obs, _ = semantic_observable(m)
            assert got.observable == want_obs

    def test_rejects_aggregate_states(self, net_ab):
        bank = build_decentralized(net_ab)
        composed = compose_decentralized(bank)
        with pytest.raises(InvalidInputError):
            check_observable(composed, frozenset())


class TestObserverRun:
    def test_run_on_fixture_a(self, fsm_a):
        obs = build_observer(fsm_a)
        run = observer_run(obs, ("a", "b", "a"))
        assert run == [
            (frozenset({"p"}), 0),
            (frozenset({"q"}), 1),
            (frozenset({"p"}), 0),
            (frozenset({"q"}), 1),
        ]


class TestDecentralized:
    def test_bank_contents(self, net_ab, fsm_a, fsm_b):
        bank = build_decentralized(net_ab)
        assert bank.names == ("A", "B")
        assert bank.observers[0] == build_observer(fsm_a)
        assert bank.observers[1] == build_observer(fsm_b)

    def test_empty_bank_rejected(self):
        for locals_ in ((), [], None):
            with pytest.raises(InvalidInputError) as caught:
                DecentralizedObserver(locals_)
            assert str(caught.value) == "a decentralized observer needs at least one local"

    def test_duplicate_local_names_rejected(self, fsm_a):
        obs = build_observer(fsm_a)
        with pytest.raises(InvalidInputError) as caught:
            DecentralizedObserver((("A", obs), ("B", obs), ("A", obs)))
        assert str(caught.value) == "duplicate local names in ['A', 'B', 'A']"

    def test_local_names_must_be_nonempty_strings(self, fsm_a):
        obs = build_observer(fsm_a)
        for name, message in (("", "local names must be nonempty"), (1, "local name 1 is not a string")):
            with pytest.raises(InvalidInputError) as caught:
                DecentralizedObserver((("A", obs), (name, obs)))
            assert str(caught.value) == message

    def test_locals_must_be_observers(self, fsm_a):
        with pytest.raises(InvalidInputError) as caught:
            DecentralizedObserver((("A", build_observer(fsm_a)), ("B", "x")))
        assert str(caught.value) == "local 'B' is 'x', not an ObserverFsm"

    def test_list_built_bank_keeps_its_own_tuple(self, fsm_a):
        obs = build_observer(fsm_a)
        pairs = [("A", obs)]
        bank = DecentralizedObserver(pairs)
        twin = DecentralizedObserver((("A", obs),))
        assert bank == twin and hash(bank) == hash(twin)
        pairs.append(("A", obs))
        assert bank.locals == (("A", obs),)

    def test_locals_cannot_be_assigned_or_deleted(self, net_ab, fsm_b):
        bank = build_decentralized(net_ab)
        twin = DecentralizedObserver(bank.locals)
        for change in (
            lambda: setattr(bank, "locals", (("B", build_observer(fsm_b)),)),
            lambda: delattr(bank, "locals"),
        ):
            with pytest.raises(AttributeError):
                change()
            assert bank == twin and hash(bank) == hash(twin)
        assert bank.names == ("A", "B")

    def test_single_local_composes_to_itself(self, fsm_a):
        bank = build_decentralized(Network((("A", fsm_a),)))
        assert compose_decentralized(bank) is bank.locals[0][1]

    def test_composed_bank_on_fixture_network(self, net_ab):
        composed = compose_decentralized(build_decentralized(net_ab))
        z0 = (frozenset({"p"}), frozenset({"r"}))
        z1 = (frozenset({"q"}), frozenset({"s", "t"}))
        z2 = (frozenset({"p"}), frozenset({"s", "t"}))
        assert composed.states == (z0, z1, z2)
        assert composed.flags == [0, 1, 1]
        assert composed.rows[0]["a"] == 1
        assert composed.rows[1]["b"] == 2
        # B cannot follow another "a", so the shared label blocks.
        assert "a" not in composed.rows[2]

    def test_composed_bank_isomorphic_to_monolithic_observer(self, net_ab):
        composed = compose_decentralized(build_decentralized(net_ab))
        mono = build_observer(compose_network(net_ab))
        witness = iso_check(composed, mono)
        assert witness is not None

    def test_budget_threshold_is_exact(self):
        # The last 60 networks carry renamed copies, whose locals share a field.
        rng = random.Random(912)
        checked = 0
        for copies in [0] * 60 + [2] * 60:
            net = with_duplicates(rng, random_network(rng, max_members=3, max_states=4), copies)
            if len(net.members) < 2:
                continue
            checked += 1
            bank = build_decentralized(net)
            n = len(compose_decentralized(bank).states)
            assert len(compose_decentralized(bank, max_states=n).states) == n
            with pytest.raises(
                BudgetExceededError, match=f"^composed bank exceeded {n - 1} states$"
            ):
                compose_decentralized(bank, max_states=n - 1)
        assert checked >= 80

    def test_initial_aggregate_over_budget(self, net_ab):
        bank = build_decentralized(net_ab)
        with pytest.raises(BudgetExceededError, match="^composed bank exceeded 0 states$"):
            compose_decentralized(bank, max_states=0)

    def test_one_local_is_held_to_the_budget(self, fsm_a):
        bank = build_decentralized(Network((("A", fsm_a),)))
        only = bank.locals[0][1]
        assert len(only.states) == 2
        assert compose_decentralized(bank, max_states=2) is only
        for budget in (0, 1):
            with pytest.raises(
                BudgetExceededError, match=f"^composed bank exceeded {budget} states$"
            ):
                compose_decentralized(bank, max_states=budget)

    def test_converse_pair_behaves_as_designed(self):
        net = make_converse_pair()
        m1 = net.get("P")
        assert not check_observable(build_observer(m1), m1.critical).observable
        c = compose_network(net)
        assert check_observable(build_observer(c), c.critical).observable


def _same_observer(got: ObserverFsm, want: ObserverFsm) -> bool:
    """Equal, and equal position by position: states, rows, flags and start."""
    return (
        got == want
        and got.states == want.states
        and got.start == want.start
        and list(got.rows) == list(want.rows)
        and list(got.flags) == list(want.flags)
    )


class TestEqualTables:
    """Members with equal tables share one subset construction, and only they do."""

    def _variants(self) -> list[Fsm]:
        base = equal_rows_fsm()
        return [
            base,
            renamed_copy(base, "c_"),
            equal_rows_fsm(critical=("q",)),
            equal_rows_fsm(initial=("q",)),
            equal_rows_fsm(alphabet=("a", "b", "z")),
            # Ids follow sorted names, so reversed names reverse the ids.
            renamed(base, {"p": "z", "q": "y", "r": "x"}),
            renamed_copy(base, "d_"),
        ]

    def test_rows_alone_do_not_make_a_group(self):
        variants = self._variants()
        rows = variants[0].int_moves()[1]
        assert all(m.int_moves()[1] == rows for m in variants[:5])
        numbers, distinct = distinct_tables(variants)
        assert numbers == (0, 0, 1, 2, 3, 4, 0)
        assert len(distinct) == 5
        assert all(a is b for a, b in zip(distinct, [variants[i] for i in (0, 2, 3, 4, 5)]))

    def test_one_subset_construction_per_group(self, monkeypatch):
        variants = self._variants()
        net = Network(tuple((f"M{i}", m) for i, m in enumerate(variants)))
        built, real = [], build_observer
        monkeypatch.setattr(
            critnet.observer, "build_observer", lambda m, n=None: built.append(m) or real(m, n)
        )
        bank = build_decentralized(net)
        assert len(built) == 5
        assert all(a is b for a, b in zip(built, [variants[i] for i in (0, 2, 3, 4, 5)]))
        for (name, m), (local, obs) in zip(net.members, bank.locals):
            assert local == name
            assert _same_observer(obs, real(m))
        # A copy names the shared estimates by its own states.
        assert bank.observers[1].states[0] == frozenset({"c_p"})
        assert bank.observers[1].rows is bank.observers[0].rows

    def test_banks_with_copies_equal_per_member_observers(self):
        rng = random.Random(2301)
        shared = 0
        for trial in range(150):
            base = random_network(rng, max_members=3, max_states=5)
            net = with_duplicates(rng, base, copies=rng.randint(1, 3), split=trial % 3 == 2)
            bank = build_decentralized(net)
            assert bank.names == net.names
            for m, obs in zip(net.machines, bank.observers):
                assert _same_observer(obs, build_observer(m))
            shared += len(distinct_tables(net.machines)[1]) < len(net.members)
        assert shared >= 80


class TestBankBudget:
    """A bank over budget raises where each member building its own observer would."""

    def test_over_budget_copy_raises_from_the_same_member(self, monkeypatch):
        # The raising member is the first one, in member order, whose own
        # observer is over the budget, whether or not a later copy shares it.
        rng = random.Random(2303)
        real = build_observer
        copied = 0
        for _ in range(80):
            net = with_duplicates(rng, random_network(rng, max_members=3, max_states=5), 2)
            sizes = [len(real(m).states) for m in net.machines]
            numbers = distinct_tables(net.machines)[0]
            assert build_decentralized(net, max_states=max(sizes)) == build_decentralized(net)
            for budget in range(min(sizes), max(sizes)):
                first = next(i for i, size in enumerate(sizes) if size > budget)
                copied += numbers.count(numbers[first]) > 1
                tried = []
                monkeypatch.setattr(
                    critnet.observer,
                    "build_observer",
                    lambda m, n=None: tried.append(m) or real(m, n),
                )
                with pytest.raises(BudgetExceededError) as caught:
                    build_decentralized(net, max_states=budget)
                monkeypatch.undo()
                assert str(caught.value) == f"observer exceeded {budget} states"
                assert tried[-1] is net.machines[first]
        assert copied >= 20

    def test_copy_after_its_over_budget_original(self, fsm_a, monkeypatch):
        # A's observer has 2 states and B's 3; over a budget of 2, B raises
        # before its copy is reached, as it does when each member builds its own.
        base = equal_rows_fsm()
        net = Network((("A", fsm_a), ("B", base), ("Bc", renamed_copy(base, "c_"))))
        tried, real = [], build_observer
        monkeypatch.setattr(
            critnet.observer, "build_observer", lambda m, n=None: tried.append(m) or real(m, n)
        )
        with pytest.raises(BudgetExceededError) as caught:
            build_decentralized(net, max_states=2)
        assert str(caught.value) == "observer exceeded 2 states"
        assert tried == [fsm_a, base] and tried[-1] is base


def _rebuilt(obs: ObserverFsm) -> ObserverFsm:
    """The same observer through the public, validating constructor."""
    trans = {(src, label): dst for src, label, dst in obs.transitions()}
    outputs = dict(zip(obs.states, obs.flags))
    return ObserverFsm(obs.states, obs.initial, obs.alphabet, trans, outputs)


class TestTrustedConstruction:
    """Observers the package builds skip validation; the checks must still hold."""

    def test_library_observers_pass_the_public_constructor(self):
        rng = random.Random(1207)
        kinds = {"local": 0, "bank": 0, "projected": 0}
        for _ in range(80):
            net = random_network(rng, max_members=3, max_states=4)
            bank = build_decentralized(net)
            built = [("local", obs) for obs in bank.observers]
            if len(net.members) > 1:
                built.append(("bank", compose_decentralized(bank)))
            outcome = run_onthefly(net)
            if outcome.locals is not None:
                built.extend(("projected", obs) for _, obs in outcome.locals)
            for kind, obs in built:
                again = _rebuilt(obs)
                assert again == obs and again.states == obs.states
                assert again.start == obs.start == 0
                assert list(again.rows) == list(obs.rows)
                assert list(again.flags) == list(obs.flags)
                kinds[kind] += 1
        assert min(kinds.values()) >= 40

    def test_composed_bank_matches_naive_product(self):
        rng = random.Random(1208)
        checked = 0
        for copies in [0] * 80 + [2] * 80:
            net = with_duplicates(rng, random_network(rng, max_members=4, max_states=4), copies)
            if len(net.members) < 2:
                continue
            bank = build_decentralized(net)
            composed, naive = compose_decentralized(bank), naive_bank_product(bank)
            assert composed.states == naive.states
            assert composed.initial == naive.initial
            assert composed.transitions() == naive.transitions()
            assert list(composed.flags) == list(naive.flags)
            checked += 1
        assert checked >= 100


    def test_initial_state_away_from_position_zero(self):
        # The public constructor keeps the caller's state order, so the
        # initial state can sit anywhere; banks and sessions must start there.
        rng = random.Random(1209)
        checked = 0
        for copies in [0] * 60 + [2] * 60:
            net = with_duplicates(rng, random_network(rng, max_members=3, max_states=4), copies)
            if len(net.members) < 2:
                continue
            bank = DecentralizedObserver(
                tuple((name, _reversed(obs)) for name, obs in build_decentralized(net).locals)
            )
            if all(obs.start == 0 for obs in bank.observers):
                continue
            composed, naive = compose_decentralized(bank), naive_bank_product(bank)
            assert composed.states == naive.states
            assert composed.initial == naive.initial
            assert composed.transitions() == naive.transitions()
            assert list(composed.flags) == list(naive.flags)
            for word in network_traces(net, max_len=5, cap=40):
                records = start_session(bank).replay(word)
                want, _, problem = naive_monitor(list(bank.locals), word)
                assert problem is None
                assert [(r.index, r.label, r.moved, r.outputs, r.flag) for r in records] == want
            checked += 1
        assert checked >= 60


def _reversed(obs: ObserverFsm) -> ObserverFsm:
    """The same observer through the public constructor, states listed backwards."""
    trans = {(src, label): dst for src, label, dst in obs.transitions()}
    outputs = dict(zip(obs.states, obs.flags))
    return ObserverFsm(obs.states[::-1], obs.initial, obs.alphabet, trans, outputs)


class TestValidation:
    def test_exact_validator_on_fixtures(self, fsm_a, fsm_b):
        assert validate_critical_observer(build_observer(fsm_a), fsm_a)
        # B is not observable, so its own observer misclassifies some run.
        assert not validate_critical_observer(build_observer(fsm_b), fsm_b)

    def test_exact_validator_alphabet_gate(self, fsm_a, fsm_b):
        with pytest.raises(InvalidInputError):
            validate_critical_observer(build_observer(fsm_a), fsm_b)

    def test_sampled_validator_agrees_on_fixtures(self, fsm_a, fsm_b):
        rng = random.Random(304)
        assert sampled_runs_agree(build_observer(fsm_a), fsm_a, rng)
        assert not sampled_runs_agree(build_observer(fsm_b), fsm_b, rng, runs=200)

    def test_wrong_initial_flag_fails_both_checks(self):
        # The observer flags its start, but the plant starts non-critical
        # and never moves, so the start is the only pair to check.
        m = Fsm(["p"], ["p"], ["a"], [])
        z = frozenset({"p"})
        obs = ObserverFsm([z], z, ["a"], {}, {z: 1})
        assert not validate_critical_observer(obs, m)
        assert not sampled_runs_agree(obs, m, random.Random(0), runs=1, max_len=1)

    def test_sampled_validator_alphabet_gate(self, fsm_a, fsm_b):
        with pytest.raises(InvalidInputError) as caught:
            sampled_runs_agree(build_observer(fsm_a), fsm_b, random.Random(0))
        assert str(caught.value) == "observer and machine must share an alphabet"

    def test_observer_that_cannot_follow_fails_both_checks(self):
        # The plant moves on "a"; the observer, with the right flag, has no move.
        m = Fsm(["p"], ["p"], ["a"], [("p", "a", "p")])
        z = frozenset({"p"})
        obs = ObserverFsm([z], z, ["a"], {}, {z: 0})
        assert not validate_critical_observer(obs, m)
        assert not sampled_runs_agree(obs, m, random.Random(0), runs=1, max_len=1)
        # With no move taken the sample sees nothing wrong.
        assert sampled_runs_agree(obs, m, random.Random(0), runs=5, max_len=0)

    def test_sampled_validator_draws_like_the_reference(self):
        # Same answer and same draws as a walk by name, on observers of the
        # plant itself and of other plants over the same alphabet.
        rng = random.Random(308)
        answers = set()
        for i in range(300):
            alphabet = rng.sample(["a", "b", "c"], rng.randint(1, 3))
            m = random_fsm(rng, max_states=5, alphabet=alphabet)
            source = m if i % 2 else random_fsm(rng, max_states=5, alphabet=alphabet)
            obs = build_observer(source)
            for seed in (i, i + 1000):
                runs, max_len = rng.randint(0, 30), rng.randint(0, 12)
                mine, ref = random.Random(seed), random.Random(seed)
                answer = sampled_runs_agree(obs, m, mine, runs, max_len)
                assert answer == naive_sampled_runs(obs, m, ref, runs, max_len)
                assert mine.getstate() == ref.getstate()
                answers.add(answer)
        assert answers == {True, False}

    def test_exact_validator_matches_observability(self):
        # For the machine's own observer, exact validity and observability
        # are the same thing.
        rng = random.Random(305)
        for _ in range(40):
            m = random_fsm(rng, max_states=5)
            obs = build_observer(m)
            assert validate_critical_observer(obs, m) == check_observable(
                obs, m.critical
            ).observable


class TestObservableGenerator:
    def test_generator_delivers_observable_machines(self):
        rng = random.Random(306)
        for _ in range(25):
            m = observable_fsm(rng, max_states=4)
            assert check_observable(build_observer(m), m.critical).observable

    def test_network_generator_bounds(self):
        rng = random.Random(307)
        for _ in range(25):
            net = random_network(rng, max_members=4, max_states=5, max_labels=4)
            assert 1 <= len(net.members) <= 4
            for _, m in net.members:
                assert len(m.states) <= 5
                assert len(m.alphabet) <= 4
