"""Parallel composition: synchronization, blocking, flattening, criticality."""

from __future__ import annotations

import random
import tracemalloc
from collections import deque

import pytest

from critnet import (
    BudgetExceededError,
    Fsm,
    InvalidInputError,
    MalformedFsmError,
    Network,
    build_decentralized,
    compose_decentralized,
    compose_many,
    compose_network,
    in_language,
    parse_network,
    product_state_name,
    serialize_network,
    tuple_parts,
)
from critnet.compose import BLOCK_BITS, explore
from conftest import make_fsm_a, make_fsm_b
from genutil import block_members, random_fsm, random_network
from oracles import (
    extended_delta,
    naive_bank_product,
    naive_compose,
    project_word,
    structural_key,
)
from product_oracle import tuple_product_table


class TestNetwork:
    def test_members_accessors(self, net_ab):
        assert net_ab.names == ("A", "B")
        assert net_ab.get("A") == make_fsm_a()
        with pytest.raises(KeyError):
            net_ab.get("missing")

    def test_empty_network_rejected(self):
        for members in ((), [], None):
            with pytest.raises(InvalidInputError) as caught:
                Network(members)
            assert str(caught.value) == "a network needs at least one member"

    def test_duplicate_member_names_rejected(self):
        m = make_fsm_a()
        with pytest.raises(InvalidInputError) as caught:
            Network((("A", m), ("A", m)))
        assert str(caught.value) == "duplicate member names in ['A', 'A']"

    def test_member_names_must_be_strings(self):
        with pytest.raises(InvalidInputError) as caught:
            Network((("A", make_fsm_a()), (1, make_fsm_b())))
        assert str(caught.value) == "member name 1 is not a string"

    def test_members_must_be_machines(self):
        with pytest.raises(InvalidInputError) as caught:
            Network((("A", make_fsm_a()), ("B", "notfsm")))
        assert str(caught.value) == "member 'B' is 'notfsm', not an Fsm"

    def test_members_must_be_name_machine_pairs(self):
        m = make_fsm_a()
        for members, message in (
            ([m], f"member 0 is {m!r}, not a (name, Fsm) pair"),
            ((("A", m, 1),), f"member 0 is ('A', {m!r}, 1), not a (name, Fsm) pair"),
            (("AB",), "member 0 is 'AB', not a (name, Fsm) pair"),
        ):
            with pytest.raises(InvalidInputError) as caught:
                Network(members)
            assert str(caught.value) == message

    def test_list_built_network_keeps_its_own_tuple(self):
        m = make_fsm_a()
        pairs = [("A", m)]
        net = Network(pairs)
        twin = Network((("A", m),))
        assert net == twin and hash(net) == hash(twin)
        pairs.append(("A", m))
        assert net.members == (("A", m),)

    def test_members_cannot_be_assigned_or_deleted(self, net_ab):
        twin = Network(net_ab.members)
        for change in (
            lambda: setattr(net_ab, "members", (("B", make_fsm_b()),)),
            lambda: delattr(net_ab, "members"),
            lambda: setattr(net_ab, "extra", 1),
        ):
            with pytest.raises(AttributeError):
                change()
            assert net_ab == twin and hash(net_ab) == hash(twin)
        assert net_ab.names == ("A", "B")

    def test_repr_shows_the_members(self, fsm_a):
        net = Network((("A", fsm_a),))
        assert repr(net) == f"Network(members=(('A', {fsm_a!r}),))"

    def test_empty_member_name_rejected(self):
        with pytest.raises(InvalidInputError) as caught:
            Network((("A", make_fsm_a()), ("", make_fsm_b())))
        assert str(caught.value) == "member names must be nonempty"

    def test_product_name_collision_rejected(self):
        # ("a,b", "c") and ("a", "b,c") both print as "(a,b,c)".
        m1 = Fsm(["a,b", "a"], ["a,b", "a"], ["x"], [])
        m2 = Fsm(["c", "b,c"], ["c", "b,c"], ["y"], [])
        with pytest.raises(MalformedFsmError) as caught:
            compose_many([m1, m2])
        assert str(caught.value) == "product name collision at '(a,b,c)'"


class TestTupleParts:
    def test_atomic_names(self):
        assert tuple_parts("p") == ("p",)
        assert tuple_parts("state_1") == ("state_1",)
        assert tuple_parts("") == ("",)

    def test_flat_tuples(self):
        assert tuple_parts("(p,q)") == ("p", "q")
        assert tuple_parts("(p,q,r)") == ("p", "q", "r")

    def test_single_component_parens_stay_atomic(self):
        assert tuple_parts("(p)") == ("(p)",)

    def test_nested_brackets_do_not_split(self):
        assert tuple_parts("({p,q},r)") == ("{p,q}", "r")
        assert tuple_parts("((a,b))") == ("((a,b))",)

    def test_unbalanced_stays_atomic(self):
        assert tuple_parts("(p,q") == ("(p,q",)
        assert tuple_parts("(p,)") == ("(p,)",)

    def test_product_state_name_flattens(self):
        assert product_state_name(["p", "r"]) == "(p,r)"
        assert product_state_name(["(p,r)", "x"]) == "(p,r,x)"
        assert product_state_name(["x", "(p,r)"]) == "(x,p,r)"


class TestComposeFixtures:
    def test_compose_ab_states(self, fsm_a, fsm_b):
        c = compose_many([fsm_a, fsm_b])
        assert c.states == frozenset({"(p,r)", "(p,s)", "(p,t)", "(q,s)", "(q,t)"})
        assert c.initial == frozenset({"(p,r)"})
        assert c.alphabet == frozenset({"a", "b"})
        assert c.critical == frozenset({"(p,t)", "(q,s)", "(q,t)"})

    def test_compose_ab_transitions(self, fsm_a, fsm_b):
        c = compose_many([fsm_a, fsm_b])
        assert list(c.transitions()) == [
            ("(p,r)", "a", "(q,s)"),
            ("(p,r)", "a", "(q,t)"),
            ("(q,s)", "b", "(p,s)"),
            ("(q,t)", "b", "(p,t)"),
        ]

    def test_shared_label_blocks(self, fsm_a, fsm_b):
        # After "a b" machine B can no longer move on "a", so "a b a" blocks
        # in the product even though A alone could run it.
        c = compose_many([fsm_a, fsm_b])
        assert in_language(c, ("a", "b"))
        assert not in_language(c, ("a", "b", "a"))
        assert in_language(make_fsm_a(), ("a", "b", "a"))

    def test_private_labels_interleave(self):
        m1 = Fsm(["x", "y"], ["x"], ["a"], [("x", "a", "y")])
        m2 = Fsm(["u", "v"], ["u"], ["b"], [("u", "b", "v")])
        c = compose_many([m1, m2])
        assert in_language(c, ("a", "b"))
        assert in_language(c, ("b", "a"))
        assert c.states == frozenset({"(x,u)", "(x,v)", "(y,u)", "(y,v)"})

    def test_single_member_identity(self, fsm_a):
        assert compose_many([fsm_a]) is fsm_a
        assert compose_network(Network((("A", fsm_a),))) is fsm_a

    def test_empty_composition_rejected(self):
        with pytest.raises(InvalidInputError):
            compose_many([])

    def test_accessible_only(self):
        # m2's second state is never reached in the product because "a" is
        # blocked after m1 stops; unreachable products must not appear.
        m1 = Fsm(["x"], ["x"], ["a"], [])
        m2 = Fsm(["u", "v"], ["u"], ["a"], [("u", "a", "v")])
        c = compose_many([m1, m2])
        assert c.states == frozenset({"(x,u)"})
        assert list(c.transitions()) == []

    def test_critical_when_any_part_critical(self, fsm_a, fsm_b):
        c = compose_many([fsm_a, fsm_b])
        for name in c.states:
            parts = tuple_parts(name)
            expected = parts[0] in make_fsm_a().critical or parts[1] in make_fsm_b().critical
            assert (name in c.critical) == expected


class TestBudget:
    def test_threshold_is_exact(self):
        rng = random.Random(911)
        checked = 0
        for _ in range(60):
            net = random_network(rng, max_members=3, max_states=4)
            if len(net.members) < 2:
                continue
            checked += 1
            n = len(compose_network(net).states)
            assert len(compose_network(net, max_states=n).states) == n
            with pytest.raises(BudgetExceededError, match=f"^product exceeded {n - 1} states$"):
                compose_network(net, max_states=n - 1)
        assert checked >= 20

    def test_initial_product_over_budget(self):
        # Two initial states each and no moves: the product is its 4 initial states.
        a, b = Fsm(["p", "q"], ["p", "q"], [], []), Fsm(["r", "s"], ["r", "s"], [], [])
        net = Network((("A", a), ("B", b)))
        assert len(compose_network(net, max_states=4).states) == 4
        with pytest.raises(BudgetExceededError, match="^product exceeded 3 states$"):
            compose_network(net, max_states=3)

    def test_initial_states_are_counted_before_they_are_listed(self):
        # 18 members with two initial states each start 2**18 = 262 144
        # product states; listing them all before the check took tens of MB.
        m = Fsm(["p", "q"], ["p", "q"], [], [])
        net = Network(tuple((f"M{i}", m) for i in range(18)))
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="^product exceeded 1000 states$"):
                compose_network(net, max_states=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_one_member_is_held_to_the_budget(self):
        # A single member is its own product: the budget counts its states,
        # unreachable ones included, and within it the member comes back.
        m = Fsm(["p", "q", "r"], ["p"], ["a"], [("p", "a", "q")])
        net = Network((("A", m),))
        assert compose_network(net, max_states=3) is m
        assert compose_many([m], max_states=3) is m
        for budget in (0, 2):
            with pytest.raises(
                BudgetExceededError, match=f"^product exceeded {budget} states$"
            ):
                compose_network(net, max_states=budget)


class TestAlgebraicProperties:
    def test_trace_projection_containment(self, fsm_a, fsm_b):
        # Every trace of the product projects to a trace of each member.
        c = compose_many([fsm_a, fsm_b])
        words = [("a",), ("a", "b")]
        for w in words:
            assert in_language(c, w)
            assert in_language(fsm_a, project_word(w, fsm_a.alphabet))
            assert in_language(fsm_b, project_word(w, fsm_b.alphabet))


class TestRandomizedAgainstOracle:
    def test_matches_naive_fixpoint_composition(self):
        rng = random.Random(201)
        for _ in range(30):
            net = random_network(rng, max_members=3, max_states=4)
            got = compose_network(net)
            want = naive_compose(list(net.machines))
            assert got == want

    def test_associativity_up_to_equality(self):
        rng = random.Random(202)
        for _ in range(20):
            ms = [random_fsm(rng, max_states=3) for _ in range(3)]
            left = compose_many([compose_many([ms[0], ms[1]]), ms[2]])
            right = compose_many([ms[0], compose_many([ms[1], ms[2]])])
            flat = compose_many(ms)
            assert left == flat
            assert right == flat

    def test_commutativity_up_to_isomorphism(self):
        rng = random.Random(203)
        for _ in range(15):
            m1 = random_fsm(rng, max_states=3)
            m2 = random_fsm(rng, max_states=3)
            c12 = compose_many([m1, m2])
            c21 = compose_many([m2, m1])
            swap = {}
            for name in c12.states:
                x1, *rest = tuple_parts(name)
                swap[name] = product_state_name((*rest, x1))
            # The swap map must be a structure-preserving bijection.
            assert frozenset(swap.values()) == c21.states
            assert frozenset(swap[s] for s in c12.initial) == c21.initial
            assert frozenset(swap[s] for s in c12.critical) == c21.critical
            got = frozenset(
                (swap[a], label, swap[b]) for a, label, b in c12.transitions()
            )
            assert got == frozenset(c21.transitions())

    def test_joint_estimate_factorizes(self):
        # The composed estimate after a word is the product of the member
        # estimates of the projected words.
        rng = random.Random(204)
        for _ in range(20):
            net = random_network(rng, max_members=2, max_states=3)
            if len(net.members) < 2:
                continue
            c = compose_network(net)
            (n1, m1), (n2, m2) = net.members
            for w in _short_words(c, rng):
                est = extended_delta(c, c.initial, w)
                e1 = extended_delta(m1, m1.initial, project_word(w, m1.alphabet))
                e2 = extended_delta(m2, m2.initial, project_word(w, m2.alphabet))
                for name in est:
                    x1, x2 = tuple_parts(name)
                    assert x1 in e1 and x2 in e2


class TestTrustedConstruction:
    """Products skip the public constructor's checks; they must still pass them."""

    def test_products_pass_the_public_constructor(self):
        rng = random.Random(1301)
        members = {2: 0, 3: 0, 4: 0}
        for _ in range(120):
            net = random_network(rng, max_members=4, max_states=4)
            machines = list(net.machines)
            if len(machines) < 2:
                continue
            members[len(machines)] += 1
            composed = compose_many(machines)
            # Already composed machines, composed again with each other.
            nested = compose_many([compose_many(machines[:2]), composed])
            for c in (composed, nested):
                again = Fsm(c.states, c.initial, c.alphabet, c.transitions(), c.critical)
                assert again == c
                _assert_well_formed_table(c)
                assert c.int_moves() == again.int_moves()
        assert sum(members.values()) >= 80 and min(members.values()) >= 20

    def test_products_number_states_by_sorted_name(self):
        rng = random.Random(1303)
        checked = 0
        for _ in range(60):
            net = random_network(rng, max_members=3, max_states=4)
            if len(net.members) < 2:
                continue
            c = compose_network(net)
            names, _, flags = c.int_moves()
            assert list(names) == sorted(c.states)
            assert [x for x, (_, init) in zip(names, flags) if init] == sorted(c.initial)
            assert [x for x, (crit, _) in zip(names, flags) if crit] == sorted(c.critical)
            checked += 1
        assert checked >= 30

    def test_parenthesized_member_states_keep_distinct_names(self):
        m1 = Fsm(["(x,y)", "x"], ["(x,y)", "x"], [], [])
        m2 = Fsm(["z", "(y,z)"], ["z", "(y,z)"], [], [])
        assert compose_many([m1, m2]).states == {
            "((x,y),z)", "((x,y),(y,z))", "(x,z)", "(x,(y,z))",
        }

    def test_products_read_back_from_a_file_compose_alike(self):
        rng = random.Random(1302)
        checked = 0
        for _ in range(40):
            net = random_network(rng, max_members=3, max_states=3)
            if len(net.members) < 2:
                continue
            third = random_fsm(rng, max_states=3)
            composed = compose_network(net)
            (_, read), = parse_network(serialize_network(Network((("c", composed),)))).members
            assert compose_many([read, third]) == compose_many([composed, third])
            assert compose_many([third, read]) == compose_many([third, composed])
            checked += 1
        assert checked >= 20


def _read_back(m: Fsm) -> Fsm:
    """``m`` written as a one-member network and parsed again."""
    ((_, read),) = parse_network(serialize_network(Network((("m", m),)))).members
    return read


def _handed_back(rng: random.Random):
    """Per network of 2-4 members, each kind of machine the library returns."""
    while True:
        net = random_network(rng, max_members=4, max_states=4)
        if len(net.members) < 2:
            continue
        machines = list(net.machines)
        product = compose_many(machines)
        third = random_fsm(rng, max_states=3)
        nested = compose_many([compose_many(machines[:2]), *machines[2:], third])
        yield {
            "parsed": parse_network(serialize_network(net)).machines,
            "product": [product],
            "nested": [nested],
            "read back": [_read_back(product), _read_back(nested)],
        }, len(machines)


class TestOneNumbering:
    """Every machine, parsed or composed, numbers its states by sorted name."""

    def test_ids_follow_sorted_names(self):
        kinds = dict.fromkeys(("parsed", "product", "nested", "read back"), 0)
        sizes = {2: 0, 3: 0, 4: 0}
        for _, (made, size) in zip(range(120), _handed_back(random.Random(1501))):
            sizes[size] += 1
            for kind, machines in made.items():
                for m in machines:
                    assert list(m.int_moves()[0]) == sorted(m.states), kind
                    kinds[kind] += 1
        assert min(kinds.values()) >= 120 and min(sizes.values()) >= 20

    def test_equality_and_hash_agree_with_structure(self):
        rng = random.Random(1502)
        pairs = []
        previous = None
        for _, (made, _) in zip(range(100), _handed_back(rng)):
            (product,), (nested,) = made["product"], made["nested"]
            read, nested_read = made["read back"]
            parsed = made["parsed"]
            # The same names with one more label, or one move fewer.
            moves = list(product.transitions())
            states, initial, alphabet = product.states, product.initial, product.alphabet
            more = Fsm(states, initial, alphabet | {"zz"}, moves, product.critical)
            fewer = Fsm(states, initial, alphabet, moves[1:], product.critical)
            pairs += [(product, read), (product, more), (product, fewer), (nested, nested_read)]
            pairs += [(parsed[0], parsed[1]), (product, nested)]
            if len(parsed) > 2:
                # Association order changes neither names nor structure.
                pairs.append((product, compose_many([compose_many(parsed[:2]), *parsed[2:]])))
            if previous is not None:
                pairs.append((product, previous))
            previous = product
        equal = 0
        for a, b in pairs:
            same = structural_key(a) == structural_key(b)
            assert (a == b) == (b == a) == same
            if same:
                assert hash(a) == hash(b)
                equal += 1
        assert len(pairs) >= 500 and 100 <= equal <= len(pairs) - 100


class TestPackedWalkAgainstReference:
    """The packed-int walk returns the tuple walk's table, renumbered by name."""

    SHAPES = ("single", "powers", "nondeterministic", "everyone", "two-initial", "nested")

    def test_table_and_budget_match_the_tuple_walk(self):
        rng = random.Random(1401)
        pool: dict[int, list[Fsm]] = {}
        seen = dict.fromkeys((*self.SHAPES, "wide"), 0)
        branching = wide = 0
        for k in range(560):
            shape = "wide" if k % 14 == 13 else self.SHAPES[k % len(self.SHAPES)]
            machines = _shaped_members(rng, shape, pool)
            want = tuple_product_table(machines)
            by_name = _renumbered(want, sorted(want[0]))
            assert compose_many(machines).int_moves() == by_name, (k, shape)
            n = len(want[0])
            with pytest.raises(BudgetExceededError) as expected:
                tuple_product_table(machines, n - 1)
            with pytest.raises(BudgetExceededError, match=f"^product exceeded {n - 1} states$"):
                compose_many(machines, n - 1)
            assert str(expected.value) == f"product exceeded {n - 1} states"
            seen[shape] += 1
            branching += max(_branching_owners(machines, a) for a in "ab") > 1
            widths = sum((len(m.states) - 1).bit_length() or 1 for m in machines)
            wide += widths > 64 and n > 1
        assert sum(seen.values()) >= 500 and min(seen.values()) >= 40
        assert branching >= 80 and wide >= 30

    @pytest.mark.parametrize("rules", ["memo", "tables", "both", "late", "blocked", "blocks"])
    def test_both_step_rules_match_the_tuple_walk(self, rules):
        # A label only some members own steps through one memo by its owners'
        # fields, a label every member owns through a memo per owner, filled
        # on first use. With "memo" or "both", "c" has two or more owners but
        # not every member, and each owner has two moves on it from the
        # initial state, so the memo holds a tuple of deltas from the first
        # step on. With "late" and "blocked", "a" is owned by every member
        # and blocked at the initial state, and first fires later. With
        # "blocks" the fields are wide enough for runs of labels to step as
        # blocks (``genutil.block_members``): each run spans more than one
        # block, "m", which every member owns, sorts between two runs, some
        # moves in a block have two targets, and a "b" label first fires
        # after the first step. The observer banks of the same networks walk
        # the same rules.
        rng = random.Random(2901 + len(rules))
        branching = late = banks = 0
        count = 40 if rules == "blocks" else 120
        for k in range(count):
            machines = _rule_members(rng, rules)
            owned = [sum(label in m.alphabet for m in machines) for label in "abc"]
            if rules == "blocks":
                widths = [(len(m.states) - 1).bit_length() for m in machines]
                assert sum(widths) > BLOCK_BITS * 3 // 2
                assert all("m" in m.alphabet for m in machines)
            elif rules == "tables":
                assert all(m.alphabet == {"a", "b"} for m in machines)
            elif rules in ("late", "blocked"):
                assert owned[0] == len(machines) and owned[1] == owned[2] == 0
            else:
                assert 2 <= owned[2] < len(machines) and owned[1] < len(machines)
                assert ("a" in machines[0].alphabet) == (owned[0] == len(machines)) == (rules != "memo")
            want = tuple_product_table(machines)
            if rules == "blocks":
                first = set(want[1][0])
                late += any(a[0] == "b" and a not in first for row in want[1] for a in row)
            elif rules in ("memo", "both"):
                assert len(want[1][0]["c"]) >= 2 ** owned[2]
            elif rules != "tables":
                assert "a" not in want[1][0] and any("a" in row for row in want[1])
                assert ("a" in machines[0].int_moves()[1][0]) == (rules == "blocked")
            n = len(want[0])
            assert tuple_product_table(machines, n) == want
            assert compose_many(machines, n).int_moves() == _renumbered(want, sorted(want[0])), k
            for walk in (tuple_product_table, compose_many):
                with pytest.raises(BudgetExceededError, match=f"^product exceeded {n - 1} states$"):
                    walk(machines, n - 1)
            branching += any(len(ys) > 1 for row in want[1] for a, ys in row.items() if a != "m")
            bank = build_decentralized(Network([(f"M{i}", m) for i, m in enumerate(machines)]))
            if rules == "blocks":  # a bank of these has thousands of states: check a few wide ones
                widths = [(len(o.states) - 1).bit_length() for _, o in bank.locals]
                if banks == 4 or sum(widths) <= BLOCK_BITS * 3 // 2:
                    continue
                banks += 1
            naive = naive_bank_product(bank)
            composed = compose_decentralized(bank, len(naive.states))
            assert (composed.states, composed.initial) == (naive.states, naive.initial), k
            assert composed.transitions() == naive.transitions()
            assert list(composed.flags) == list(naive.flags)
            budget = f"^composed bank exceeded {len(naive.states) - 1} states$"
            with pytest.raises(BudgetExceededError, match=budget):
                compose_decentralized(bank, len(naive.states) - 1)
        assert branching >= count * 3 // 4
        assert rules != "blocks" or late >= 30 and banks == 4


def _fifo_walk(init, succ, stop=frozenset()):
    """Reference breadth-first search over a queue: the states stored, in
    order, and the first fresh state in ``stop`` (never stored), or None."""
    stored = list(dict.fromkeys(init))
    queue = deque(stored)
    while queue:
        for t in succ[queue.popleft()]:
            if t not in stored:
                if t in stop:
                    return stored, t
                stored.append(t)
                queue.append(t)
    return stored, None


class TestExplore:
    """``explore`` against a queue-based breadth-first search on random graphs."""

    def test_order_stop_and_budget_match_a_fifo_search(self):
        rng = random.Random(1701)
        stopped = grown = 0
        for _ in range(300):
            n = rng.randint(1, 40)
            succ = {s: rng.sample(range(n), rng.randint(0, min(3, n))) for s in range(n)}
            init = rng.sample(range(n), rng.randint(1, min(3, n))) * rng.randint(1, 2)
            want, _ = _fifo_walk(init, succ)
            assert explore(init, succ.__getitem__) == (want, None)
            # An initial state is never tested, so a stop set may hold one.
            stop = set(rng.sample(range(n), rng.randint(1, min(3, n))))
            stored, bad = _fifo_walk(init, succ, stop)
            assert explore(init, succ.__getitem__, stop=stop.__contains__) == (stored, bad)
            assert bad is None or bad not in stored
            stopped += bad is not None
            message = "walk exceeded {} states"
            assert explore(init, succ.__getitem__, len(want), message)[0] == want
            with pytest.raises(BudgetExceededError, match=f"^{message.format(len(want) - 1)}$"):
                explore(init, succ.__getitem__, len(want) - 1, message)
            # The initial set alone is counted before any state is expanded.
            m = len(set(init))
            assert explore(init, lambda s: (), m, message)[0] == want[:m]
            with pytest.raises(BudgetExceededError, match=f"^{message.format(m - 1)}$"):
                explore(init, None, m - 1, message)
            grown += len(want) > m
        assert stopped >= 100 and grown >= 100


def _branching_owners(machines, label):
    """How many of ``machines`` have a state with two or more moves on ``label``."""
    return sum(any(len(row.get(label, ())) > 1 for row in m.int_moves()[1]) for m in machines)


def _shaped_member(rng, n, alphabet, initial=1, wide=0.3):
    """A machine with exactly ``n`` states and ``min(initial, n)`` initial ones.

    Above 64 states only the first 12 move and start, and mostly among
    themselves, so that products of large members stay small.
    """
    states = [f"q{i}" for i in range(n)]
    active = states[:12]
    transitions = []
    for s in active if n > 64 else states:
        for a in alphabet:
            if rng.random() < 0.6:
                width = 2 if rng.random() < wide else 1
                pick = active if n > 64 and rng.random() < 0.8 else states
                transitions.extend((s, a, t) for t in rng.sample(pick, min(width, len(pick))))
    start = rng.sample(active, min(initial, len(active)))
    start_critical = rng.random() < 0.35
    critical = [s for s in states if (start_critical if s in start else rng.random() < 0.35)]
    return Fsm(states, start, alphabet, transitions, critical)


def _rule_members(rng, rules):
    """Three to five members for one of ``walk_product``'s step rules.

    "tables": every member owns "a" and "b" and nothing else. "memo": "c"
    is owned by every member but the last, member 0 owns neither "a" nor
    "b", and each may have a private label, so no label is owned by every
    member.
    "both": "memo" where every member owns "a" too. Every owner of "c" has
    two moves on it from its initial state q0. With "tables" most states
    move on each label, so that the product gets past its initial state.
    "late" and "blocked": every member owns "a" and a private label. One
    member, the blocker, has no move on "a" from q0, a private move to q1
    and a move on "a" from q1; every other member moves on "a" from every
    state. So "a" is blocked at the initial state and first fires from a
    later generation. With "late" the blocker is member 0, so no other
    owner is looked up at the initial state; with "blocked" it is a later
    member, so the owners before it are looked up there first.
    "blocks": five members from ``genutil.block_members``.
    """
    if rules == "blocks":
        return block_members(rng, [rng.randint(5, 8) for _ in range(5)], branching=0.1)
    count = rng.randint(3, 5)
    blocker = rng.randint(1, count - 1) if rules == "blocked" else 0
    machines = []
    for i in range(count):
        if rules == "tables":
            alphabet = ["a", "b"]
        elif rules in ("late", "blocked"):
            alphabet = ["a", f"p{i}"]
        else:
            alphabet = ["c"] * (i < count - 1) + [f"p{i}"] * (rng.random() < 0.4)
            alphabet += ["a"] * (rules == "both" or (i > 0 and rng.random() < 0.6))
            alphabet += ["b"] * (i > 0 and rng.random() < 0.5)
        states = [f"q{j}" for j in range(rng.randint(2, 4))]
        moves = {
            (x, a, y)
            for x in states
            for a in alphabet
            if rng.random() < (0.9 if rules == "tables" else 0.6)
            for y in rng.sample(states, 2 if rng.random() < 0.4 else 1)
        }
        if "c" in alphabet:
            moves.update(("q0", "c", y) for y in rng.sample(states, 2))
        if rules in ("late", "blocked") and i == blocker:
            moves = {move for move in moves if move[:2] != ("q0", "a")}
            moves.update([("q0", f"p{i}", "q1"), ("q1", "a", rng.choice(states))])
        elif rules in ("late", "blocked"):
            moves.update((x, "a", rng.choice(states)) for x in states)
        critical = [x for x in states if rng.random() < 0.35]
        machines.append(Fsm(states, ["q0"], alphabet, sorted(moves), critical))
    return machines


def _shaped_members(rng, shape, pool):
    """Two or more members of one shape: a ``SHAPES`` entry or "wide".

    Members own "a" or "b" or both, and maybe a private label; in
    "everyone" and "nondeterministic" every member owns "a". "wide" takes
    5 to 8 members, sized so that the packed fields need more than 64 bits,
    from ``pool``, which keeps 6 machines per field width.
    """
    count = rng.randint(2, 4)
    sizes = [rng.randint(1, 4) for _ in range(count)]
    initial, wide = 1, 0.3

    def alphabet(i):
        shared = rng.choice([["a"], ["b"], ["a", "b"]])
        if shape in ("everyone", "nondeterministic") and "a" not in shared:
            shared = ["a", *shared]
        return shared + [f"p{i}"] * (rng.random() < 0.4)

    if shape == "wide":
        count = rng.randint(5, 8)
        bits = -(-65 // count)
        if bits not in pool:
            low = 2 ** (bits - 1) + 1
            pool[bits] = [
                _shaped_member(rng, rng.randint(low, low + 63), alphabet(i)) for i in range(6)
            ]
        return [rng.choice(pool[bits]) for _ in range(count)]
    if shape == "single":
        sizes = [rng.choice([1, 1, 2, 3]) for _ in range(count)]
    elif shape == "powers":
        count = rng.randint(2, 3)
        choices = [2, 3, 4, 5, 8, 9] + [16, 17] * (count == 2)
        sizes = [rng.choice(choices) for _ in range(count)]
    elif shape == "nondeterministic":
        sizes, wide = [rng.randint(2, 4) for _ in range(count)], 0.8
    elif shape == "two-initial":
        sizes, initial = [rng.randint(2, 4) for _ in range(count)], 2
    machines = [_shaped_member(rng, n, alphabet(i), initial, wide) for i, n in enumerate(sizes)]
    if shape == "nested":
        extra = rng.randint(1, 2)
        machines = [compose_many(machines[:2]), *machines[2:]]
        machines += [_shaped_member(rng, rng.randint(1, 3), alphabet(9)) for _ in range(extra)]
        if len(machines) > 2 and rng.random() < 0.5:
            machines = [compose_many(machines[:2]), *machines[2:]]
    return machines


def _assert_well_formed_table(m):
    names, rows, flags = m.int_moves()
    assert len(names) == len(set(names)) == len(rows) == len(flags)
    for row in rows:
        assert list(row) == sorted(row) and set(row) <= m.alphabet
        for ys in row.values():
            assert ys and list(ys) == sorted(set(ys)) and 0 <= ys[0] and ys[-1] < len(names)


def _renumbered(table, names):
    """``table``, laid out as ``Fsm.int_moves``, with states numbered in the order of ``names``."""
    old_names, old_rows, old_flags = table
    new_id = {x: i for i, x in enumerate(names)}
    old_id = {x: i for i, x in enumerate(old_names)}
    rows = tuple(
        {a: tuple(sorted(new_id[old_names[j]] for j in ys)) for a, ys in old_rows[old_id[x]].items()}
        for x in names
    )
    return tuple(names), rows, tuple(old_flags[old_id[x]] for x in names)


def _short_words(m, rng, count=10, max_len=4):
    names, rows, _ = m.int_moves()
    index = {x: i for i, x in enumerate(names)}
    words = []
    for _ in range(count):
        w = []
        states = frozenset(m.initial)
        for _ in range(rng.randint(0, max_len)):
            options = sorted({label for x in states for label in rows[index[x]]})
            if not options:
                break
            label = rng.choice(options)
            w.append(label)
            states = extended_delta(m, states, (label,))
        words.append(tuple(w))
    return words
