"""Isomorphism, bisimulation, quotient reduction, preservation evidence."""

from __future__ import annotations

import random

import pytest

from critnet import (
    Fsm,
    MalformedFsmError,
    Network,
    ObserverFsm,
    bisim_check,
    build_observer,
    check_observable,
    compose_decentralized,
    compose_network,
    build_decentralized,
    is_iso_witness,
    iso_check,
    largest_bisimulation,
    preservation_check,
    quotient_network,
)
from critnet.observer import distinct_tables
from conftest import make_fsm_a, make_fsm_b
from genutil import (
    equal_rows_fsm,
    random_fsm,
    random_network,
    renamed,
    renamed_copy,
    split_state_variant,
    with_duplicates,
)
from oracles import (
    brute_force_largest_bisim,
    brute_force_observer_iso,
    is_bisimulation,
    naive_is_iso_witness,
    naive_iso_check,
)


def fz(*names):
    return frozenset(names)


class TestIsoWitnessCheck:
    def test_identity_mapping_on_self(self, fsm_a):
        assert naive_is_iso_witness(fsm_a, fsm_a, {s: s for s in fsm_a.states})

    def test_renamed_copy_witness(self, fsm_a):
        copy = renamed_copy(fsm_a, "n_")
        mapping = {s: f"n_{s}" for s in fsm_a.states}
        assert naive_is_iso_witness(fsm_a, copy, mapping)

    def test_wrong_initial_image_rejected(self, fsm_a):
        copy = renamed_copy(fsm_a, "n_")
        swapped = {"p": "n_q", "q": "n_p"}
        assert not naive_is_iso_witness(fsm_a, copy, swapped)

    def test_partial_mapping_rejected(self, fsm_a):
        assert not naive_is_iso_witness(fsm_a, fsm_a, {"p": "p"})

    def test_non_injective_mapping_rejected(self, fsm_a):
        assert not naive_is_iso_witness(fsm_a, fsm_a, {"p": "p", "q": "p"})


class TestIsoCheck:
    def test_self_iso(self, fsm_a, fsm_b):
        for m in (fsm_a, fsm_b):
            w = naive_iso_check(m, m)
            assert w is not None
            assert naive_is_iso_witness(m, m, w)

    def test_renamed_copies_random(self):
        rng = random.Random(401)
        for _ in range(40):
            m = random_fsm(rng, max_states=5)
            copy = renamed_copy(m, "r_")
            w = naive_iso_check(m, copy)
            assert w is not None
            assert naive_is_iso_witness(m, copy, w)

    def test_not_iso_on_output_difference(self):
        m1 = Fsm(["x", "y"], ["x"], ["a"], [("x", "a", "y")], critical=["y"])
        m2 = Fsm(["x", "y"], ["x"], ["a"], [("x", "a", "y")], critical=[])
        assert naive_iso_check(m1, m2) is None

    def test_not_iso_on_alphabet_difference(self):
        m1 = Fsm(["x"], ["x"], ["a"], [])
        m2 = Fsm(["x"], ["x"], ["b"], [])
        assert naive_iso_check(m1, m2) is None

    def test_not_iso_on_size_difference(self, fsm_a, fsm_b):
        assert naive_iso_check(fsm_a, fsm_b) is None

    def test_symmetric_nondeterministic_permutation(self):
        # Two interchangeable branches; a name-order canonicalization would
        # pair them wrongly, the search must still find the witness.
        m1 = Fsm(
            ["s", "u", "v"],
            ["s"],
            ["a", "b"],
            [("s", "a", "u"), ("s", "a", "v"), ("u", "b", "u"), ("v", "b", "v")],
            critical=["v"],
        )
        m2 = Fsm(
            ["s", "u", "v"],
            ["s"],
            ["a", "b"],
            [("s", "a", "u"), ("s", "a", "v"), ("u", "b", "u"), ("v", "b", "v")],
            critical=["u"],
        )
        w = naive_iso_check(m1, m2)
        assert w is not None
        assert w["v"] == "u"
        assert naive_is_iso_witness(m1, m2, w)

    def test_unreachable_states_paired_by_output(self):
        m1 = Fsm(["x", "dead"], ["x"], ["a"], [], critical=["dead"])
        m2 = Fsm(["y", "gone"], ["y"], ["a"], [], critical=["gone"])
        w = naive_iso_check(m1, m2)
        assert w is not None
        assert w["dead"] == "gone"

    def test_unreachable_output_mismatch(self):
        m1 = Fsm(["x", "dead"], ["x"], ["a"], [], critical=["dead"])
        m2 = Fsm(["y", "gone"], ["y"], ["a"], [], critical=[])
        assert naive_iso_check(m1, m2) is None

    def test_on_observers(self, fsm_a):
        o1 = build_observer(fsm_a)
        o2 = build_observer(renamed_copy(fsm_a, "z_"))
        w = iso_check(o1, o2)
        assert w is not None
        assert w.mapping[frozenset({"p"})] == frozenset({"z_p"})
        assert is_iso_witness(o1, o2, w.mapping)

    def test_different_branching_not_iso(self):
        m1 = Fsm(["x", "y", "z"], ["x"], ["a"], [("x", "a", "y"), ("x", "a", "z")])
        m2 = Fsm(["x", "y", "z"], ["x"], ["a"], [("x", "a", "y"), ("y", "a", "z")])
        assert naive_iso_check(m1, m2) is None


def _det_observer(labels, edges, flagged=()):
    """Observer of a deterministic machine given by (src, label, dst) edges."""
    states = sorted({x for src, _, dst in edges for x in (src, dst)} | {"x"})
    return build_observer(Fsm(states, ["x"], labels, edges, flagged))


class TestObserverIso:
    def test_not_iso_on_alphabet_difference(self):
        o1 = _det_observer(["a"], [("x", "a", "x")])
        o2 = _det_observer(["a", "b"], [("x", "a", "x")])
        assert iso_check(o1, o2) is None
        assert not is_iso_witness(o1, o2, {fz("x"): fz("x")})

    def test_not_iso_on_size_difference(self):
        o1 = _det_observer(["a"], [("x", "a", "x")])
        o2 = _det_observer(["a"], [("x", "a", "y"), ("y", "a", "x")])
        assert iso_check(o1, o2) is None
        # The lockstep walk folds the two-cycle onto the loop; only the
        # size tells them apart.
        assert iso_check(o2, o1) is None

    def test_not_iso_on_output_difference(self):
        edges = [("x", "a", "y"), ("y", "a", "x")]
        o1 = _det_observer(["a"], edges, flagged=["y"])
        o2 = _det_observer(["a"], edges)
        assert iso_check(o1, o2) is None
        assert not is_iso_witness(o1, o2, {fz("x"): fz("x"), fz("y"): fz("y")})

    def test_not_iso_on_initial_output_difference(self):
        # Equal alphabets and sizes; the walk stops at the initial pair.
        o1 = _det_observer(["a"], [("x", "a", "x")], flagged=["x"])
        o2 = _det_observer(["a"], [("x", "a", "x")])
        assert iso_check(o1, o2) is None
        assert iso_check(o2, o1) is None

    def test_not_iso_on_transition_difference(self):
        # Same size, outputs and alphabet; the cycle closes elsewhere, or
        # one side has a move the other lacks.
        o1 = _det_observer(["a"], [("x", "a", "y"), ("y", "a", "x")])
        o2 = _det_observer(["a"], [("x", "a", "y"), ("y", "a", "y")])
        assert iso_check(o1, o2) is None
        assert not is_iso_witness(o1, o2, {fz("x"): fz("x"), fz("y"): fz("y")})
        o3 = _det_observer(["a"], [("x", "a", "y")])
        assert iso_check(o3, o1) is None
        assert iso_check(o1, o3) is None
        assert not is_iso_witness(o3, o1, {fz("x"): fz("x"), fz("y"): fz("y")})

    # Each map below fails exactly one condition: a two-cycle folds onto a
    # one-state loop, and the two-cycle's swap is an automorphism but for
    # the initial state.

    def test_partial_map_rejected(self):
        cycle = _det_observer(["a"], [("x", "a", "y"), ("y", "a", "x")])
        loop = _det_observer(["a"], [("x", "a", "x")])
        assert not is_iso_witness(cycle, loop, {fz("x"): fz("x")})

    def test_non_injective_map_rejected(self):
        cycle = _det_observer(["a"], [("x", "a", "y"), ("y", "a", "x")])
        loop = _det_observer(["a"], [("x", "a", "x")])
        assert not is_iso_witness(cycle, loop, {fz("x"): fz("x"), fz("y"): fz("x")})

    def test_wrong_initial_map_rejected(self):
        cycle = _det_observer(["a"], [("x", "a", "y"), ("y", "a", "x")])
        assert is_iso_witness(cycle, cycle, {fz("x"): fz("x"), fz("y"): fz("y")})
        assert not is_iso_witness(cycle, cycle, {fz("x"): fz("y"), fz("y"): fz("x")})


def _altered(rng: random.Random, obs: ObserverFsm) -> ObserverFsm | None:
    """``obs`` with one output flipped or one move retargeted; None when
    that leaves a state unreachable."""
    outputs = dict(zip(obs.states, obs.flags))
    moves = {(x, a): y for x, a, y in obs.transitions()}
    if rng.random() < 0.5 or not moves:
        z = rng.choice(obs.states)
        outputs[z] = 1 - outputs[z]
    else:
        x, a, _ = rng.choice(obs.transitions())
        moves[x, a] = rng.choice(obs.states)
    try:
        return ObserverFsm(obs.states, obs.initial, obs.alphabet, moves, outputs)
    except MalformedFsmError:
        return None


def _observer_pairs(rng: random.Random, count: int) -> list[tuple[ObserverFsm, ObserverFsm]]:
    """Pairs of equal size and alphabet, in turn: a renamed copy's observer,
    a split-state variant's, an altered observer, and an earlier observer."""
    earlier: dict[tuple, list[ObserverFsm]] = {}
    pairs = []
    while len(pairs) < count:
        m = random_fsm(rng, max_states=4, max_labels=2)
        obs = build_observer(m)
        if not 2 <= len(obs.states) <= 6:
            continue
        same_shape = earlier.setdefault((obs.alphabet, len(obs.states)), [])
        kind = len(pairs) % 4
        if kind == 0:
            other = build_observer(renamed_copy(m, "r_"))
        elif kind == 1:
            other = build_observer(split_state_variant(rng, m, "s"))
        elif kind == 2:
            other = _altered(rng, obs)
        else:
            other = rng.choice(same_shape) if same_shape else None
        same_shape.append(obs)
        if other is not None and len(other.states) == len(obs.states):
            pairs.append((obs, other))
    return pairs


class TestIsoCheckAgainstBruteForce:
    def test_agrees_with_every_bijection_tried(self):
        pairs = _observer_pairs(random.Random(2801), 2000)
        isomorphic = 0
        for o1, o2 in pairs:
            assert o1.alphabet == o2.alphabet and len(o1.states) == len(o2.states)
            found = brute_force_observer_iso(o1, o2)
            # Deterministic, fully reachable observers admit at most one.
            assert len(found) <= 1
            w = iso_check(o1, o2)
            assert (w is None) == (not found)
            assert w is None or w.mapping in found
            isomorphic += bool(found)
        assert isomorphic >= 300 and len(pairs) - isomorphic >= 300


class TestLargestBisimulation:
    def test_contains_identity_on_self(self, fsm_a, fsm_b):
        for m in (fsm_a, fsm_b):
            pairs = largest_bisimulation(m, m)
            assert {(s, s) for s in m.states} <= pairs

    def test_fixture_a_vs_b_empty_after_gate(self, fsm_a, fsm_b):
        assert bisim_check(fsm_a, fsm_b) is None

    def test_matches_brute_force_small(self):
        rng = random.Random(402)
        for _ in range(60):
            m1 = random_fsm(rng, max_states=3, max_labels=2)
            m2 = random_fsm(rng, max_states=3, max_labels=2)
            assert largest_bisimulation(m1, m2) == brute_force_largest_bisim(m1, m2)

    def test_result_is_a_bisimulation(self):
        rng = random.Random(403)
        for _ in range(40):
            m1 = random_fsm(rng, max_states=4)
            m2 = random_fsm(rng, max_states=4)
            pairs = largest_bisimulation(m1, m2)
            assert is_bisimulation(m1, m2, set(pairs))

    def test_symmetric(self):
        rng = random.Random(404)
        for _ in range(30):
            m1 = random_fsm(rng, max_states=4)
            m2 = random_fsm(rng, max_states=4)
            flipped = {(b, a) for a, b in largest_bisimulation(m1, m2)}
            assert flipped == largest_bisimulation(m2, m1)


class TestBisimCheck:
    def test_renamed_copy_bisimilar(self):
        rng = random.Random(405)
        for _ in range(30):
            m = random_fsm(rng, max_states=5)
            rel = bisim_check(m, renamed_copy(m, "c_"))
            assert rel is not None
            assert all((s, f"c_{s}") in rel for s in m.states)

    def test_split_variant_bisimilar(self):
        rng = random.Random(406)
        for _ in range(30):
            m = random_fsm(rng, max_states=4)
            variant = split_state_variant(rng, m, "v")
            assert bisim_check(m, variant) is not None
            assert len(variant.states) == len(m.states) + 1

    def test_reflexive(self):
        rng = random.Random(407)
        for _ in range(20):
            m = random_fsm(rng, max_states=5)
            assert bisim_check(m, m) is not None

    def test_initial_coverage_gate(self):
        # The only surviving pair relates two isolated states, so the gate
        # must reject even though the largest bisimulation is nonempty.
        m1 = Fsm(["x0", "x1"], ["x0"], ["a"], [("x0", "a", "x0")], critical=[])
        m2 = Fsm(["y0", "y1"], ["y0"], ["a"], [("y0", "a", "y0")], critical=["y0"])
        assert largest_bisimulation(m1, m2) == frozenset({("x1", "y1")})
        assert bisim_check(m1, m2) is None

    def test_related_lookup(self, fsm_a):
        rel = bisim_check(fsm_a, renamed_copy(fsm_a, "c_"))
        assert {b for a, b in rel if a == "p"} == {"c_p"}
        assert ("p", "c_p") in rel
        assert ("p", "c_q") not in rel

    def test_alphabet_gate(self):
        # Step-for-step identical loops, but one machine also owns a label
        # it never fires. With that label in someone else's alphabet the two
        # are not interchangeable: the owner blocks it, the non-owner lets
        # it fire. The relation is there; the check still refuses.
        m1 = Fsm(["x0"], ["x0"], ["b"], [("x0", "b", "x0")], critical=[])
        m2 = Fsm(["y0"], ["y0"], ["a", "b"], [("y0", "b", "y0")], critical=[])
        assert ("x0", "y0") in largest_bisimulation(m1, m2)
        assert bisim_check(m1, m2) is None

    def test_alphabet_gate_blocks_unsound_merge(self):
        # Swapping m2 for m1 above would flip a verdict: composed with m3,
        # m2 blocks the shared label a outright, while m1 would let m3 fire
        # it alone into a straddling estimate.
        m1 = Fsm(["x0"], ["x0"], ["b"], [("x0", "b", "x0")], critical=[])
        m2 = Fsm(["y0"], ["y0"], ["a", "b"], [("y0", "b", "y0")], critical=[])
        m3 = Fsm(
            ["z0", "z1", "z2"],
            ["z0"],
            ["a"],
            [("z0", "a", "z1"), ("z0", "a", "z2")],
            critical=["z1"],
        )
        net = Network((("M1", m1), ("M2", m2), ("M3", m3)))
        reduced, classes = quotient_network(net)
        assert reduced.names == net.names
        assert classes.classes == (("M1",), ("M2",), ("M3",))

        def verdict(n: Network) -> bool:
            c = compose_network(n)
            return check_observable(build_observer(c), c.critical).observable

        assert verdict(net)
        assert not verdict(Network((("M1", m1), ("M3", m3))))


class TestBisimCheckAgainstQuotient:
    def test_check_passes_exactly_when_the_pair_merges(self):
        # A pair is interchangeable exactly when the quotient of the
        # two-member network keeps one class, and ``bisim_check`` then gives
        # the largest bisimulation: renamed copies, split-state variants,
        # and random machines over equal and over unequal alphabets.
        rng = random.Random(3102)
        merged = 0
        for k in range(2400):
            small = k % 4 == 2  # so that some unrelated pairs merge too
            m1 = random_fsm(rng, max_states=2 if small else 4, max_labels=1 if small else 3)
            if k % 4 == 0:
                m2 = renamed_copy(m1, "c_")
            elif k % 4 == 1:
                m2 = split_state_variant(rng, m1, "v")
            elif small:
                m2 = random_fsm(rng, max_states=3, alphabet=sorted(m1.alphabet))
            else:
                m2 = random_fsm(rng, max_states=4)
            reduced, _ = quotient_network(Network((("M1", m1), ("M2", m2))))
            pairs = largest_bisimulation(m1, m2)
            # Equal alphabets, and every initial state of either side related.
            rule = m1.alphabet == m2.alphabet and (
                m1.initial <= {a for a, _ in pairs} and m2.initial <= {b for _, b in pairs}
            )
            assert bisim_check(m1, m2) == (pairs if rule else None), k
            assert len(reduced.members) == 2 - rule, k
            merged += rule
        assert 0.3 <= merged / 2400 <= 0.7


class TestQuotient:
    def test_duplicate_members_dropped(self, fsm_a, fsm_b):
        net = Network(
            (
                ("A", fsm_a),
                ("Acopy", renamed_copy(fsm_a, "c_")),
                ("B", fsm_b),
            )
        )
        reduced, classes = quotient_network(net)
        assert reduced.names == ("A", "B")
        assert reduced.get("A") is fsm_a
        assert classes.classes == (("A", "Acopy"), ("B",))
        assert classes.representatives == ("A", "B")
        assert classes.rep_of("Acopy") == "A"
        assert classes.rep_of("B") == "B"
        with pytest.raises(KeyError):
            classes.rep_of("nope")

    def test_no_reduction_when_distinct(self, net_ab):
        reduced, classes = quotient_network(net_ab)
        assert reduced.names == net_ab.names
        assert classes.classes == (("A",), ("B",))

    def test_transitive_grouping(self, fsm_a):
        net = Network(
            (
                ("A1", fsm_a),
                ("A2", renamed_copy(fsm_a, "x_")),
                ("A3", split_state_variant(random.Random(1), fsm_a, "s")),
            )
        )
        reduced, classes = quotient_network(net)
        assert reduced.names == ("A1",)
        assert classes.classes == (("A1", "A2", "A3"),)

    def test_single_member_untouched(self, fsm_a):
        net = Network((("A", fsm_a),))
        reduced, classes = quotient_network(net)
        assert reduced is not None
        assert reduced.names == ("A",)
        assert classes.representatives == ("A",)


def _pairwise_grouping(net: Network):
    """Classes and representatives straight from pairwise bisim_check.

    Each member's class is every member bisimilar to it; listing the
    distinct classes in order of first member gives the grouping the
    quotient must produce, and also fails if the relation is not an
    equivalence.
    """
    mates = [
        tuple(n for n, other in net.members if bisim_check(m, other) is not None)
        for _, m in net.members
    ]
    classes = tuple(dict.fromkeys(mates))
    return classes, tuple(c[0] for c in classes)


class TestQuotientMatchesPairwise:
    def test_random_networks_with_copies(self):
        rng = random.Random(410)
        mixed_alphabets = kept_apart = shared = 0
        for trial in range(60):
            base = random_network(rng, max_members=4, max_states=4)
            # One more member over an existing alphabet, so members with equal
            # alphabets but different behaviour meet in one refinement.
            _, like = rng.choice(base.members)
            extra = random_fsm(rng, max_states=4, alphabet=sorted(like.alphabet))
            net = Network(base.members + (("X", extra),))
            net = with_duplicates(rng, net, copies=3, split=trial % 2 == 1)
            reduced, classes = quotient_network(net)
            expected = _pairwise_grouping(net)
            assert (classes.classes, classes.representatives) == expected, net
            assert reduced.names == expected[1]
            alphabets = [m.alphabet for m in reduced.machines]
            mixed_alphabets += len(set(alphabets)) > 1
            kept_apart += len(set(alphabets)) < len(alphabets)
            # Renamed copies keep their original's table, so the refinement reads it once.
            shared += len(distinct_tables(net.machines)[1]) < len(net.members)
        assert mixed_alphabets >= 40
        assert kept_apart >= 40
        assert shared >= 30

    def test_same_alphabet_different_initial_classes(self):
        # M2 has an initial state bisimilar to M1's and one matching nothing
        # in M1, so the initial class sets differ and the two stay apart;
        # a renamed copy of M2 has the same set and merges with it.
        m1 = Fsm(["x0", "x1"], ["x0"], ["a"], [("x0", "a", "x1")])
        m2 = Fsm(["y0", "y1", "y2"], ["y0", "y1"], ["a"], [("y0", "a", "y2")])
        net = Network((("M1", m1), ("M2", m2), ("M3", renamed_copy(m2, "c_"))))
        reduced, classes = quotient_network(net)
        assert classes.classes == (("M1",), ("M2", "M3"))
        assert classes.representatives == ("M1", "M2")
        assert (classes.classes, classes.representatives) == _pairwise_grouping(net)


class TestQuotientOverEqualTables:
    """The quotient refines one member per equal table; copies take its classes."""

    def test_equal_rows_apart_by_flags_initial_or_label(self):
        base = equal_rows_fsm()
        net = Network(
            (
                ("A", base),
                ("Crit", equal_rows_fsm(critical=("q",))),
                ("Init", equal_rows_fsm(initial=("q",))),
                ("Label", equal_rows_fsm(alphabet=("a", "b", "z"))),
                ("Acopy", renamed_copy(base, "c_")),
            )
        )
        assert distinct_tables(net.machines)[0] == (0, 1, 2, 3, 0)
        reduced, classes = quotient_network(net)
        assert classes.classes == (("A", "Acopy"), ("Crit",), ("Init",), ("Label",))
        assert (classes.classes, classes.representatives) == _pairwise_grouping(net)
        assert reduced.names == ("A", "Crit", "Init", "Label")

    def test_copy_with_reordered_ids_still_merges(self):
        # Ids follow sorted names, so reversed names reverse the ids: the
        # tables differ and the copy is refined on its own, yet it merges.
        base = equal_rows_fsm()
        flipped = renamed(base, {"p": "z", "q": "y", "r": "x"})
        net = Network((("A", base), ("F", flipped), ("C", renamed_copy(base, "c_"))))
        assert flipped.int_moves()[1] != base.int_moves()[1]
        assert distinct_tables(net.machines)[0] == (0, 1, 0)
        reduced, classes = quotient_network(net)
        assert classes.classes == (("A", "F", "C"),)
        assert reduced.members == (("A", base),)
        assert (classes.classes, classes.representatives) == _pairwise_grouping(net)


class TestPreservation:
    def test_fixture_network_with_duplicates(self, fsm_a, fsm_b):
        net = Network(
            (
                ("A", fsm_a),
                ("B", fsm_b),
                ("Acopy", renamed_copy(fsm_a, "c_")),
            )
        )
        report = preservation_check(net, runs=50, max_len=8, seed=1)
        assert report.classes.representatives == ("A", "B")
        assert report.verdicts_agree
        assert report.verdict_full.observable == report.verdict_reduced.observable
        assert report.observer_serves_full == report.observer_serves_reduced
        assert report.sampled_full == report.sampled_reduced

    def test_random_networks_with_duplicates(self):
        rng = random.Random(408)
        for _ in range(15):
            base = random_network(rng, max_members=2, max_states=3)
            net = with_duplicates(rng, base, copies=1, split=bool(rng.getrandbits(1)))
            report = preservation_check(net, runs=40, max_len=6, seed=2)
            assert report.verdicts_agree
            assert report.observer_serves_full == report.observer_serves_reduced

    def test_observable_network_observer_serves_both(self):
        rng = random.Random(409)
        found = 0
        for _ in range(40):
            base = random_network(rng, max_members=2, max_states=3, observable_members=True)
            net = with_duplicates(rng, base, copies=1)
            report = preservation_check(net, runs=40, max_len=6, seed=3)
            if report.verdict_full.observable:
                found += 1
                assert report.observer_serves_full
                assert report.observer_serves_reduced
                assert report.sampled_full and report.sampled_reduced
            if found >= 10:
                break
        assert found >= 5


def test_composed_bank_iso_is_transitive_sanity(fsm_a):
    # Same bank composed twice gives equal (not merely isomorphic) machines.
    net = Network((("A", fsm_a), ("A2", renamed_copy(fsm_a, "w_"))))
    bank = build_decentralized(net)
    c1 = compose_decentralized(bank)
    c2 = compose_decentralized(bank)
    assert c1 == c2
    assert iso_check(c1, c2) is not None
