"""Core machine model: construction rules, stepping, language.

The word helpers the composition tests use as references, ``extended_delta``
and ``project_word`` from ``tests/oracles.py``, are pinned here as well.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critnet import (
    Fsm,
    InvalidInputError,
    MalformedFsmError,
    in_language,
    step,
)
from genutil import random_fsm
from oracles import estimates_by_word, extended_delta, naive_step, project_word

ROOT = Path(__file__).resolve().parent.parent

# Prints every table a network yields: members, product, refinement classes.
_TABLES_SCRIPT = """
import sys
from critnet import compose_network, parse_network
from critnet.equivalence import _refinement_classes
net = parse_network(open(sys.argv[1]).read())
print([m.int_moves() for m in net.machines])
print(compose_network(net).int_moves())
print(_refinement_classes(net.machines))
"""


class TestConstruction:
    def test_basic_fields(self, fsm_a):
        assert fsm_a.states == frozenset({"p", "q"})
        assert fsm_a.initial == frozenset({"p"})
        assert fsm_a.alphabet == frozenset({"a", "b"})
        assert fsm_a.critical == frozenset({"q"})
        assert fsm_a.succ("p", "a") == frozenset({"q"})
        assert fsm_a.succ("q", "a") == frozenset()
        # Names outside the machine, before, between and after its own.
        for missing in ("a", "pp", "z"):
            assert fsm_a.succ(missing, "a") == frozenset()

    def test_a_state_that_is_not_a_string_has_no_successors(self, fsm_a):
        # A machine only holds string states; anything else is just absent.
        for missing in (3, None, ("p",), b"p"):
            assert fsm_a.succ(missing, "a") == frozenset()
        assert step(fsm_a, [None], "a") == frozenset()
        assert step(fsm_a, [None, "p"], "a") == frozenset({"q"})

    def test_state_names_must_be_strings(self):
        with pytest.raises(MalformedFsmError) as caught:
            Fsm(["p", 1], ["p"], ["a"], [])
        assert str(caught.value) == "state name 1 is not a string"

    def test_labels_must_be_strings(self):
        with pytest.raises(MalformedFsmError) as caught:
            Fsm(["p"], ["p"], [1], [("p", 1, "p")])
        assert str(caught.value) == "label 1 is not a string"

    def test_never_equal_to_a_non_machine(self, fsm_a):
        assert fsm_a.__eq__("p") is NotImplemented
        assert fsm_a != "p" and not fsm_a == fsm_a.int_moves()

    def test_repr(self, fsm_a):
        assert repr(fsm_a) == "Fsm(states=2, initial=['p'], alphabet=['a', 'b'], critical=['q'])"

    def test_transitions_canonical_order(self, fsm_b):
        assert list(fsm_b.transitions()) == [("r", "a", "s"), ("r", "a", "t")]

    def test_duplicate_transitions_collapse(self):
        m = Fsm(["x"], ["x"], ["a"], [("x", "a", "x"), ("x", "a", "x")])
        assert list(m.transitions()) == [("x", "a", "x")]

    def test_repeats_collapse_among_other_targets(self):
        moves = [("x", "a", "y"), ("x", "a", "x"), ("x", "b", "y"), ("x", "a", "y"), ("x", "a", "x")]
        m = Fsm(["x", "y"], ["x"], ["a", "b"], moves)
        assert m.int_moves()[1] == ({"a": (0, 1), "b": (1,)}, {})

    def test_the_first_bad_transition_in_input_order_is_named(self):
        # The later triple sorts first, yet the message names the earlier one.
        with pytest.raises(MalformedFsmError) as caught:
            Fsm(["x"], ["x"], ["a"], [("x", "a", "z"), ("w", "a", "x")])
        assert str(caught.value) == "transition target 'z' not in state set"
        with pytest.raises(MalformedFsmError) as caught:
            Fsm(["x"], ["x"], ["a"], [("x", "b", "x"), ("x", "a", "x"), ("a", "a", "x")])
        assert str(caught.value) == "transition label 'b' not in alphabet"

    def test_a_generator_of_transitions_is_consumed_once(self):
        drawn = []

        def moves(triples):
            for t in triples:
                drawn.append(t)
                yield t

        good = [("x", "a", "y"), ("y", "a", "x"), ("x", "a", "y")]
        m = Fsm(["x", "y"], ["x"], ["a"], moves(good))
        assert drawn == good
        assert list(m.transitions()) == [("x", "a", "y"), ("y", "a", "x")]
        # The first bad triple in input order is named, and none is drawn twice.
        drawn.clear()
        bad = [("x", "a", "x"), ("q", "a", "x"), ("b", "a", "x")]
        with pytest.raises(MalformedFsmError) as caught:
            Fsm(["x"], ["x"], ["a"], moves(bad))
        assert str(caught.value) == "transition source 'q' not in state set"
        assert drawn == bad[: len(drawn)]

    @pytest.mark.parametrize(
        "moves, message",
        [
            ([("x", "a", "x"), (1, "a", "x")], "transition source 1 not in state set"),
            ([("x", "a", "x"), ("x", "a", None)], "transition target None not in state set"),
            ([("x", 2, "x"), ("x", "a", "x")], "transition label 2 not in alphabet"),
        ],
    )
    def test_a_triple_that_does_not_sort_gets_the_checks_message(self, moves, message):
        # Sorting a string against an int or None raises TypeError; the
        # constructor still names the bad triple as a malformed machine.
        with pytest.raises(MalformedFsmError) as caught:
            Fsm(["x"], ["x"], ["a"], moves)
        assert str(caught.value) == message

    def test_lists_and_tuples_mixed_still_build(self):
        m = Fsm(["x", "y"], ["x"], ["a"], [["x", "a", "y"], ("x", "a", "x"), ("x", "a", "y")])
        assert m.int_moves()[1] == ({"a": (0, 1)}, {})

    def test_empty_states_rejected(self):
        with pytest.raises(MalformedFsmError):
            Fsm([], [], ["a"], [])

    def test_empty_initial_rejected(self):
        with pytest.raises(MalformedFsmError):
            Fsm(["x"], [], ["a"], [])

    def test_initial_outside_states_rejected(self):
        with pytest.raises(MalformedFsmError, match="initial"):
            Fsm(["x"], ["y"], ["a"], [])
        # Strays of mixed types cannot be compared; they are named all the same.
        with pytest.raises(MalformedFsmError) as caught:
            Fsm(["p"], ["p", 1, "x"], ["a"], [])
        assert str(caught.value) == "initial states [1, 'x'] not in state set"

    def test_critical_outside_states_rejected(self):
        with pytest.raises(MalformedFsmError, match="critical"):
            Fsm(["x"], ["x"], ["a"], [], critical=["y"])
        with pytest.raises(MalformedFsmError) as caught:
            Fsm(["p"], ["p"], ["a"], [], ["q", 2])
        assert str(caught.value) == "critical states [2, 'q'] not in state set"

    def test_mixed_initial_criticality_rejected(self):
        with pytest.raises(MalformedFsmError, match="all critical or all non-critical"):
            Fsm(["x", "y"], ["x", "y"], ["a"], [], critical=["x"])

    def test_all_critical_initials_allowed(self):
        m = Fsm(["x", "y"], ["x", "y"], ["a"], [], critical=["x", "y"])
        assert m.initial <= m.critical

    def test_bad_transition_endpoints_rejected(self):
        with pytest.raises(MalformedFsmError, match="source"):
            Fsm(["x"], ["x"], ["a"], [("z", "a", "x")])
        with pytest.raises(MalformedFsmError, match="target"):
            Fsm(["x"], ["x"], ["a"], [("x", "a", "z")])
        with pytest.raises(MalformedFsmError, match="label"):
            Fsm(["x"], ["x"], ["a"], [("x", "b", "x")])

    def test_eps_label_reserved(self):
        with pytest.raises(MalformedFsmError, match="eps"):
            Fsm(["x"], ["x"], ["eps"], [])

    def test_empty_label_rejected(self):
        with pytest.raises(MalformedFsmError):
            Fsm(["x"], ["x"], [""], [])

    def test_empty_state_name_rejected(self):
        with pytest.raises(MalformedFsmError):
            Fsm(["", "x"], ["x"], ["a"], [])

    def test_labels_without_transitions_allowed(self):
        m = Fsm(["x"], ["x"], ["a", "b"], [("x", "a", "x")])
        assert m.alphabet == frozenset({"a", "b"})
        assert m.succ("x", "b") == frozenset()

    def test_equality_ignores_input_order(self):
        m1 = Fsm(["x", "y"], ["x"], ["a"], [("x", "a", "y"), ("x", "a", "x")])
        m2 = Fsm(["y", "x"], ["x"], ["a"], [("x", "a", "x"), ("x", "a", "y")])
        assert m1 == m2
        assert hash(m1) == hash(m2)

    def test_inequality_on_critical(self):
        m1 = Fsm(["x", "y"], ["x"], ["a"], [("x", "a", "y")])
        m2 = Fsm(["x", "y"], ["x"], ["a"], [("x", "a", "y")], critical=["y"])
        assert m1 != m2

    def test_equality_compares_alphabet_and_table(self):
        m1 = Fsm(["x", "y"], ["x"], ["a"], [("x", "a", "y")])
        m2 = Fsm(["y", "x"], ["x"], ["a"], [("x", "a", "y")])
        assert m1.int_moves() == m2.int_moves()
        assert m1 == m2 and hash(m1) == hash(m2)
        assert m1 != Fsm(["x", "y"], ["x"], ["a"], [("x", "a", "x")])
        # A label without moves leaves the table as it is, not the machine.
        m3 = Fsm(["x", "y"], ["x"], ["a", "b"], [("x", "a", "y")])
        assert m3.int_moves() == m1.int_moves() and m3 != m1

    def test_int_moves_built_on_first_use(self):
        m = Fsm(
            ["x", "y", "z"],
            ["x"],
            ["a", "b"],
            [("x", "b", "y"), ("x", "a", "y"), ("x", "a", "z"), ("z", "b", "x")],
            critical=["z"],
        )
        assert m._table is not None and m.int_moves() is m.int_moves()
        states, moves, flags = m.int_moves()
        assert m.int_moves()[1] is moves
        index = {x: i for i, x in enumerate(states)}
        assert sorted(states) == ["x", "y", "z"]
        assert moves[index["x"]] == {
            "a": tuple(sorted(index[y] for y in m.succ("x", "a"))),
            "b": (index["y"],),
        }
        assert list(moves[index["x"]]) == ["a", "b"]
        assert moves[index["y"]] == {} and moves[index["z"]] == {"b": (index["x"],)}
        assert [flags[index[x]] for x in "xyz"] == [(False, True), (False, False), (True, False)]


class TestStateIds:
    def test_constructor_numbers_states_in_sorted_name_order(self):
        m = Fsm(["z", "x", "y"], ["y"], ["b", "a"], [("z", "b", "x"), ("z", "a", "y"), ("z", "a", "x")])
        names, rows, flags = m.int_moves()
        assert names == ("x", "y", "z")
        assert rows == ({}, {}, {"a": (0, 1), "b": (0,)})
        assert flags == ((False, False), (False, True), (False, False))

    def test_tables_do_not_depend_on_the_hash_seed(self):
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
            done = subprocess.run(
                [sys.executable, "-c", _TABLES_SCRIPT, str(ROOT / "demos" / "data" / "line.net")],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
                check=True,
            )
            outputs.add(done.stdout)
        assert len(outputs) == 1


class TestStepping:
    def test_step_on_fixture_a(self, fsm_a):
        assert step(fsm_a, {"p"}, "a") == frozenset({"q"})
        assert step(fsm_a, {"p"}, "b") == frozenset()
        assert step(fsm_a, {"p", "q"}, "a") == frozenset({"q"})

    def test_extended_delta_empty_word(self, fsm_a):
        assert extended_delta(fsm_a, {"p"}, ()) == frozenset({"p"})

    def test_extended_delta_fixture_a(self, fsm_a):
        assert extended_delta(fsm_a, fsm_a.initial, ("a",)) == frozenset({"q"})
        assert extended_delta(fsm_a, fsm_a.initial, ("a", "b")) == frozenset({"p"})
        assert extended_delta(fsm_a, fsm_a.initial, ("a", "a")) == frozenset()

    def test_extended_delta_fixture_b(self, fsm_b):
        assert extended_delta(fsm_b, fsm_b.initial, ("a",)) == frozenset({"s", "t"})
        assert extended_delta(fsm_b, fsm_b.initial, ("a", "a")) == frozenset()

    def test_in_language(self, fsm_a, fsm_b):
        assert in_language(fsm_a, ())
        assert in_language(fsm_a, ("a", "b", "a"))
        assert not in_language(fsm_a, ("b",))
        assert in_language(fsm_b, ("a",))
        assert not in_language(fsm_b, ("a", "a"))

    def test_in_language_rejects_foreign_label(self, fsm_a):
        with pytest.raises(InvalidInputError):
            in_language(fsm_a, ("z",))
        # A foreign label is rejected even after the word has left the language.
        with pytest.raises(InvalidInputError):
            in_language(fsm_a, ("b", "z"))


class TestProjection:
    def test_project_word_examples(self):
        assert project_word(("a", "b", "a"), {"a"}) == ("a", "a")
        assert project_word(("a", "b", "a"), {"b"}) == ("b",)
        assert project_word(("a", "b"), {"c"}) == ()
        assert project_word((), {"a"}) == ()

    @given(
        st.lists(st.sampled_from("abcd"), max_size=12),
        st.sets(st.sampled_from("abcd")),
    )
    def test_project_word_idempotent_and_ordered(self, word, keep):
        out = project_word(tuple(word), keep)
        assert project_word(out, keep) == out
        assert all(label in keep for label in out)
        # Order preservation: out is a subsequence of word.
        it = iter(word)
        assert all(any(label == w for w in it) for label in out)


class TestRandomizedAgainstOracles:
    def test_extended_delta_matches_word_enumeration(self):
        rng = random.Random(101)
        for _ in range(40):
            m = random_fsm(rng, max_states=4)
            table = estimates_by_word(m, max_len=4)
            for word, est in table.items():
                assert extended_delta(m, m.initial, word) == est
                assert in_language(m, word)
                if len(word) < 4:
                    for label in m.alphabet:
                        assert in_language(m, word + (label,)) == (word + (label,) in table)

    def test_step_matches_naive_union(self):
        rng = random.Random(102)
        for _ in range(40):
            m = random_fsm(rng, max_states=5)
            states = frozenset(rng.sample(sorted(m.states), rng.randint(1, len(m.states))))
            for label in m.alphabet:
                assert step(m, states, label) == naive_step(m, states, label)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_fsm_generator_is_well_formed(seed):
    rng = random.Random(seed)
    m = random_fsm(rng)
    assert m.initial <= m.states
    assert m.critical <= m.states
    assert m.initial <= m.critical or not (m.initial & m.critical)
