"""Text formats: network documents, observer documents, DOT export."""

from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critnet import (
    FormatError,
    Fsm,
    Network,
    ObserverFsm,
    build_decentralized,
    build_observer,
    compose_decentralized,
    compose_network,
    export_dot,
    parse_network,
    parse_observers,
    serialize_network,
    serialize_observer,
)
from critnet import netio
from critnet.compose import split_commas
from critnet.netio import dot_documents, observer_documents
from genutil import random_network, renamed

NET_AB_DOC = """\
# two members, one shared label
fsm A
  states p q
  initial p
  alphabet a b
  critical q
  trans p a q
  trans q b p

fsm B
  states r s t
  initial r
  alphabet a
  critical t
  trans r a s
  trans r a t
"""


class TestWords:
    """"eps" is reserved for the empty word, so no document may use it as a label."""

    def test_eps_not_a_label(self):
        doc = "fsm A\n  states p\n  initial p\n  alphabet a eps\n"
        with pytest.raises(FormatError, match="fsm 'A': label 'eps' is reserved"):
            parse_network(doc)

    def test_eps_not_an_observer_label(self):
        doc = "observer A\n  states {p}\n  initial {p}\n  alphabet a eps\n"
        with pytest.raises(FormatError, match="observer 'A': label 'eps' is reserved"):
            parse_observers(doc)


class TestParseNetwork:
    def test_fixture_document(self, net_ab):
        assert parse_network(NET_AB_DOC) == net_ab

    def test_directives_accumulate(self):
        doc = """
        fsm M
          states x
          states y
          initial x
          alphabet a
          trans x a y
        """
        net = parse_network(doc)
        assert net.get("M").states == frozenset({"x", "y"})

    def test_comments_and_blanks_ignored(self):
        doc = "# header\n\nfsm M\n  # inner comment\n  states x\n  initial x\n"
        net = parse_network(doc)
        assert net.names == ("M",)
        assert net.get("M").alphabet == frozenset()

    def test_duplicate_transition_line_rejected(self):
        doc = "fsm M\n  states x\n  initial x\n  alphabet a\n  trans x a x\n  trans x a x\n"
        with pytest.raises(FormatError, match="line 6.*duplicate transition"):
            parse_network(doc)

    def test_unknown_directive(self):
        with pytest.raises(FormatError, match="line 2.*unknown directive"):
            parse_network("fsm M\n  wobble x\n")

    def test_directive_before_section(self):
        with pytest.raises(FormatError, match="before any fsm"):
            parse_network("states x\n")

    def test_empty_document(self):
        with pytest.raises(FormatError, match="no fsm sections"):
            parse_network("# nothing here\n")

    def test_duplicate_member_names(self):
        doc = "fsm M\n  states x\n  initial x\nfsm M\n  states y\n  initial y\n"
        with pytest.raises(FormatError, match="duplicate member name"):
            parse_network(doc)

    def test_structural_error_names_the_member(self):
        doc = "fsm M\n  states x y\n  initial x y\n  critical x\n"
        with pytest.raises(FormatError, match="line 1.*fsm 'M'.*all critical"):
            parse_network(doc)

    def test_missing_initial_reported(self):
        with pytest.raises(FormatError, match="fsm 'M'"):
            parse_network("fsm M\n  states x\n")

    def test_forbidden_characters_rejected(self):
        with pytest.raises(FormatError, match="forbidden"):
            parse_network('fsm M\n  states x"y\n  initial x"y\n')

    def test_fsm_needs_exactly_one_name(self):
        with pytest.raises(FormatError, match="exactly one name"):
            parse_network("fsm A B\n")

    def test_trans_arity(self):
        with pytest.raises(FormatError, match="source, label, target"):
            parse_network("fsm M\n  states x\n  initial x\n  trans x a\n")


def _parse_error(doc: str) -> FormatError:
    with pytest.raises(FormatError) as caught:
        parse_network(doc)
    return caught.value


class TestParseErrorsPinned:
    """Exact message and line of errors whose tokens recur in the document."""

    def test_repeated_bad_state_fails_at_its_first_line(self):
        doc = (
            "fsm M\n  states p\n  initial p\n  alphabet a\n"
            "  trans p a (q\n  states (q\n  trans (q a p\n"
        )
        e = _parse_error(doc)
        assert e.line == 5
        assert str(e) == "line 5: unbalanced parentheses in '(q'"

    def test_repeated_bad_state_in_a_later_section(self):
        doc = (
            "fsm A\n  states p\n  initial p\n"
            "fsm B\n  states x,y\n  initial x,y\n"
        )
        e = _parse_error(doc)
        assert e.line == 5
        assert str(e) == "line 5: state 'x,y' has a comma outside parentheses"

    def test_label_token_still_checked_as_a_state(self):
        doc = (
            "fsm M\n  alphabet x,y\n  states p\n  initial p\n"
            "  trans p x,y p\n  states x,y\n"
        )
        e = _parse_error(doc)
        assert e.line == 6
        assert str(e) == "line 6: state 'x,y' has a comma outside parentheses"

    def test_state_token_still_checked_as_a_label(self):
        doc = "fsm M\n  states p\n  initial p\n  alphabet {p}\n"
        e = _parse_error(doc)
        assert e.line == 4
        assert str(e) == "line 4: label '{p}' contains forbidden ['{', '}']"

    def test_duplicate_transition_names_its_second_line(self):
        doc = (
            "fsm A\n  states x\n  initial x\n  alphabet a\n  trans x a x\n"
            "fsm B\n  states x\n  initial x\n  alphabet a\n  trans x a x\n"
            "  states y\n  trans x a x\n"
        )
        e = _parse_error(doc)
        assert e.line == 12
        assert str(e) == "line 12: duplicate transition x a x"

    def test_transitions_before_states_parse(self):
        early = "fsm M\n  trans x a y\n  trans y a x\n  alphabet a\n  states x y\n  initial x\n"
        late = "fsm M\n  states x y\n  initial x\n  alphabet a\n  trans x a y\n  trans y a x\n"
        assert parse_network(early) == parse_network(late)

    def test_transitions_before_states_fail_at_the_section(self):
        doc = "fsm A\n  states p\n  initial p\nfsm M\n  trans x a z\n  alphabet a\n  states x\n  initial x\n"
        e = _parse_error(doc)
        assert e.line == 4
        assert str(e) == "line 4: fsm 'M': transition target 'z' not in state set"


class TestParsedTables:
    def test_parsed_table_equals_the_constructors(self):
        rng = random.Random(703)
        for _ in range(40):
            net = random_network(rng, max_members=3, max_states=5)
            for m in parse_network(serialize_network(net)).machines:
                states, trans = sorted(m.states), list(m.transitions())
                rng.shuffle(states)
                rng.shuffle(trans)
                again = Fsm(states, m.initial, m.alphabet, trans, m.critical)
                assert again.int_moves() == m.int_moves()
                assert list(m.int_moves()[0]) == sorted(m.states)


class TestSerializeNetwork:
    def test_fixture_bytes(self, net_ab):
        assert serialize_network(net_ab) == NET_AB_DOC.replace(
            "# two members, one shared label\n", ""
        )

    def test_round_trip_identity(self, net_ab):
        assert parse_network(serialize_network(net_ab)) == net_ab

    def test_byte_stability(self, net_ab):
        text = serialize_network(net_ab)
        assert serialize_network(parse_network(text)) == text

    def test_random_round_trips(self):
        rng = random.Random(701)
        for _ in range(40):
            net = random_network(rng, max_members=3, max_states=4)
            text = serialize_network(net)
            again = parse_network(text)
            assert again == net
            assert serialize_network(again) == text

    def test_empty_sections_omitted(self):
        m = Fsm(["x"], ["x"], [], [])
        text = serialize_network(Network((("M", m),)))
        assert "alphabet" not in text
        assert "critical" not in text
        assert parse_network(text) == Network((("M", m),))

    def test_unserializable_token_rejected(self):
        m = Fsm(['x"y'], ['x"y'], [], [])
        with pytest.raises(FormatError, match="forbidden"):
            serialize_network(Network((("M", m),)))

    @pytest.mark.parametrize("label", ["x y", "x#", "{x}"])
    def test_unserializable_label_rejected(self, label):
        # An observer document with such a label would not parse back.
        m = Fsm(["p"], ["p"], [label], [("p", label, "p")])
        with pytest.raises(FormatError, match="forbidden"):
            serialize_network(Network((("M", m),)))
        with pytest.raises(FormatError, match="forbidden"):
            serialize_observer("M", build_observer(m))

    def test_composed_state_names_survive(self, net_ab):
        composed = Network((("composed", compose_network(net_ab)),))
        assert parse_network(serialize_network(composed)) == composed


class TestObserverDocuments:
    def test_fixture_observer_bytes(self, fsm_a):
        text = serialize_observer("A", build_observer(fsm_a))
        assert text == (
            "observer A\n"
            "  states {p} {q}\n"
            "  initial {p}\n"
            "  alphabet a b\n"
            "  flag {q}\n"
            "  trans {p} a {q}\n"
            "  trans {q} b {p}\n"
        )

    def test_round_trip(self, fsm_a, fsm_b):
        for name, m in (("A", fsm_a), ("B", fsm_b)):
            obs = build_observer(m)
            parsed = parse_observers(serialize_observer(name, obs))
            assert parsed == ((name, obs),)

    def test_multi_observer_document(self, fsm_a, fsm_b):
        doc = "\n".join(
            serialize_observer(n, build_observer(m))
            for n, m in (("A", fsm_a), ("B", fsm_b))
        )
        parsed = parse_observers(doc)
        assert tuple(n for n, _ in parsed) == ("A", "B")

    def test_estimates_with_composed_names(self, net_ab):
        obs = build_observer(compose_network(net_ab))
        text = serialize_observer("AB", obs)
        assert "{(p,r)}" in text
        (name, again), = parse_observers(text)
        assert name == "AB" and again == obs

    def test_copies_get_the_one_member_documents(self, fsm_a, fsm_b):
        a, b = build_observer(fsm_a), build_observer(fsm_b)
        locals_ = [("A", a), ("B", b), ("A2", a), ('say "A"\\', a)]
        assert observer_documents(locals_[:3]) == [serialize_observer(n, o) for n, o in locals_[:3]]
        assert dot_documents(locals_) == [export_dot(o, n) for n, o in locals_]

    @pytest.mark.parametrize("bad", ["", "two words", "a{b}", "#x"])
    def test_a_copy_with_a_bad_name_fails_as_it_does_alone(self, bad, fsm_a):
        obs = build_observer(fsm_a)
        with pytest.raises(FormatError) as alone:
            serialize_observer(bad, obs)
        with pytest.raises(FormatError) as copy:
            observer_documents([("A", obs), (bad, obs)])
        assert str(copy.value) == str(alone.value)

    def test_nondeterministic_transition_rejected(self):
        doc = (
            "observer O\n  states {x} {y}\n  initial {x}\n  alphabet a\n"
            "  trans {x} a {y}\n  trans {x} a {x}\n"
        )
        with pytest.raises(FormatError, match="deterministic"):
            parse_observers(doc)

    def test_exactly_one_initial(self):
        doc = "observer O\n  states {x} {y}\n  initial {x} {y}\n  alphabet a\n"
        with pytest.raises(FormatError, match="exactly one initial"):
            parse_observers(doc)

    def test_flag_must_be_declared(self):
        doc = "observer O\n  states {x}\n  initial {x}\n  flag {y}\n"
        with pytest.raises(FormatError, match="undeclared"):
            parse_observers(doc)

    def test_empty_observer_name_rejected(self, fsm_a):
        with pytest.raises(FormatError) as caught:
            serialize_observer("", build_observer(fsm_a))
        assert str(caught.value) == "empty observer name"

    def test_unbalanced_estimate_names_its_line(self):
        with pytest.raises(FormatError) as caught:
            parse_observers("observer O\n  states {(p}\n")
        assert caught.value.line == 2
        assert str(caught.value) == "line 2: unbalanced parentheses in '{(p}'"

    def test_estimate_token_shapes(self):
        for bad in ("x", "{}", "{x", "x}", "{x,}", "{,x}"):
            doc = f"observer O\n  states {bad}\n  initial {bad}\n"
            with pytest.raises(FormatError):
                parse_observers(doc)

    def test_unreachable_state_reported_with_name(self):
        doc = "observer O\n  states {x} {y}\n  initial {x}\n  alphabet a\n"
        with pytest.raises(FormatError, match="observer 'O'.*unreachable"):
            parse_observers(doc)

    def test_composed_bank_not_serializable(self, net_ab):
        bank = compose_decentralized(build_decentralized(net_ab))
        with pytest.raises(FormatError, match="composed banks"):
            serialize_observer("bank", bank)

    def test_random_observer_round_trips(self):
        from genutil import random_fsm

        rng = random.Random(702)
        for _ in range(30):
            m = random_fsm(rng, max_states=4)
            obs = build_observer(m)
            text = serialize_observer("O", obs)
            (name, again), = parse_observers(text)
            assert again == obs
            assert serialize_observer("O", again) == text

    def test_repeated_malformed_estimate_fails_at_its_first_line(self):
        doc = (
            "observer O\n  states {x}\n  initial {x}\n  alphabet a\n"
            "  trans {x} a {x,}\n  trans {x,} a {x}\n"
        )
        with pytest.raises(FormatError, match="empty component") as err:
            parse_observers(doc)
        assert err.value.line == 5

    def test_repeated_estimates_parse_and_round_trip(self):
        # Every token occurs on several lines; "{q,p}" spells "{p,q}" anew.
        doc = (
            "observer O\n"
            "  states {p} {p,q}\n"
            "  initial {p}\n"
            "  alphabet a b\n"
            "  flag {p,q}\n"
            "  trans {p} a {p,q}\n"
            "  trans {p,q} a {p,q}\n"
            "  trans {p,q} b {p}\n"
        )
        (name, obs), = parse_observers(doc)
        pq = frozenset({"p", "q"})
        assert obs.states == (frozenset({"p"}), pq)
        assert obs.flags == [0, 1]
        assert obs.rows == [{"a": 1}, {"a": 1, "b": 0}]
        assert serialize_observer(name, obs) == doc
        respelled = doc.replace("trans {p,q} b", "trans {q,p} b")
        assert parse_observers(respelled) == ((name, obs),)


class TestKnownObserverDocuments:
    """``parse_observers(text, known)``: one parse per distinct body after an exact header."""

    BODY = "  states {p} {q}\n  initial {p}\n  alphabet a\n  flag {q}\n  trans {p} a {q}\n"

    def test_a_repeated_body_is_parsed_once(self):
        known: dict = {}
        (a, obs), = parse_observers("observer A\n" + self.BODY, known)
        (b, again), = parse_observers("observer B\n" + self.BODY, known)
        assert (a, b) == ("A", "B") and again is obs
        assert known == {self.BODY: obs}
        assert parse_observers("observer B\n" + self.BODY) == (("B", obs),)

    @pytest.mark.parametrize(
        "head",
        [
            "observer a#b\n",  # exact, so reused, but the name still fails at line 1
            "observer A B\n",
            "observer\n",
            "# note\nobserver A\n",
            "# note\nobserver a#b\n",
            "\nobserver A\n",
            "observer  A\n",
            "observer\tA\n",
            " observer A\n",
            "observer A \n",
            "observer A\r\n",
            "observer\rA\n",
            "observer A\x85B\n",
            "observer A\n  states {r}\nobserver B\n",
        ],
    )
    def test_any_other_document_parses_as_it_does_alone(self, head):
        known: dict = {}
        (_, obs), = parse_observers("observer A\n" + self.BODY, known)
        doc = head + self.BODY
        try:
            alone = parse_observers(doc)
        except FormatError as e:
            with pytest.raises(FormatError) as caught:
                parse_observers(doc, known)
            assert (str(caught.value), caught.value.line) == (str(e), e.line)
        else:
            got = parse_observers(doc, known)
            assert got == alone and all(o is not obs for _, o in got)
        assert known == {self.BODY: obs}

    def test_crlf_documents_are_parsed_in_full(self):
        known: dict = {}
        crlf = self.BODY.replace("\n", "\r\n")
        (_, obs), = parse_observers("observer A\r\n" + crlf, known)
        assert known == {}
        (_, again), = parse_observers("observer B\r\n" + crlf, known)
        assert again == obs and again is not obs
        with pytest.raises(FormatError) as caught:
            parse_observers("observer a#b\r\n" + crlf, known)
        assert caught.value.line == 1
        assert str(caught.value) == "line 1: observer name 'a#b' contains forbidden ['#']"

    def test_only_one_section_documents_are_kept(self):
        known: dict = {}
        two = "observer A\n" + self.BODY + "observer B\n" + self.BODY
        assert len(parse_observers(two, known)) == 2
        assert known == {}
        # A failed document leaves nothing behind either.
        with pytest.raises(FormatError, match="duplicate observer name 'A'"):
            parse_observers("observer A\n" + self.BODY + "observer A\n" + self.BODY, known)
        assert known == {}


def _two_state_doc(u: str, v: str) -> str:
    """A member whose observer reaches the two-state estimate {u,v}."""
    return (
        f"fsm M\n  states {u} {v}\n  initial {u}\n  alphabet a b\n  critical {v}\n"
        f"  trans {u} a {u}\n  trans {u} a {v}\n  trans {v} b {u}\n"
    )


class TestStateTokens:
    @pytest.mark.parametrize(
        "bad", ["a,b", ",a", "(a", "a)", ")a(", "(a),b", "(a,b))", ")(", "(()", "x,y"]
    )
    def test_rejected_at_parse(self, bad):
        with pytest.raises(FormatError, match="comma|unbalanced"):
            parse_network(_two_state_doc(bad, "v"))
        with pytest.raises(FormatError, match="comma|unbalanced"):
            parse_network(_two_state_doc("u", "v") + f"  trans u a {bad}\n")

    def test_rejected_at_serialize(self):
        m = Fsm(["a,b", "c"], ["c"], ["a"], [("c", "a", "a,b"), ("c", "a", "c")])
        with pytest.raises(FormatError, match="comma"):
            serialize_network(Network((("M", m),)))
        with pytest.raises(FormatError, match="comma"):
            serialize_observer("M", build_observer(m))

    @pytest.mark.parametrize(
        "token, problem",
        [
            (")(", "unbalanced parentheses in ')('"),
            ("(()", "unbalanced parentheses in '(()'"),
            ("a(b,c)d", None),
            ("(,)", None),
            ("()", None),
            ("x,y", "state 'x,y' has a comma outside parentheses"),
        ],
    )
    def test_state_check_messages(self, token, problem):
        doc = _two_state_doc(token, "v")
        if problem is None:
            net = parse_network(doc)
            assert parse_network(serialize_network(net)) == net
        else:
            with pytest.raises(FormatError, match="^line 2: " + re.escape(problem) + "$"):
                parse_network(doc)

    def test_product_names_accepted(self):
        net = parse_network(_two_state_doc("(x,y)", "(x,(y,z))"))
        obs = build_observer(net.get("M"))
        assert "{(x,(y,z)),(x,y)}" in serialize_observer("M", obs)

    def test_shortcut_check_matches_the_full_scan(self):
        # Every token up to six characters over brackets, a comma, forbidden
        # characters and two kinds of space: the check with its shortcut for
        # plain and flat product names accepts and refuses as the full scan
        # does, with the same message.
        tokens = [""]
        for size in range(1, 7):
            tokens += map("".join, itertools.product("a(),#{ \u00a0", repeat=size))
        assert len(tokens) == sum(8**k for k in range(7))
        want = _outcomes(_full_state_check, tokens)
        assert _outcomes(netio._check_state, tokens) == want
        # Tokens hold no letter but "a", so each word counts one kind of refusal.
        refused = "\n".join(x[0] for x in want if x.__class__ is tuple)
        kinds = [refused.count(w) for w in ("forbidden", "unbalanced", "comma outside")]
        assert refused.count("empty") == 1 and min(kinds) > 100, kinds
        assert len(tokens) - refused.count("\n") - 1 > 100  # accepted

    def test_product_shaped_tokens_match_the_full_scan(self):
        # Flat product names skip the scan when their parts, commas read as
        # underscores, make an identifier, so parts here are what decides
        # that: a digit, an underscore, a non-ASCII letter, a hyphen, the
        # empty part, a no-break space and brackets. Nested forms put a flat
        # name inside another, first or last.
        parts = ["a", "_", "1", "\u00e9", "-", "", "\u00a0", "(", ")"]
        flat = [
            "(" + ",".join(x) + ")" for k in range(1, 4) for x in itertools.product(parts, repeat=k)
        ]
        tokens = flat + [f"(({x}))" for x in flat]
        for x, y in itertools.product(flat, parts):
            tokens += (f"({x},{y})", f"({y},{x})")
        want = _outcomes(_full_state_check, tokens)
        assert _outcomes(netio._check_state, tokens) == want
        accepted = {x for x, y in zip(tokens, want) if x == y}
        assert {"(a,_,\u00e9)", "(1,a)", "(_,1)", "((a,1),a)"} <= accepted
        assert {"(a\u00a0)", "(a,()", "((a),-))"}.isdisjoint(accepted)
        assert 1000 < len(accepted) < len(tokens) - 1000


def _full_state_check(token: str, line: int | None = None) -> str:
    """``netio._check_state`` as it was before its shortcut: every token is scanned."""
    netio._check_token(token, "state", line)
    if "(" not in token and ")" not in token and "," not in token:
        return token
    if token[0] == "(" and token[-1] == ")" and token.count("(") == 1 == token.count(")"):
        return token
    parts = split_commas(token, "(", ")")
    if parts is None:
        raise FormatError(f"unbalanced parentheses in {token!r}", line)
    if len(parts) > 1:
        raise FormatError(f"state {token!r} has a comma outside parentheses", line)
    return token


def _outcomes(check, tokens: list[str]) -> list:
    """Per token, what ``check`` returns, or the arguments of the ``FormatError`` it raises."""
    outcomes = []
    push = outcomes.append
    for token in tokens:
        try:
            push(check(token))
        except FormatError as e:
            push(e.args)
    return outcomes


STATE_TOKENS = st.text("ab(),", min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(STATE_TOKENS, min_size=2, max_size=2, unique=True))
def test_accepted_state_tokens_round_trip(tokens):
    # Whatever state token the network parser lets in must come back
    # unchanged from an observer document, including inside {u,v}.
    try:
        net = parse_network(_two_state_doc(*tokens))
    except FormatError:
        return
    assert parse_network(serialize_network(net)) == net
    obs = build_observer(net.get("M"))
    assert parse_observers(serialize_observer("M", obs)) == (("M", obs),)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_parsed_machines_equal_the_constructor_on_shuffled_triples(seed):
    # The parser hands the constructor its moves in document order; any
    # order of the same triples, repeats included, gives the same table.
    rng = random.Random(seed)
    net = random_network(rng, max_members=3)
    # Prefixes of mixed length reorder sorted names against the generator's.
    net = Network([
        (name, renamed(m, {x: f"{rng.randint(0, 120)}{x}" for x in m.states}))
        for name, m in net.members
    ])
    parsed = parse_network(serialize_network(net))
    assert parsed.names == net.names
    for m, p in zip(net.machines, parsed.machines):
        triples = list(m.transitions())
        triples += rng.choices(triples, k=len(triples) // 2) if triples else []
        rng.shuffle(triples)
        states = sorted(m.states)
        rng.shuffle(states)
        built = Fsm(states, m.initial, m.alphabet, triples, m.critical)
        assert p.int_moves() == built.int_moves()
        assert p.alphabet == built.alphabet


# Characters besides space, tab, CR and LF that the reader splits lines or
# tokens on; str.isspace() holds for each.
SPLITTING = ["\xa0", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028"]


@pytest.mark.parametrize("where", ["state", "label", "name"])
@pytest.mark.parametrize("ch", SPLITTING)
def test_writers_refuse_what_the_reader_splits(where, ch):
    bad = f"a{ch}b"
    state, label, name = (
        bad if where == w else ok for w, ok in (("state", "p"), ("label", "a"), ("name", "M"))
    )
    m = Fsm([state], [state], [label], [(state, label, state)])
    for write, noun in (
        (lambda: serialize_network(Network(((name, m),))), "member name"),
        (lambda: serialize_observer(name, build_observer(m)), "observer name"),
    ):
        with pytest.raises(FormatError) as caught:
            write()
        what = noun if where == "name" else where
        assert str(caught.value) == f"{what} {bad!r} contains forbidden [{ch!r}]"
        assert caught.value.line is None


# Both formats share one grammar; {h} is the section header, {n} what its
# name names. Each case: document, message, line.
SHARED_GRAMMAR = [
    ("{h} A B\n", "{h} takes exactly one name", 1),
    ("{h} M\n  states {x}\n{h} M\n", "duplicate {n} name 'M'", 3),
    ("# first\n  states {x}\n{h} M\n", "'states' before any {h} section", 2),
    ("{h} M\n  wobble x\n", "unknown directive 'wobble'", 2),
    ("# nothing here\n\n", "document contains no {h} sections", None),
    ("{h} M\n  states {x}\n  trans {x} a\n", "trans takes source, label, target", 3),
    (
        "{h} M\n  states {x}\n  alphabet a#b\n  trans {x} a#b {x}\n  alphabet a#b\n",
        "label 'a#b' contains forbidden ['#']",
        3,
    ),
    (
        "{h} M\n  states {x}\n  alphabet a\n  trans {x} a {x}\n{h} N\n  alphabet b c\n"
        "  alphabet c b a\"c\n  trans {x} a\"c {x}\n",
        "label 'a\"c' contains forbidden ['\"']",
        7,
    ),
    ("{h} M\n  states {x}\n  trans {x} a#b {x}\n", "label 'a#b' contains forbidden ['#']", 3),
]


@pytest.mark.parametrize("doc, message, line", SHARED_GRAMMAR)
@pytest.mark.parametrize(
    "parse, header, noun, state",
    [(parse_network, "fsm", "member", "x"), (parse_observers, "observer", "observer", "{x}")],
)
def test_shared_grammar_errors(doc, message, line, parse, header, noun, state):
    text = doc.replace("{h}", header).replace("{x}", state)
    with pytest.raises(FormatError) as caught:
        parse(text)
    expected = message.replace("{h}", header).replace("{n}", noun)
    assert str(caught.value) == (expected if line is None else f"line {line}: {expected}")
    assert caught.value.line == line


@pytest.mark.parametrize(
    "parse, doc, message",
    [
        (
            parse_network,
            "fsm M\n  states x y\n  trans x a y\n  trans y a x\n  trans x a y\n",
            "line 5: duplicate transition x a y",
        ),
        (
            parse_observers,
            "observer O\n  states {x} {y}\n  trans {x} a {y}\n  trans {y} a {x}\n"
            "  trans {x} a {x}\n",
            "line 5: second transition from {x} on 'a': observers are deterministic",
        ),
    ],
)
def test_repeated_move_errors(parse, doc, message):
    with pytest.raises(FormatError) as caught:
        parse(doc)
    assert str(caught.value) == message
    assert caught.value.line == 5


class TestDotExport:
    def test_fixture_a_bytes(self, fsm_a):
        assert export_dot(fsm_a, "A") == (
            'digraph "A" {\n'
            "  rankdir=LR;\n"
            "  node [shape=circle];\n"
            '  "__start0" [shape=point, label=""];\n'
            '  "p";\n'
            '  "q" [shape=doublecircle];\n'
            '  "__start0" -> "p";\n'
            '  "p" -> "q" [label="a"];\n'
            '  "q" -> "p" [label="b"];\n'
            "}\n"
        )

    def test_observer_export_flags_doubled(self, fsm_b):
        text = export_dot(build_observer(fsm_b), "obsB")
        assert '"{s,t}" [shape=doublecircle];' in text
        assert '"{r}";' in text

    def test_multiple_initials_get_start_points(self):
        m = Fsm(["x", "y"], ["x", "y"], ["a"], [("x", "a", "y")])
        text = export_dot(m)
        assert '"__start0"' in text and '"__start1"' in text

    def test_byte_stability(self, net_ab):
        c = compose_network(net_ab)
        assert export_dot(c) == export_dot(c)
        assert export_dot(c) == export_dot(compose_network(net_ab))

    def test_quotes_escaped(self):
        m = Fsm(['x"y'], ['x"y'], ["a"], [])
        text = export_dot(m, 'na"me')
        assert '"na\\"me"' in text
        assert '"x\\"y"' in text

    def test_composed_bank_bytes(self, net_ab):
        # Bank states are tuples, found as ({p},{r}), ({q},{s,t}), ({p},{s,t}).
        bank = compose_decentralized(build_decentralized(net_ab))
        assert export_dot(bank, "bank") == (
            'digraph "bank" {\n'
            "  rankdir=LR;\n"
            "  node [shape=circle];\n"
            '  "__start0" [shape=point, label=""];\n'
            '  "({p},{r})";\n'
            '  "({p},{s,t})" [shape=doublecircle];\n'
            '  "({q},{s,t})" [shape=doublecircle];\n'
            '  "__start0" -> "({p},{r})";\n'
            '  "({p},{r})" -> "({q},{s,t})" [label="a"];\n'
            '  "({q},{s,t})" -> "({p},{s,t})" [label="b"];\n'
            "}\n"
        )

    def test_constructed_observer_bytes(self):
        # States and transitions are given out of canonical order.
        p, q, pq = frozenset("p"), frozenset("q"), frozenset("pq")
        obs = ObserverFsm(
            [pq, q, p],
            p,
            ["b", "a"],
            {(q, "b"): p, (pq, "b"): q, (pq, "a"): pq, (p, "a"): pq},
            {p: 0, q: 1, pq: 1},
        )
        assert export_dot(obs, "O") == (
            'digraph "O" {\n'
            "  rankdir=LR;\n"
            "  node [shape=circle];\n"
            '  "__start0" [shape=point, label=""];\n'
            '  "{p}";\n'
            '  "{q}" [shape=doublecircle];\n'
            '  "{p,q}" [shape=doublecircle];\n'
            '  "__start0" -> "{p}";\n'
            '  "{p}" -> "{p,q}" [label="a"];\n'
            '  "{q}" -> "{p}" [label="b"];\n'
            '  "{p,q}" -> "{p,q}" [label="a"];\n'
            '  "{p,q}" -> "{q}" [label="b"];\n'
            "}\n"
        )


class TestFormatErrorShape:
    def test_line_number_carried(self):
        with pytest.raises(FormatError) as err:
            parse_network("fsm M\n  bogus\n")
        assert err.value.line == 2
        assert str(err.value).startswith("line 2:")

    def test_no_line_number(self):
        with pytest.raises(FormatError) as err:
            parse_network("")
        assert err.value.line is None
