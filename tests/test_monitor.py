"""Stream replay sessions: per-event atomicity, OR flag, desync poisoning."""

from __future__ import annotations

import io
import itertools
import random
import tracemalloc

import pytest

from critnet import (
    DesyncError,
    Fsm,
    InvalidInputError,
    MonitorSession,
    Network,
    ObserverFsm,
    build_decentralized,
    build_observer,
    compose_network,
    run_algorithm3,
    serialize_observer,
    start_session,
)
from critnet.cli import main
from genutil import random_network, with_duplicates
from oracles import (
    ObserverWalk,
    naive_monitor,
    naive_step,
    network_alphabet,
    network_traces,
    observer_run,
)


def fz(*names):
    return frozenset(names)


@pytest.fixture
def session_ab(net_ab):
    return start_session(build_decentralized(net_ab))


class TestSessionBasics:
    def test_initial_state(self, session_ab):
        assert session_ab.names == ("A", "B")
        assert session_ab.states == (fz("p"), fz("r"))
        assert session_ab.outputs == (0, 0)
        assert session_ab.flag == 0
        assert session_ab.steps == 0
        assert not session_ab.poisoned

    def test_shared_event_moves_everyone(self, session_ab):
        record = session_ab.feed("a")
        assert record.index == 1
        assert record.moved == (True, True)
        assert record.outputs == (1, 1)
        assert record.flag == 1
        assert record.line() == "1 a 11 1"
        assert session_ab.states == (fz("q"), fz("s", "t"))

    def test_private_event_moves_owner_only(self, session_ab):
        session_ab.feed("a")
        record = session_ab.feed("b")
        assert record.moved == (True, False)
        assert record.outputs == (0, 1)
        assert record.flag == 1
        assert record.line() == "2 b 01 1"
        assert session_ab.states == (fz("p"), fz("s", "t"))

    def test_replay_returns_full_log(self, session_ab):
        records = session_ab.replay(("a", "b"))
        assert [r.line() for r in records] == ["1 a 11 1", "2 b 01 1"]
        assert session_ab.steps == 2

    def test_unknown_label_rejected_without_poisoning(self, session_ab):
        with pytest.raises(InvalidInputError):
            session_ab.feed("z")
        assert not session_ab.poisoned
        assert session_ab.steps == 0
        assert session_ab.feed("a").flag == 1

    def test_empty_session_rejected(self):
        with pytest.raises(InvalidInputError) as caught:
            start_session(())
        assert str(caught.value) == "a decentralized observer needs at least one local"

    def test_duplicate_names_rejected(self, fsm_a):
        obs = build_observer(fsm_a)
        with pytest.raises(InvalidInputError) as caught:
            start_session((("A", obs), ("A", obs)))
        assert str(caught.value) == "duplicate local names in ['A', 'A']"

    def test_pairs_are_checked_as_a_bank(self, fsm_a):
        obs = build_observer(fsm_a)
        for locals_, message in (
            ((("", obs),), "local names must be nonempty"),
            ((("A", fsm_a),), f"local 'A' is {fsm_a!r}, not an ObserverFsm"),
            ([obs], f"local 0 is {obs!r}, not a (name, ObserverFsm) pair"),
        ):
            with pytest.raises(InvalidInputError) as caught:
                start_session(locals_)
            assert str(caught.value) == message

    def test_pairs_and_bank_give_same_session(self, net_ab):
        bank = build_decentralized(net_ab)
        s1 = start_session(bank)
        s2 = start_session(bank.locals)
        s3 = MonitorSession(bank)
        assert s1.names == s2.names == s3.names == bank.names
        assert s1.states == s2.states == s3.states


class TestDesync:
    def test_desync_names_the_stuck_local(self, session_ab):
        session_ab.replay(("a", "b"))
        with pytest.raises(DesyncError, match="'B'"):
            session_ab.feed("a")
        assert session_ab.poisoned

    def test_desync_leaves_states_untouched(self, session_ab):
        session_ab.replay(("a", "b"))
        before = session_ab.states
        with pytest.raises(DesyncError):
            session_ab.feed("a")
        assert session_ab.states == before
        assert session_ab.steps == 2

    def test_poisoned_session_refuses_everything(self, session_ab):
        session_ab.replay(("a", "b"))
        with pytest.raises(DesyncError):
            session_ab.feed("a")
        with pytest.raises(DesyncError, match="poisoned"):
            session_ab.feed("b")

    def test_atomic_commit_when_a_later_owner_is_stuck(self, fsm_a):
        # Both locals own "a"; the first could move, the second cannot. No
        # local may step: targets are computed for all owners first.
        other = Fsm(["x"], ["x"], ["a", "b"], [("x", "b", "x")])
        session = start_session(
            (("A", build_observer(fsm_a)), ("C", build_observer(other)))
        )
        with pytest.raises(DesyncError, match="'C'"):
            session.feed("a")
        assert session.states == (fz("p"), fz("x"))

    def test_replay_stops_at_first_desync(self, session_ab):
        with pytest.raises(DesyncError):
            session_ab.replay(("a", "b", "a", "a"))
        assert session_ab.steps == 2
        assert session_ab.states == (fz("p"), fz("s", "t"))


class TestFlagMeaning:
    def test_flag_tracks_composed_observer(self, net_ab):
        # The OR of the local flags must match the flag of the composed
        # network's own observer along every trace.
        composed_obs = build_observer(compose_network(net_ab))
        for word in [("a",), ("a", "b")]:
            session = start_session(build_decentralized(net_ab))
            records = session.replay(word)
            run = observer_run(composed_obs, word)
            assert records[-1].flag == run[-1][1]

    def test_flag_on_longer_traces(self):
        from conftest import make_converse_pair

        net = make_converse_pair()
        composed_obs = build_observer(compose_network(net))
        for word in network_traces(net, max_len=6, cap=100):
            session = start_session(build_decentralized(net))
            records = session.replay(word)
            run = observer_run(composed_obs, word)
            for record, (_, flag) in zip(records, run[1:]):
                assert record.flag == flag

    def test_local_outputs_follow_local_states(self):
        # Only the label's owners refresh their flag; every record must still
        # show each local's output at its current estimate.
        rng = random.Random(701)
        for _ in range(30):
            net = random_network(rng, max_members=3, max_states=4)
            bank = build_decentralized(net)
            walks = [ObserverWalk(obs) for obs in bank.observers]
            for word in network_traces(net, max_len=5, cap=40)[1:]:
                session = start_session(bank)
                for label in word:
                    record = session.feed(label)
                    want = tuple(walk.output(z) for walk, z in zip(walks, session.states))
                    assert record.outputs == session.outputs == want
                    assert record.flag == session.flag == (1 if any(want) else 0)

    def test_raises_counts_flag_rises(self):
        rng = random.Random(703)
        rises = 0
        for _ in range(30):
            net = random_network(rng, max_members=3, max_states=4)
            bank = build_decentralized(net)
            for word in network_traces(net, max_len=5, cap=40):
                session = start_session(bank)
                flags = [session.flag] + [r.flag for r in session.replay(word)]
                want = sum(1 for a, b in zip(flags, flags[1:]) if (a, b) == (0, 1))
                assert session.raises == want
                rises += want
        assert rises > 0


def _agree_with_reference(locals_, net, rng):
    """Every trace and one impossible event per trace match the naive replay."""
    labels = sorted(network_alphabet(net))
    desyncs = 0
    for word in network_traces(net, max_len=5, cap=60):
        session = start_session(locals_)
        records = session.replay(word)
        want, states, problem = naive_monitor(locals_, word)
        assert problem is None
        assert [(r.index, r.label, r.moved, r.outputs, r.flag) for r in records] == want
        assert session.states == states
        outputs = tuple(ObserverWalk(obs).output(z) for (_, obs), z in zip(locals_, states))
        assert session.outputs == outputs
        assert session.flag == (1 if any(outputs) else 0)
        assert session.steps == len(word)
        impossible = [
            label
            for label in labels
            if naive_monitor(locals_, word + (label,))[2] is not None
        ]
        if impossible:
            label = rng.choice(impossible)
            _, states, problem = naive_monitor(locals_, word + (label,))
            with pytest.raises(DesyncError) as caught:
                session.feed(label)
            assert str(caught.value) == problem
            assert session.poisoned
            assert session.states == states
            assert session.steps == len(word)
            desyncs += 1
    return desyncs


class TestAgainstReference:
    def test_class_members_share_a_lifted_observer(self):
        rng = random.Random(705)
        shared = desyncs = 0
        while shared < 25:
            base = random_network(rng, max_members=3, max_states=4)
            net = with_duplicates(rng, base, copies=rng.randint(1, 3), split=rng.random() < 0.5)
            report = run_algorithm3(net)
            if report.locals is None:
                continue
            observers = [obs for _, obs in report.locals]
            assert len(set(observers)) < len(observers)
            shared += 1
            desyncs += _agree_with_reference(report.locals, net, rng)
        assert desyncs > 0

    def test_one_observer_under_several_names(self):
        rng = random.Random(706)
        desyncs = 0
        for _ in range(25):
            net = random_network(rng, max_members=3, max_states=4)
            bank = build_decentralized(net)
            locals_ = list(bank.locals) + [
                (f"{name}_{k}", obs)
                for k in range(rng.randint(1, 3))
                for name, obs in bank.locals
            ]
            rng.shuffle(locals_)
            desyncs += _agree_with_reference(locals_, net, rng)
        assert desyncs > 0


class TestCursorSharing:
    def test_alike_but_different_observers_get_their_own_cursors(self):
        # Same initial estimate, alphabet and size; only the move from q
        # differs. A copy of the first, built apart, shares its cursor, and
        # so does a copy whose estimates are renamed; it reads its own names.
        p, q, r, s = fz("p"), fz("q"), fz("r"), fz("s")

        def observer(p, q, back):
            moves = {(p, "a"): q, (q, "a"): back, (p, "b"): p}
            return ObserverFsm([p, q], p, ["a", "b"], moves, {p: 0, q: 1})

        x, y, x_copy = observer(p, q, p), observer(p, q, q), observer(p, q, p)
        renamed = observer(r, s, r)
        assert x != y and x == x_copy and x is not x_copy and x != renamed
        session = start_session([("X", x), ("Y", y), ("X2", x_copy), ("XR", renamed)])
        assert session._cursors == (0, 1, 0, 0)
        session.replay(["a", "a"])
        assert session.states == (p, q, p, r)
        assert session.outputs == (0, 1, 0, 0)
        assert session.feed("a").bits == "1111"
        with pytest.raises(DesyncError, match="^local 'X' has no move on 'b'"):
            session.feed("b")


def _sampled_trace(net, rng, length):
    """A random trace of the composed plant, walked member by member."""
    labels = sorted(network_alphabet(net))
    estimates = [frozenset(m.initial) for m in net.machines]
    word = []
    for _ in range(length):
        options = []
        for label in labels:
            nxt = [
                naive_step(m, est, label) if label in m.alphabet else est
                for m, est in zip(net.machines, estimates)
            ]
            if all(nxt):
                options.append((label, nxt))
        if not options:
            break
        label, estimates = rng.choice(options)
        word.append(label)
    return tuple(word)


def _banks(seed, count):
    """(network, bank locals, observer file text) for seeded random networks."""
    rng = random.Random(seed)
    for _ in range(count):
        net = random_network(rng, max_members=3, max_states=4)
        locals_ = build_decentralized(net).locals
        text = "\n".join(serialize_observer(name, obs) for name, obs in locals_)
        yield rng, net, locals_, text


def _monitor(tmp_path, text, events, capsys):
    observers = tmp_path / "bank.obs"
    observers.write_text(text, encoding="utf-8")
    stream = tmp_path / "events.txt"
    stream.write_text("".join(f"{label}\n" for label in events), encoding="utf-8")
    code = main(["monitor", str(observers), "--events", str(stream)])
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestStreamingLoop:
    """``lines`` and the CLI against ``feed`` and ``replay`` on random banks."""

    def test_cli_prints_the_feed_records(self, tmp_path, capsys):
        streamed = 0
        for rng, net, locals_, text in _banks(711, 25):
            for _ in range(3):
                word = _sampled_trace(net, rng, rng.randint(1, 30))
                session = start_session(locals_)
                want = [session.feed(label).line() for label in word]
                code, out, err = _monitor(tmp_path, text, word, capsys)
                assert (code, out, err) == (0, want, "")
                streamed += len(word)
        assert streamed > 300

    def test_streaming_leaves_the_state_replay_leaves(self):
        raised = 0
        for rng, net, locals_, _ in _banks(712, 25):
            for _ in range(3):
                word = _sampled_trace(net, rng, rng.randint(0, 30))
                streamed, replayed = start_session(locals_), start_session(locals_)
                lines = list(streamed.lines(word))
                records = replayed.replay(word)
                assert lines == [r.line() for r in records]
                for s in (streamed, replayed):
                    assert not s.poisoned
                assert (
                    streamed.steps, streamed.raises, streamed.outputs, streamed.flag, streamed.states
                ) == (
                    replayed.steps, replayed.raises, replayed.outputs, replayed.flag, replayed.states
                )
                raised += streamed.raises
        assert raised > 0

    def test_desync_mid_stream(self, tmp_path, capsys):
        desyncs = 0
        for rng, net, locals_, text in _banks(713, 40):
            word = _sampled_trace(net, rng, rng.randint(1, 12))
            impossible = [
                label
                for label in sorted(network_alphabet(net))
                if naive_monitor(locals_, word + (label,))[2] is not None
            ]
            if not impossible:
                continue
            bad = rng.choice(impossible)
            want, _, problem = naive_monitor(locals_, word + (bad,))
            code, out, err = _monitor(tmp_path, text, word + (bad,) + word, capsys)
            session = start_session(locals_)
            assert out == [session.feed(label).line() for label in word]
            assert code == 1
            assert err == f"desync: {problem}\n"
            desyncs += 1
        assert desyncs >= 10

    def test_unknown_label_mid_stream(self, tmp_path, capsys):
        for rng, net, locals_, text in _banks(714, 15):
            word = _sampled_trace(net, rng, rng.randint(1, 12))
            cut = rng.randint(0, len(word))
            code, out, err = _monitor(tmp_path, text, word[:cut] + ("zz",) + word[cut:], capsys)
            session = start_session(locals_)
            assert out == [session.feed(label).line() for label in word[:cut]]
            assert code == 2
            assert err == "error: label 'zz' is in no local's alphabet\n"


def _cycle_bank() -> tuple[str, tuple[str, ...]]:
    """An observer file and a word that brings every local back to its start."""
    loop = Fsm(["p", "q"], ["p"], ["a", "b"], [("p", "a", "q"), ("q", "b", "p")], ["q"])
    other = Fsm(["x", "y"], ["x"], ["a", "c"], [("x", "a", "y"), ("y", "c", "x")], ["y"])
    bank = build_decentralized(Network((("A", loop), ("C", other))))
    return "\n".join(serialize_observer(n, o) for n, o in bank.locals), ("a", "b", "c")


class _Sink:
    """A stdout that drops what it is given."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class TestStreamingCli:
    def test_each_record_is_written_before_the_next_event_is_read(
        self, tmp_path, monkeypatch
    ):
        text, cycle = _cycle_bank()
        observers = tmp_path / "bank.obs"
        observers.write_text(text, encoding="utf-8")
        out = io.StringIO()
        events = list(itertools.islice(itertools.cycle(cycle), 30))

        class Stdin:
            """Hands out one event per read, after the last one's record is out."""

            read = 0

            def __iter__(self):
                for label in events:
                    assert out.getvalue().count("\n") == self.read
                    self.read += 1
                    yield f"{label}\n"

        stdin = Stdin()
        monkeypatch.setattr("sys.stdin", stdin)
        monkeypatch.setattr("sys.stdout", out)
        assert main(["monitor", str(observers)]) == 0
        assert stdin.read == len(events)
        assert out.getvalue().count("\n") == len(events)

    def test_memory_does_not_grow_with_the_stream(self, tmp_path, monkeypatch):
        text, cycle = _cycle_bank()
        observers = tmp_path / "bank.obs"
        observers.write_text(text, encoding="utf-8")
        monkeypatch.setattr("sys.stdout", _Sink())

        def peak(events: int) -> int:
            lines = (f"{label}\n" for label in itertools.islice(itertools.cycle(cycle), events))
            monkeypatch.setattr("sys.stdin", lines)
            tracemalloc.start()
            try:
                assert main(["monitor", str(observers)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(300)  # first-use caches
        short, long = peak(2_000), peak(20_000)
        assert long <= 1.5 * short, (short, long)
