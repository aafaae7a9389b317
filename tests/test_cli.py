"""Command line behavior: subcommands, exit codes, budgets, JSON output."""

from __future__ import annotations

import io
import json
import os
import random
import select
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import pytest

from critnet import (
    Fsm,
    Network,
    build_observer,
    compose_network,
    export_dot,
    parse_network,
    parse_observers,
    quotient_network,
    run_algorithm3,
    serialize_network,
    serialize_observer,
)
from critnet import netio
from critnet.cli import _build_parser, main
from critnet.monitor import start_session
from conftest import make_fsm_a
from genutil import renamed_copy, split_state_variant


@pytest.fixture
def net_file(tmp_path, net_ab):
    path = tmp_path / "net.txt"
    path.write_text(serialize_network(net_ab), encoding="utf-8")
    return str(path)


@pytest.fixture
def observable_file(tmp_path, fsm_a):
    path = tmp_path / "obsnet.txt"
    path.write_text(
        serialize_network(Network((("A", fsm_a),))), encoding="utf-8"
    )
    return str(path)


@pytest.fixture
def duplicated_file(tmp_path, fsm_a, fsm_b):
    net = Network(
        (("A", fsm_a), ("Acopy", renamed_copy(fsm_a, "c_")), ("B", fsm_b))
    )
    path = tmp_path / "dup.txt"
    path.write_text(serialize_network(net), encoding="utf-8")
    return str(path)


class TestCheck:
    def test_not_observable_exit_1(self, net_file, capsys):
        assert main(["check", net_file]) == 1
        out = capsys.readouterr().out
        assert "verdict: not observable" in out
        assert "witness: ({p},{s,t})" in out
        assert "algorithm: 3" in out
        assert "space: 11" in out
        assert "time: 2" in out

    def test_observable_exit_0(self, observable_file, capsys):
        assert main(["check", observable_file]) == 0
        out = capsys.readouterr().out
        assert "verdict: observable" in out
        assert "witness" not in out

    def test_algorithm_choices_agree(self, net_file, capsys):
        for algo in ("1", "otf", "3"):
            assert main(["check", net_file, "--algorithm", algo]) == 1
            assert "not observable" in capsys.readouterr().out

    def test_algorithm_1_ledger(self, net_file, capsys):
        main(["check", net_file, "--algorithm", "1"])
        out = capsys.readouterr().out
        assert "space: 30" in out
        assert "time: 5" in out

    def test_json_output(self, net_file, capsys):
        assert main(["check", net_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "algorithm": "3",
            "verdict": "not-observable",
            "witness": "({p},{s,t})",
            "space": 11,
            "time": 2,
            "classes": [["A"], ["B"]],
        }

    def test_classes_printed_for_default_algorithm(self, duplicated_file, capsys):
        main(["check", duplicated_file])
        out = capsys.readouterr().out
        assert "class A: A Acopy" in out

    def test_invalid_algorithm_rejected(self, net_file, capsys):
        assert main(["check", net_file, "--algorithm", "2"]) == 2


class TestBudget:
    def test_budget_flag_exceeded(self, net_file, capsys):
        assert main(["check", net_file, "--budget", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_budget_env_exceeded(self, net_file, capsys, monkeypatch):
        monkeypatch.setenv("CRITNET_BUDGET", "1")
        assert main(["check", net_file]) == 2

    def test_budget_flag_beats_env(self, net_file, capsys, monkeypatch):
        monkeypatch.setenv("CRITNET_BUDGET", "1")
        assert main(["check", net_file, "--budget", "100000"]) == 1

    def test_invalid_env_budget(self, net_file, capsys, monkeypatch):
        monkeypatch.setenv("CRITNET_BUDGET", "lots")
        assert main(["check", net_file]) == 2
        assert "CRITNET_BUDGET" in capsys.readouterr().err

    def test_nonpositive_budget_rejected(self, net_file, capsys):
        assert main(["check", net_file, "--budget", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_initial_product_over_budget_exits_2(self, tmp_path, capsys):
        # 2**18 initial product states: the budget error comes before they are listed.
        m = Fsm(["p", "q"], ["p", "q"], [], [])
        path = tmp_path / "wide.net"
        path.write_text(serialize_network(Network(tuple((f"M{i}", m) for i in range(18)))))
        assert main(["compose", str(path), "--budget", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: product exceeded 1000 states\n"

    def test_preserve_honours_env_budget(self, capsys, monkeypatch):
        # preserve has no --budget flag, but composes under the same cap.
        monkeypatch.setenv("CRITNET_BUDGET", "5")
        line = str(REPO_ROOT / "demos" / "data" / "line.net")
        for command in ("compose", "preserve"):
            assert main([command, line]) == 2
            assert "error: product exceeded 5 states" in capsys.readouterr().err


class TestReduce:
    def test_reduces_duplicates(self, duplicated_file, capsys, net_ab):
        assert main(["reduce", duplicated_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# reduced 3 members to 2\n")
        assert "# class A: A Acopy" in out
        body = "\n".join(
            line for line in out.splitlines() if not line.startswith("#")
        )
        assert parse_network(body) == net_ab

    def test_nothing_to_reduce(self, net_file, capsys, net_ab):
        assert main(["reduce", net_file]) == 0
        out = capsys.readouterr().out
        assert "# reduced 2 members to 2" in out


class TestSynth:
    def test_stdout_documents(self, observable_file, capsys, fsm_a):
        assert main(["synth", observable_file]) == 0
        out = capsys.readouterr().out
        parsed = parse_observers(out)
        assert parsed == (("A", build_observer(fsm_a)),)

    def test_out_directory(self, observable_file, tmp_path, capsys, fsm_a):
        outdir = tmp_path / "synth"
        assert main(["synth", observable_file, "--out", str(outdir)]) == 0
        err = capsys.readouterr().err
        assert "A.obs" in err and "A.dot" in err
        obs_text = (outdir / "A.obs").read_text(encoding="utf-8")
        assert parse_observers(obs_text) == (("A", build_observer(fsm_a)),)
        dot_text = (outdir / "A.dot").read_text(encoding="utf-8")
        assert dot_text.startswith('digraph "A" {')

    def test_out_overwrites_longer_and_shorter_files(self, observable_file, tmp_path, capsys):
        outdir = tmp_path / "synth"
        assert main(["synth", observable_file, "--out", str(outdir)]) == 0
        fresh = {p.name: p.read_bytes() for p in outdir.iterdir()}
        for stale in ("é" * 5000, ""):
            for name in fresh:
                (outdir / name).write_text(stale, encoding="utf-8")
            assert main(["synth", observable_file, "--out", str(outdir)]) == 0
            assert {p.name: p.read_bytes() for p in outdir.iterdir()} == fresh

    def test_not_observable_synthesizes_nothing(self, net_file, tmp_path, capsys):
        outdir = tmp_path / "nothing"
        assert main(["synth", net_file, "--out", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert "not observable" in err
        assert "({p},{s,t})" in err
        assert not outdir.exists()

    @pytest.mark.parametrize("bad", ["../escaped", "a/b", "..", ".", "a\x00b"])
    def test_out_refuses_member_names_that_are_not_file_names(self, bad, tmp_path, capsys):
        net = Network((("A", make_fsm_a()), (bad, renamed_copy(make_fsm_a(), "c_"))))
        path = tmp_path / "net.txt"
        path.write_text(serialize_network(net), encoding="utf-8")
        outdir = tmp_path / "work" / "out"
        assert main(["synth", str(path), "--out", str(outdir)]) == 2
        assert capsys.readouterr().err.startswith(f"error: member {bad!r} ")
        assert list(tmp_path.rglob("*")) == [path]
        # Without --out, names only go into the documents on stdout.
        assert main(["synth", str(path)]) == 0
        assert dict(parse_observers(capsys.readouterr().out)).keys() == {"A", bad}

    def test_out_refuses_an_over_long_member_name_before_writing(self, tmp_path, capsys):
        # A file name holds at most 255 bytes, the ".obs" suffix included.
        for name, fits in (("x" * 251, True), ("x" * 252, False), ("é" * 126, False)):
            net = Network((("A", make_fsm_a()), (name, renamed_copy(make_fsm_a(), "c_"))))
            path = tmp_path / "net.txt"
            path.write_text(serialize_network(net), encoding="utf-8")
            outdir = tmp_path / "out"
            if fits:
                assert main(["synth", str(path), "--out", str(outdir)]) == 0
                assert (outdir / f"{name}.obs").exists() and (outdir / f"{name}.dot").exists()
                shutil.rmtree(outdir)
                capsys.readouterr()
                continue
            assert main(["synth", str(path), "--out", str(outdir)]) == 2
            assert capsys.readouterr().err.startswith(f"error: member {name!r} ")
            assert list(tmp_path.rglob("*")) == [path]

    @pytest.mark.parametrize("copy", ["Acopy", "A\\copy"])
    def test_out_files_are_the_one_member_documents(self, copy, tmp_path, capsys):
        # The golden network's copies, and a copy whose name DOT must escape.
        net = Network((("A", make_fsm_a()), (copy, renamed_copy(make_fsm_a(), "c_"))))
        mine = tmp_path / "copy.net"
        mine.write_text(serialize_network(net), encoding="utf-8")
        for path in (REPO_ROOT / "tests/data/golden/dups.net", mine):
            locals_ = run_algorithm3(parse_network(path.read_text(encoding="utf-8"))).locals
            assert len({id(obs) for _, obs in locals_}) < len(locals_)
            want = {}
            for name, obs in locals_:
                want[f"{name}.obs"] = serialize_observer(name, obs).encode()
                want[f"{name}.dot"] = export_dot(obs, name).encode()
            outdir = tmp_path / path.stem
            assert main(["synth", str(path), "--out", str(outdir)]) == 0
            assert {p.name: p.read_bytes() for p in outdir.iterdir()} == want
            assert main(["synth", str(path)]) == 0
            out = capsys.readouterr().out
            assert out == "\n".join(serialize_observer(name, obs) for name, obs in locals_)

    def test_out_renders_each_distinct_observer_once(self, tmp_path, capsys, monkeypatch):
        k = 5
        members = [("A", make_fsm_a())]
        members += [(f"A{i}", renamed_copy(make_fsm_a(), f"c{i}_")) for i in range(1, k)]
        path = tmp_path / "copies.net"
        path.write_text(serialize_network(Network(tuple(members))), encoding="utf-8")
        views = []
        view = netio._view
        monkeypatch.setattr(netio, "_view", lambda machine: views.append(machine) or view(machine))
        outdir = tmp_path / "out"
        assert main(["synth", str(path), "--out", str(outdir)]) == 0
        assert len(list(outdir.iterdir())) == 2 * k
        # The k copies share one observer: one view for its .obs and one for its DOT.
        assert len(views) == 2 and views[0] is views[1]

    def test_duplicates_share_observers(self, capsys, tmp_path):
        net = Network(
            (("A", make_fsm_a()), ("Acopy", renamed_copy(make_fsm_a(), "c_")))
        )
        path = tmp_path / "pair.txt"
        path.write_text(serialize_network(net), encoding="utf-8")
        assert main(["synth", str(path)]) == 0
        parsed = parse_observers(capsys.readouterr().out)
        by_name = dict(parsed)
        assert set(by_name) == {"A", "Acopy"}
        assert by_name["A"] == by_name["Acopy"] == build_observer(make_fsm_a())


class TestCompose:
    def test_composed_document(self, net_file, capsys, net_ab):
        assert main(["compose", net_file]) == 0
        out = capsys.readouterr().out
        composed = parse_network(out)
        assert composed.names == ("composed",)
        assert composed.get("composed") == compose_network(net_ab)


class TestMonitor:
    @pytest.fixture
    def observer_file(self, tmp_path, net_ab):
        from critnet import build_decentralized

        bank = build_decentralized(net_ab)
        path = tmp_path / "bank.obs"
        path.write_text(
            "\n".join(serialize_observer(n, o) for n, o in bank.locals),
            encoding="utf-8",
        )
        return str(path)

    def test_event_file(self, observer_file, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text("# warmup\na\n\nb\n", encoding="utf-8")
        assert main(["monitor", observer_file, "--events", str(events)]) == 0
        out = capsys.readouterr().out
        assert out == "1 a 11 1\n2 b 01 1\n"

    def test_stdin_records_reach_a_pipe_before_the_stream_ends(self, observer_file):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "critnet.cli", "monitor", observer_file],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            proc.stdin.write(b"a\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready and proc.stdout.readline() == b"1 a 11 1\n"
        finally:
            proc.stdin.close()
            proc.stdout.close()
            proc.wait(timeout=30)
        assert proc.returncode == 0

    def test_stdin_events(self, observer_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("a\nb\n"))
        assert main(["monitor", observer_file]) == 0
        assert capsys.readouterr().out == "1 a 11 1\n2 b 01 1\n"

    def test_desync_exit_1(self, observer_file, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text("a\nb\na\n", encoding="utf-8")
        assert main(["monitor", observer_file, "--events", str(events)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "1 a 11 1\n2 b 01 1\n"
        assert "desync" in captured.err
        assert "'B'" in captured.err

    def test_multiple_events_per_line_rejected(self, observer_file, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text("a b\n", encoding="utf-8")
        assert main(["monitor", observer_file, "--events", str(events)]) == 2
        assert "one event per line" in capsys.readouterr().err

    def test_a_bad_event_line_names_the_stream_and_the_events_applied(
        self, observer_file, tmp_path, capsys, monkeypatch
    ):
        events = tmp_path / "events.txt"
        events.write_text("a\n\n# note\nb\na b\na\n", encoding="utf-8")
        assert main(["monitor", observer_file, "--events", str(events)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "1 a 11 1\n2 b 01 1\n"
        assert captured.err == f"error: {events}: one event per line, got 'a b' after 2 events\n"
        monkeypatch.setattr("sys.stdin", io.StringIO("x y\n"))
        assert main(["monitor", observer_file]) == 2
        expected = "error: <stdin>: one event per line, got 'x y' after 0 events\n"
        assert capsys.readouterr().err == expected

    def test_observers_from_separate_files(self, tmp_path, capsys, fsm_a, fsm_b):
        fa = tmp_path / "a.obs"
        fa.write_text(serialize_observer("A", build_observer(fsm_a)), encoding="utf-8")
        fb = tmp_path / "b.obs"
        fb.write_text(serialize_observer("B", build_observer(fsm_b)), encoding="utf-8")
        events = tmp_path / "events.txt"
        events.write_text("a\n", encoding="utf-8")
        assert main(["monitor", str(fa), str(fb), "--events", str(events)]) == 0
        assert capsys.readouterr().out == "1 a 11 1\n"

    def test_unknown_event_is_an_error(self, observer_file, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text("z\n", encoding="utf-8")
        assert main(["monitor", observer_file, "--events", str(events)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_copies_files_load_once_and_print_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        line = parse_network((REPO_ROOT / "demos" / "data" / "line.net").read_text())
        rng = random.Random(7)
        members = list(line.members)
        for name, m in line.members:
            members.append((f"{name}R", renamed_copy(m, "r_")))
            members.append((f"{name}S", split_state_variant(rng, m, "s_")))
        net = tmp_path / "copies.net"
        net.write_text(serialize_network(Network(tuple(members))), encoding="utf-8")
        outdir = tmp_path / "obs"
        assert main(["synth", str(net), "--out", str(outdir)]) == 0
        capsys.readouterr()
        events = tmp_path / "events.txt"
        events.write_text("load\npass\nload\npass\ntake\ndone\n", encoding="utf-8")
        argv = ["monitor", *sorted(map(str, outdir.glob("*.obs"))), "--events", str(events)]
        sessions = []
        monkeypatch.setattr(
            "critnet.cli.start_session", lambda pairs: sessions.append(pairs) or start_session(pairs)
        )
        shared = main(argv), capsys.readouterr()
        # The same run with every file parsed in full.
        monkeypatch.setattr("critnet.cli.parse_observers", lambda text, _: parse_observers(text))
        alone = main(argv), capsys.readouterr()
        assert shared == alone
        assert shared[0] == 0 and shared[1].out.count("\n") == 6
        shared_locals, alone_locals = map(dict, sessions)
        assert shared_locals == alone_locals
        for name in line.names:
            copies = [shared_locals[name + suffix] for suffix in ("", "R", "S")]
            assert all(obs is copies[0] for obs in copies)
            assert alone_locals[name + "R"] is not alone_locals[name]

    @pytest.mark.parametrize(
        "head",
        ["observer a#b\n", "observer A B\n", "# note\nobserver a#b\n", "observer a#b\r\n"],
        # Files are read with universal newlines, so "crlf" reaches the parser as "bad-name".
        ids=["bad-name", "three-tokens", "comment-first", "crlf"],
    )
    def test_a_reused_body_under_another_header_fails_as_it_does_alone(
        self, head, tmp_path, capsys, fsm_a
    ):
        text = serialize_observer("A", build_observer(fsm_a))
        good, bad = tmp_path / "good.obs", tmp_path / "bad.obs"
        good.write_text(text, encoding="utf-8")
        body = text.partition("\n")[2]
        if head.endswith("\r\n"):
            body = body.replace("\n", "\r\n")
        bad.write_bytes((head + body).encode())
        assert main(["monitor", str(bad)]) == 2
        alone = capsys.readouterr().err
        assert alone.startswith(f"error: {bad}: line ")
        assert main(["monitor", str(good), str(bad)]) == 2
        assert capsys.readouterr().err == alone

    def test_event_lines_that_are_not_identifiers(self, tmp_path, capsys):
        # "a-b" and "x.y" are labels but not identifiers; "\u00e9t\u00e9" is both.
        obs = tmp_path / "o.obs"
        obs.write_text(
            "observer O\n  states {p} {q}\n  initial {p}\n  alphabet a-b x.y \u00e9t\u00e9\n"
            "  flag {q}\n  trans {p} a-b {q}\n  trans {q} x.y {p}\n  trans {p} \u00e9t\u00e9 {p}\n",
            encoding="utf-8",
        )
        events = tmp_path / "events.txt"
        events.write_text(
            "a-b\n\n  \n# a b\n#\n\tx.y \n\u00e9t\u00e9\n # note\nx.y\n", encoding="utf-8"
        )
        assert main(["monitor", str(obs), "--events", str(events)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "1 a-b 1 1\n2 x.y 0 0\n3 \u00e9t\u00e9 0 0\n"
        assert "desync" in captured.err

    def test_inner_whitespace_in_an_event_line_still_fails(self, observer_file, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_text("a\nb\n  b\u00a0a \n", encoding="utf-8")
        assert main(["monitor", observer_file, "--events", str(events)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "1 a 11 1\n2 b 01 1\n"
        line = "b\u00a0a"  # U+00A0 is whitespace to str.split
        assert captured.err == f"error: {events}: one event per line, got {line!r} after 2 events\n"


class TestExport:
    def test_dot_per_member(self, net_file, capsys):
        assert main(["export", net_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.count("digraph") == 2
        assert 'digraph "A"' in out and 'digraph "B"' in out

    def test_dot_flag_required(self, net_file, capsys):
        assert main(["export", net_file]) == 2


class TestPreserve:
    def test_consistent_network(self, duplicated_file, capsys):
        assert main(["preserve", duplicated_file, "--runs", "30"]) == 0
        out = capsys.readouterr().out
        assert "class A: A Acopy" in out
        assert "verdicts agree: yes" in out

    def test_json(self, duplicated_file, capsys):
        assert main(["preserve", duplicated_file, "--json", "--runs", "20"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classes"] == [["A", "Acopy"], ["B"]]
        assert payload["verdicts_agree"] is True
        assert payload["verdict_full"] == payload["verdict_reduced"] == "not-observable"

    @pytest.mark.parametrize("flag", ["--runs", "--length"])
    def test_negative_sample_size_rejected(self, duplicated_file, capsys, flag):
        assert main(["preserve", duplicated_file, "--json", flag, "-1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {flag} must not be negative, got -1\n"

    @pytest.mark.parametrize("flag", ["--runs", "--length"])
    def test_zero_sample_size_allowed(self, duplicated_file, capsys, flag):
        assert main(["preserve", duplicated_file, "--json", flag, "0"]) == 0
        assert json.loads(capsys.readouterr().out)["verdicts_agree"] is True


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/net.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("fsm M\n  bogus\n", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_format_error_names_its_file(self, tmp_path, capsys, fsm_a):
        good = tmp_path / "a.obs"
        good.write_text(serialize_observer("A", build_observer(fsm_a)), encoding="utf-8")
        bad = tmp_path / "b.dot"
        bad.write_text('digraph "B" {\n}\n', encoding="utf-8")
        events = tmp_path / "events.txt"
        events.write_text("a\n", encoding="utf-8")
        assert main(["monitor", str(good), str(bad), "--events", str(events)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {bad}: line 1: 'digraph' before any observer section\n"

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_parser_is_built_once_and_outlives_usage_errors(self, net_file, capsys):
        parser = _build_parser()
        assert main(["check", net_file, "--algorithm", "9"]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["check", net_file, "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["algorithm"] == "3"
        assert main(["check", net_file]) == 1
        assert "verdict: not observable" in capsys.readouterr().out
        assert _build_parser() is parser


class TestUndecodableInput:
    """A file or stream that is not UTF-8 is an input error (exit 2), not a verdict."""

    @staticmethod
    def _assert_not_utf8(err: str, path: str) -> None:
        assert err.startswith(f"error: {path}: not valid UTF-8")
        assert "Traceback" not in err

    @pytest.fixture
    def observer_file(self, tmp_path, fsm_a):
        path = tmp_path / "a.obs"
        path.write_text(serialize_observer("A", build_observer(fsm_a)), encoding="utf-8")
        return str(path)

    def test_check_network_file(self, tmp_path, capsys):
        path = tmp_path / "bad.net"
        path.write_bytes(b"\xff\n")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        self._assert_not_utf8(captured.err, str(path))

    def test_monitor_observer_file(self, observer_file, tmp_path, capsys):
        bad = tmp_path / "bad.obs"
        bad.write_bytes(b"observer B\n  \xff\n")
        events = tmp_path / "events.txt"
        events.write_text("a\n", encoding="utf-8")
        assert main(["monitor", observer_file, str(bad), "--events", str(events)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        self._assert_not_utf8(captured.err, str(bad))

    def test_monitor_event_file(self, observer_file, tmp_path, capsys):
        events = tmp_path / "events.txt"
        events.write_bytes(b"a\nb\n\xff\na\n")
        assert main(["monitor", observer_file, "--events", str(events)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "1 a 1 1\n2 b 0 0\n"
        self._assert_not_utf8(captured.err, str(events))
        assert "after 2 events" in captured.err

    def test_monitor_stdin_bytes_whatever_the_locale(self, observer_file, capsys, monkeypatch):
        # A stdin that would decode anything (latin-1) is still read as UTF-8.
        raw = io.BytesIO(b"a\n\xff\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="latin-1"))
        assert main(["monitor", observer_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == "1 a 1 1\n"
        self._assert_not_utf8(captured.err, "<stdin>")

    def test_monitor_stdin_in_a_process(self, observer_file):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "LC_ALL": "C"}
        done = subprocess.run(
            [sys.executable, "-m", "critnet.cli", "monitor", observer_file],
            input=b"a\n\xff\n",
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == b"1 a 1 1\n"
        self._assert_not_utf8(done.stderr.decode(), "<stdin>")


REPO_ROOT = Path(__file__).resolve().parent.parent


def _install_checkout(tmp_path, *pip_args):
    """Install this checkout into a fresh venv, offline; return its critnet.

    pip runs from the test's interpreter against the venv (``--python``), so
    the venv needs no pip of its own and nothing is fetched: the build backend
    is in the checkout and needs only the standard library. Returns the path
    of the venv's ``critnet`` script, or None if the install made none.
    """
    pytest.importorskip("pip")
    venv_dir = tmp_path / "venv"
    venv.create(venv_dir, with_pip=False)
    bin_dir = venv_dir / "bin"
    proc = subprocess.run(
        [
            sys.executable, "-m", "pip", "--python", str(bin_dir / "python"),
            "install", "--no-index", "--no-deps", "--no-cache-dir",
            "--disable-pip-version-check", *pip_args,
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return shutil.which("critnet", path=str(bin_dir))


def _run_outside_checkout(tmp_path, *argv):
    """Run ``argv`` in ``tmp_path`` with ``PYTHONPATH`` dropped.

    So an installed script imports critnet from what pip installed, never
    from a ``src/`` that the test run put on the path.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        argv, capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env
    )


def test_console_script_installed(tmp_path):
    exe = _install_checkout(tmp_path, str(REPO_ROOT))
    assert exe is not None
    proc = _run_outside_checkout(tmp_path, exe, "--help")
    assert proc.returncode == 0
    assert "critical observability" in proc.stdout.lower()


def test_editable_install_runs_from_checkout(tmp_path):
    exe = _install_checkout(tmp_path, "-e", str(REPO_ROOT))
    assert exe is not None
    proc = _run_outside_checkout(tmp_path, exe, "--help")
    assert proc.returncode == 0
    assert "critical observability" in proc.stdout.lower()


class TestModuleEntryPoint:
    """``python -m critnet`` runs the same ``main`` as the script."""

    def _run(self, *argv):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        return subprocess.run(
            [sys.executable, "-m", "critnet", *argv],
            capture_output=True, env=env, timeout=60,
        )

    def test_help_exits_0(self):
        proc = self._run("--help")
        assert proc.returncode == 0
        assert b"critical observability" in proc.stdout.lower()

    def test_check_prints_the_in_process_bytes(self, net_file, capsys):
        code = main(["check", net_file])
        captured = capsys.readouterr()
        proc = self._run("check", net_file)
        assert proc.returncode == code
        assert proc.stdout == captured.out.encode()
        assert proc.stderr == captured.err.encode()
