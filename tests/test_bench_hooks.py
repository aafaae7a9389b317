"""The benchmark's traced run still finds every library name it wraps.

`bench/tracing.py` records per-layer spans by replacing module attributes
that `critnet.cli` and `critnet.pipeline` call through, and the method
`MonitorSession.feed`. A target the library no longer has is only warned
about, and the traced metrics then read 0, so a refactor could silently
blank them. The benchmark also takes its reference verdicts for random
networks from `tests/oracles.py`, so a change there is checked against the
library here. These tests read the benchmark's files and never change them.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import random
import sys
from pathlib import Path

import critnet.cli
import critnet.monitor
import critnet.pipeline
from critnet import Network, build_observer, parse_network, run_algorithm1, serialize_network
from genutil import renamed, renamed_copy, split_state_variant

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "critnet_bench_tracing", ROOT / "bench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _tracing().TARGETS
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_run_onthefly_keeps_the_traced_signature(fsm_a):
    params = list(inspect.signature(critnet.pipeline.run_onthefly).parameters)
    assert params[:3] == ["network", "max_states", "on_generation"]
    calls = []
    outcome = critnet.pipeline.run_onthefly(
        Network((("A", fsm_a),)), None, on_generation=lambda *a: calls.append(a)
    )
    assert outcome.aggregates_seen == 2
    assert outcome.generations == 2
    assert len(calls) == 2


def test_traced_check_counts_exploration(capsys):
    original = critnet.pipeline.run_onthefly
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        code = tracer.call_job(0, critnet.cli.main, ["check", str(ROOT / "demos/data/line.net")])
    finally:
        tracer.uninstall()
    out = capsys.readouterr()
    assert code == 0 and "verdict: observable" in out.out
    assert "not traced" not in out.err
    explored = [
        tracer.counts[i]
        for i, span in enumerate(tracer.spans)
        if span[0] == "onthefly.run_onthefly"
    ]
    assert len(explored) == 1
    assert explored[0]["aggregates"] > 0 and explored[0]["generations"] > 0
    assert critnet.pipeline.run_onthefly is original


def test_traced_baseline_counts_the_composed_bank(capsys):
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        code = tracer.call_job(
            0, critnet.cli.main, ["check", str(ROOT / "demos/data/line.net"), "--algorithm", "1"]
        )
    finally:
        tracer.uninstall()
    out = capsys.readouterr()
    assert code == 0 and "verdict: observable" in out.out
    assert "not traced" not in out.err
    composed = [
        (end - start, tracer.counts[i])
        for i, (name, start, end, _, _) in enumerate(tracer.spans)
        if name == "observer.compose_decentralized"
    ]
    assert len(composed) == 1
    seconds, counts = composed[0]
    assert seconds > 0 and counts["bank_states"] > 0


def test_traced_compose_counts_the_printed_product(capsys):
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        code = tracer.call_job(0, critnet.cli.main, ["compose", str(ROOT / "demos/data/line.net")])
    finally:
        tracer.uninstall()
    out = capsys.readouterr()
    assert code == 0 and "not traced" not in out.err
    (_, printed), = parse_network(out.out).members
    composed = [
        tracer.counts[i]
        for i, span in enumerate(tracer.spans)
        if span[0] == "compose.compose_network"
    ]
    assert len(composed) == 1
    assert composed[0]["product_states"] == len(printed.states) > 1


def test_traced_monitor_records_one_span_per_event(tmp_path, capsys):
    net = str(ROOT / "demos/data/line.net")
    assert critnet.cli.main(["synth", net, "--out", str(tmp_path)]) == 0
    events = ["load", "pass", "load", "pass", "take", "done"]
    stream = tmp_path / "stream.events"
    stream.write_text("\n".join(events) + "\n")
    observers = sorted(str(p) for p in tmp_path.glob("*.obs"))
    capsys.readouterr()
    original = critnet.monitor.MonitorSession.feed
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        code = tracer.call_job(
            0, critnet.cli.main, ["monitor", *observers, "--events", str(stream)]
        )
    finally:
        tracer.uninstall()
    out = capsys.readouterr()
    assert code == 0 and len(out.out.splitlines()) == len(events)
    assert "not traced" not in out.err
    feeds = [span for span in tracer.spans if span[0] == "monitor.feed"]
    assert len(feeds) == len(events)
    assert critnet.monitor.MonitorSession.feed is original


def _bench_module(monkeypatch, name: str):
    """Load bench/<name>.py under its own name, registered until the test ends."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_oracle_agrees_with_algorithm_1(monkeypatch):
    # workloads.py imports its sibling `model`, and `Oracle` puts tests/ on
    # the path; both are undone after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    _bench_module(monkeypatch, "model")
    workloads = _bench_module(monkeypatch, "workloads")
    toy = workloads.SIZES["mixed"]["toy"]
    spec = workloads.build_mixed(1, **toy)
    oracle = workloads.Oracle(ROOT)
    verdicts = []
    for name, text in sorted(spec.files.items()):
        if not name.endswith(".net"):
            continue
        net = parse_network(text)
        members = [
            workloads.Machine(
                member, tuple(m.states), tuple(m.initial), tuple(m.alphabet),
                m.critical, tuple(m.transitions()),
            )
            for member, m in net.members
        ]
        verdict = oracle.observable(members)
        assert verdict == run_algorithm1(net).verdict.observable, name
        verdicts.append(verdict)
    assert len(verdicts) == toy["networks"]
    assert True in verdicts and False in verdicts


def test_traced_toy_chain_check_visits_every_aggregate(monkeypatch, tmp_path, capsys):
    # The benchmark rejects a traced `chain` run unless each exploration
    # visits all 3^k aggregates; k = 3 here.
    monkeypatch.setattr(sys, "path", list(sys.path))
    _bench_module(monkeypatch, "model")
    workloads = _bench_module(monkeypatch, "workloads")
    spec = workloads.build_chain(1, **workloads.SIZES["chain"]["toy"])
    assert workloads.SIZES["chain"]["toy"]["k"] == 3 and spec.aggregates == 27
    net = tmp_path / "chain.net"
    net.write_text(spec.files["chain.net"], encoding="utf-8")
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        code = tracer.call_job(0, critnet.cli.main, ["check", str(net)])
    finally:
        tracer.uninstall()
    assert code == 0 and "verdict: observable" in capsys.readouterr().out
    explored = [
        tracer.counts[i]["aggregates"]
        for i, span in enumerate(tracer.spans)
        if span[0] == "onthefly.run_onthefly"
    ]
    assert explored == [27]


def test_traced_counts_see_every_copy(tmp_path, capsys, fsm_a, fsm_b):
    # Members with equal tables share one subset construction and one
    # refinement; the traced counts must still cover every member.
    members = (
        ("A", fsm_a),
        ("B", fsm_b),
        ("Acopy", renamed_copy(fsm_a, "c_")),
        ("Bflip", renamed(fsm_b, {"r": "z", "s": "y", "t": "x"})),
        ("Asplit", split_state_variant(random.Random(1), fsm_a, "s")),
        ("Bcopy", renamed_copy(fsm_b, "c_")),
    )
    net = tmp_path / "copies.net"
    net.write_text(serialize_network(Network(members)), encoding="utf-8")
    counts = {}
    for argv in (["check", str(net), "--algorithm", "1"], ["check", str(net)]):
        tracer = _tracing().Tracer()
        tracer.install()
        try:
            tracer.call_job(0, critnet.cli.main, argv)
        finally:
            tracer.uninstall()
        assert "not traced" not in capsys.readouterr().err
        for i, span in enumerate(tracer.spans):
            counts.setdefault(span[0], []).append(tracer.counts.get(i))
    want = sum(len(build_observer(m).states) for _, m in members)
    assert counts["observer.build_decentralized"] == [{"local_states": want}]
    assert counts["equivalence.quotient_network"] == [{"classes": 2}]
