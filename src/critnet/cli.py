"""Command line front end.

Exit codes follow the verdict where one exists: 0 observable (or success),
1 not observable (or stream desync for `monitor`), 2 for usage, format,
semantic, and resource errors. `CRITNET_BUDGET` overrides the default state
budget when `--budget` is not given.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .compose import Network, compose_network
from .equivalence import preservation_check, quotient_network
from .errors import CritnetError, DesyncError, FormatError, InvalidInputError
from .monitor import start_session
from .netio import dot_documents, export_dot, observer_documents, parse_network, parse_observers
# `serialize_observer` is not called here; the benchmark's tracer wraps it by this name.
from .netio import serialize_network, serialize_observer
from .observer import state_text
from .pipeline import (
    DEFAULT_STATE_BUDGET,
    run_algorithm1,
    run_algorithm3,
    run_onthefly_report,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        message = f"{path}: not valid UTF-8 at byte {e.start} ({e.reason})"
        raise InvalidInputError(message) from None


def _parse(parse, path: str):
    """``parse`` of the file at ``path``; a format error names the file."""
    text = _read(path)
    try:
        return parse(text)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None


def _resolve_budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        budget = args.budget
    else:
        raw = os.environ.get("CRITNET_BUDGET")
        if raw is None:
            return DEFAULT_STATE_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            raise InvalidInputError(f"CRITNET_BUDGET must be an integer, got {raw!r}")
    if budget < 1:
        raise InvalidInputError("state budget must be a positive integer")
    return budget


def _cmd_check(args) -> int:
    network = _parse(parse_network, args.file)
    budget = _resolve_budget(args)
    if args.algorithm == "1":
        report = run_algorithm1(network, budget)
    elif args.algorithm == "otf":
        report = run_onthefly_report(network, budget)
    else:
        report = run_algorithm3(network, budget)
    if args.json:
        import json  # only --json needs it, so a plain run does not import it
        payload = {
            "algorithm": report.algorithm,
            "verdict": "observable" if report.verdict.observable else "not-observable",
            "witness": None
            if report.verdict.witness is None
            else state_text(report.verdict.witness),
            "space": report.ledger.space,
            "time": report.ledger.time,
            "classes": None
            if report.classes is None
            else [list(c) for c in report.classes.classes],
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"algorithm: {report.algorithm}")
        if report.classes is not None:
            for cls, rep in zip(report.classes.classes, report.classes.representatives):
                print(f"class {rep}: {' '.join(cls)}")
        verdict = "observable" if report.verdict.observable else "not observable"
        print(f"verdict: {verdict}")
        if report.verdict.witness is not None:
            print(f"witness: {state_text(report.verdict.witness)}")
        print(f"space: {report.ledger.space}")
        print(f"time: {report.ledger.time}")
    return 0 if report.verdict.observable else 1


def _cmd_reduce(args) -> int:
    network = _parse(parse_network, args.file)
    reduced, classes = quotient_network(network)
    print(f"# reduced {len(network.members)} members to {len(reduced.members)}")
    for cls, rep in zip(classes.classes, classes.representatives):
        print(f"# class {rep}: {' '.join(cls)}")
    print(serialize_network(reduced), end="")
    return 0


def _cmd_synth(args) -> int:
    network = _parse(parse_network, args.file)
    report = run_algorithm3(network, _resolve_budget(args))
    if not report.verdict.observable:
        print(f"{report.verdict}; no observers synthesized", file=sys.stderr)
        return 1
    if args.out is None:
        print("\n".join(observer_documents(report.locals)), end="")
        return 0
    # Every name becomes files in --out: check them all before writing any.
    for name, _ in report.locals:
        bad = name in (".", "..") or Path(name).name != name or "\0" in name
        if bad or len(os.fsencode(f"{name}.obs")) > 255:  # the usual file name limit
            raise InvalidInputError(f"member {name!r} is not a plain file name for --out")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    documents = zip(report.locals, observer_documents(report.locals), dot_documents(report.locals))
    for (name, _), obs_text, dot_text in documents:
        written[f"{name}.obs"], written[f"{name}.dot"] = obs_text, dot_text
    for file, text in written.items():
        # Write in place and cut the tail: ext4 flushes a file truncated to empty when it closes.
        with open(os.open(out / file, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.truncate(f.write(text.encode()))
    print(f"wrote {' '.join(written)} to {out}", file=sys.stderr)
    return 0


def _cmd_compose(args) -> int:
    network = _parse(parse_network, args.file)
    composed = compose_network(network, _resolve_budget(args))
    print(serialize_network(Network((("composed", composed),))), end="")
    return 0


def _events(stream, name: str, session):
    """The labels of stream ``name``, one per line, skipping blanks and comments."""
    for raw in stream:
        line = raw.strip()
        if line.isidentifier():  # nonempty, with no whitespace and no "#": most labels
            yield line
            continue
        if not line or line.startswith("#"):
            continue
        if len(line.split()) != 1:
            done = session.steps
            raise InvalidInputError(f"{name}: one event per line, got {line!r} after {done} events")
        yield line


def _cmd_monitor(args) -> int:
    locals_: list = []
    known: dict = {}  # a copy's file, which differs only in its header, is parsed once
    for path in args.observers:
        locals_.extend(_parse(lambda text: parse_observers(text, known), path))
    session = start_session(locals_)
    live = args.events == "-"
    if live:
        name, stream = "<stdin>", getattr(sys.stdin, "buffer", None)
    else:
        name, stream = args.events, open(args.events, "rb")
    # Each line is decoded on its own, as UTF-8 whatever the locale, so an
    # undecodable line ends the stream after the events before it. A text
    # stream standing in for stdin is read as it is. Stdin may be live, so
    # each of its records is flushed before the next event is awaited.
    lines = sys.stdin if stream is None else map(bytes.decode, stream)
    write, flush = sys.stdout.write, sys.stdout.flush
    try:
        for line in session.lines(_events(lines, name, session)):
            write(line + "\n")
            if live:
                flush()
    except DesyncError as e:
        print(f"desync: {e}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as e:
        message = f"{name}: not valid UTF-8 after {session.steps} events ({e.reason})"
        raise InvalidInputError(message) from None
    finally:
        if not live:
            stream.close()
    return 0


def _cmd_export(args) -> int:
    network = _parse(parse_network, args.file)
    for name, m in network.members:
        print(export_dot(m, name), end="")
    return 0


def _cmd_preserve(args) -> int:
    for flag, value in (("--runs", args.runs), ("--length", args.length)):
        if value < 0:
            raise InvalidInputError(f"{flag} must not be negative, got {value}")
    network = _parse(parse_network, args.file)
    budget = _resolve_budget(args)
    report = preservation_check(
        network, runs=args.runs, max_len=args.length, seed=args.seed, max_states=budget
    )
    consistent = report.verdicts_agree and (
        report.observer_serves_full == report.observer_serves_reduced
    )
    if args.json:
        import json
        payload = report._asdict()  # the flags as they are; classes and verdicts as text
        payload["classes"] = [list(c) for c in report.classes.classes]
        for key in ("verdict_full", "verdict_reduced"):
            payload[key] = "observable" if payload[key].observable else "not-observable"
        print(json.dumps(payload, sort_keys=True))
    else:
        for cls, rep in zip(report.classes.classes, report.classes.representatives):
            print(f"class {rep}: {' '.join(cls)}")
        print(f"verdict full: {report.verdict_full}")
        print(f"verdict reduced: {report.verdict_reduced}")
        yes = {True: "yes", False: "no"}
        print(f"verdicts agree: {yes[report.verdicts_agree]}")
        print(f"reduced observer serves full network: {yes[report.observer_serves_full]}")
        print(f"reduced observer serves reduced network: {yes[report.observer_serves_reduced]}")
    return 0 if consistent else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and reused after.

    Parsing leaves the parser unchanged, so every ``main`` call in one
    process can share it.
    """
    parser = argparse.ArgumentParser(
        prog="critnet",
        description="Critical observability of networks of finite state machines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide critical observability of a network")
    p.add_argument("file")
    p.add_argument("--algorithm", choices=["1", "otf", "3"], default="3")
    p.add_argument("--budget", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", help="drop members bisimilar to an earlier one")
    p.add_argument("file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("synth", help="synthesize projected local observers")
    p.add_argument("file")
    p.add_argument("--out", help="directory for per-member .obs and .dot files")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("compose", help="materialize the monolithic composition")
    p.add_argument("file")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("monitor", help="replay an event stream through observers")
    p.add_argument("observers", nargs="+")
    p.add_argument("--events", default="-", help="event file, or - for stdin")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("export", help="export network members as DOT graphs")
    p.add_argument("file")
    p.add_argument("--dot", action="store_true", required=True)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("preserve", help="confirm reduction preserves the verdict")
    p.add_argument("file")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--length", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_preserve)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 0
    try:
        return args.func(args)
    except (CritnetError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
