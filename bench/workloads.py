"""The four workloads: seeded input generators, CLI jobs and their checks.

A generator takes a seed and a size table and returns a `Spec`: the input
files to write and a `plan` that turns them into CLI jobs. Building is part
of set-up and is timed; planning computes the reference answers and is not.
Every job carries a `verify` that reads the CLI's exit code and stdout and
returns a description of the first mismatch, or None.

References come from construction (deterministic members are observable;
copies are bisimilar to their base), from `model` (product sizes,
bisimulation classes, plant runs), or from the independent oracles in
`tests/oracles.py` (verdicts of random networks). None comes from critnet's
own decision procedures.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from model import (
    Machine,
    bisim_classes,
    bisimilar,
    product_counts,
    render_network,
    simulate,
)

# Full sizes are what the benchmark measures; toy sizes keep the self-test
# quick while running every job kind of every workload.
SIZES = {
    "chain": {
        "full": {"k": 7, "traces": 1, "events": 10_000},
        "toy": {"k": 3, "traces": 1, "events": 50},
    },
    "line": {
        "full": {"m": 6, "traces": 10, "events": 10_000},
        "toy": {"m": 2, "traces": 2, "events": 50},
    },
    "replicas": {
        "full": {"bases": 4, "base_states": 4, "members": 48, "traces": 1, "events": 3_000},
        "toy": {"bases": 2, "base_states": 3, "members": 6, "traces": 1, "events": 30},
    },
    "mixed": {
        "full": {"networks": 300, "max_states": 4, "events": 100},
        "toy": {"networks": 12, "max_states": 4, "events": 20},
    },
}

Verify = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Job:
    kind: str  # check | baseline | synth | compose | reduce | monitor
    name: str
    argv: tuple[str, ...]
    verify: Verify
    save_stdout: Path | None = None  # where a monitor job downstream reads it


@dataclass
class Spec:
    files: dict[str, str]
    plan: Callable[[Path, "Oracle"], list[Job]]
    # Aggregates every on-the-fly exploration must visit, when known.
    aggregates: int | None = None


class Oracle:
    """Verdicts from the repository's independent oracles.

    `tests/oracles.py` decides observability by walking words over a naive
    tuple product; it shares only the `Fsm` constructor and `succ` accessor
    with the library.
    """

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "tests"))
        import oracles

        from critnet import Fsm

        self._oracles = oracles
        self._fsm = Fsm

    def observable(self, machines: Sequence[Machine]) -> bool:
        fsms = [
            self._fsm(m.states, m.initial, m.alphabet, m.trans, m.critical)
            for m in machines
        ]
        ok, _ = self._oracles.semantic_observable(self._oracles.naive_compose(fsms))
        return ok


# --- checks on CLI output ----------------------------------------------------


def _fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not key.startswith("class "):
            fields[key] = value
    return fields


def ledger_of(out: str) -> tuple[int, int] | None:
    """The (space, time) ledger a `check` printed, if it printed one."""
    fields = _fields(out)
    try:
        return int(fields["space"]), int(fields["time"])
    except (KeyError, ValueError):
        return None


def _class_lines(lines: list[str], prefix: str) -> list[list[str]]:
    return [line.partition(": ")[2].split() for line in lines if line.startswith(prefix)]


def expect_check(algorithm: str, observable: bool, classes: list[list[str]] | None) -> Verify:
    want = "observable" if observable else "not observable"

    def verify(code: int, out: str) -> str | None:
        if code != (0 if observable else 1):
            return f"exit {code}, expected {0 if observable else 1}"
        fields = _fields(out)
        if fields.get("algorithm") != algorithm:
            return f"algorithm {fields.get('algorithm')!r}, expected {algorithm!r}"
        if fields.get("verdict") != want:
            return f"verdict {fields.get('verdict')!r}, expected {want!r}"
        if ("witness" in fields) == observable:
            return "witness printed for an observable network" if observable else "no witness"
        if ledger_of(out) is None:
            return "no space/time ledger"
        if classes is not None and _class_lines(out.splitlines(), "class ") != classes:
            return "classes differ from the constructed ones"
        return None

    return verify


def expect_synth_files(out_dir: Path, names: Sequence[str]) -> Verify:
    def verify(code: int, out: str) -> str | None:
        if code != 0 or out:
            return f"exit {code} with {len(out)} bytes on stdout, expected 0 and none"
        for name in names:
            obs = out_dir / f"{name}.obs"
            if not obs.is_file() or not obs.read_text().startswith(f"observer {name}\n"):
                return f"{obs.name} missing or not an observer of {name}"
            if not (out_dir / f"{name}.dot").read_text().startswith("digraph "):
                return f"{name}.dot is not a DOT graph"
        return None

    return verify


def expect_synth_stdout(observable: bool, names: Sequence[str]) -> Verify:
    def verify(code: int, out: str) -> str | None:
        if not observable:
            return None if code == 1 and not out else f"exit {code}, expected 1 and no output"
        if code != 0:
            return f"exit {code}, expected 0"
        headers = [line.split()[1] for line in out.splitlines() if line.startswith("observer ")]
        return None if headers == list(names) else f"observers {headers}, expected {list(names)}"

    return verify


def expect_compose(states: int, critical: int) -> Verify:
    def verify(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        counts = {"states": 0, "critical": 0}
        for line in out.splitlines():
            words = line.split()
            if words and words[0] in counts:
                counts[words[0]] += len(words) - 1
        if (counts["states"], counts["critical"]) != (states, critical):
            return (
                f"{counts['states']} states / {counts['critical']} critical, "
                f"expected {states} / {critical}"
            )
        return None

    return verify


def expect_reduce(members: int, classes: list[list[str]]) -> Verify:
    head = f"# reduced {members} members to {len(classes)}"

    def verify(code: int, out: str) -> str | None:
        lines = out.splitlines()
        if code != 0 or not lines or lines[0] != head:
            return f"exit {code}, first line {lines[:1]}, expected {head!r}"
        if _class_lines(lines, "# class ") != classes:
            return "classes differ from the reference"
        if sum(line.startswith("fsm ") for line in lines) != len(classes):
            return "reduced network does not have one member per class"
        return None

    return verify


def expect_monitor(events: Sequence[str], flags: Sequence[int]) -> Verify:
    def verify(code: int, out: str) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        lines = out.splitlines()
        if len(lines) != len(events):
            return f"{len(lines)} records for {len(events)} events"
        for i, (line, label, flag) in enumerate(zip(lines, events, flags), start=1):
            words = line.split()
            if words[:2] != [str(i), label] or words[-1] != str(flag):
                return f"record {i} is {line!r}, expected event {label} with flag {flag}"
        return None

    return verify


# --- shared job lists ----------------------------------------------------------


def _traces(
    files: dict[str, str], tag: str, members: Sequence[Machine], rng: random.Random,
    traces: int, events: int,
) -> list[tuple[str, list[int]]]:
    """Write `traces` plant runs as event files; return (file, flags) pairs."""
    out = []
    for i in range(traces):
        run, flags = simulate(members, rng, events)
        name = f"{tag}-{i}.events"
        files[name] = "".join(label + "\n" for label in run)
        out.append((name, flags))
    return out


def _network_jobs(
    work: Path,
    tag: str,
    net: str,
    members: Sequence[Machine],
    observable: bool,
    classes: list[list[str]],
    compose: tuple[str, Sequence[Machine]],
    traces: Sequence[tuple[str, Sequence[int]]],
    synth_out: bool = True,
) -> list[Job]:
    """Every command once on one network, in the order a user would run them."""
    path = str(work / net)
    names = [m.name for m in members]
    out_dir = work / "out" / tag
    compose_net, compose_members = compose
    jobs = [
        Job("check", f"{tag}:check", ("check", path), expect_check("3", observable, classes)),
        Job(
            "baseline",
            f"{tag}:check-1",
            ("check", path, "--algorithm", "1"),
            expect_check("1", observable, None),
        ),
    ]
    obs_paths: tuple[str, ...]
    if synth_out:
        jobs.append(
            Job(
                "synth",
                f"{tag}:synth",
                ("synth", path, "--out", str(out_dir)),
                expect_synth_files(out_dir, names) if observable else expect_synth_stdout(False, names),
            )
        )
        obs_paths = tuple(str(out_dir / f"{name}.obs") for name in names)
    else:
        saved = work / f"{tag}.obs"
        jobs.append(
            Job(
                "synth",
                f"{tag}:synth",
                ("synth", path),
                expect_synth_stdout(observable, names),
                save_stdout=saved if observable else None,
            )
        )
        obs_paths = (str(saved),)
    jobs.append(
        Job(
            "compose",
            f"{tag}:compose",
            ("compose", str(work / compose_net)),
            expect_compose(*product_counts(compose_members)),
        )
    )
    jobs.append(Job("reduce", f"{tag}:reduce", ("reduce", path), expect_reduce(len(members), classes)))
    for i, (events, flags) in enumerate(traces):
        if observable and flags:
            jobs.append(
                Job(
                    "monitor",
                    f"{tag}:monitor-{i}",
                    ("monitor", *obs_paths, "--events", str(work / events)),
                    expect_monitor(events_of(work / events), flags),
                )
            )
    return jobs


def events_of(path: Path) -> list[str]:
    return path.read_text().split()


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# --- chain -------------------------------------------------------------------


def build_chain(seed: int, k: int, traces: int, events: int) -> Spec:
    """k three-slot buffers in a row; B_i fills on t_i and drains on t_{i+1}.

    Every member is deterministic, so the network is observable, and every
    alphabet differs, so reduction merges nothing. All 3^k aggregates are
    reachable: the buffers' fill levels are independent.
    """
    rng = random.Random(seed)
    tag = "".join(rng.choice("abcdefghjk") for _ in range(3))
    members = []
    for i in range(1, k + 1):
        s = [f"{tag}{i}_{level}" for level in range(3)]
        fill, drain = f"t{i}", f"t{i + 1}"
        members.append(
            Machine(
                f"B{i}",
                tuple(s),
                (s[0],),
                (fill, drain),
                frozenset([s[2]]),
                ((s[0], fill, s[1]), (s[1], fill, s[2]), (s[1], drain, s[0]), (s[2], drain, s[1])),
            )
        )
    members = _shuffled(rng, members)
    files = {"chain.net": render_network(members)}
    runs = _traces(files, "chain", members, rng, traces, events)

    def plan(work: Path, oracle: Oracle) -> list[Job]:
        singletons = [[m.name] for m in members]
        return _network_jobs(
            work, "chain", "chain.net", members, True, singletons, ("chain.net", members), runs
        )

    return Spec(files, plan, aggregates=3**k)


# --- line --------------------------------------------------------------------


def build_line(seed: int, m: int, traces: int, events: int) -> Spec:
    """A transfer line: Feeder, m stations, Drain, handing parts along.

    Shared label p_i moves a part from cell i to cell i+1. Every cell owns a
    private label that changes its state: the feeder's `load`, station i's
    `w_i` (work on the part it holds), the drain's `done`. A station holding
    a finished part is critical. Members are deterministic, so the line is
    observable, and alphabets differ, so reduction merges nothing.
    """
    rng = random.Random(seed)
    tag = "".join(rng.choice("abcdefghjk") for _ in range(3))
    feeder = Machine(
        "Feeder",
        (f"{tag}idle", f"{tag}busy"),
        (f"{tag}idle",),
        ("load", "p0"),
        frozenset(),
        ((f"{tag}idle", "load", f"{tag}busy"), (f"{tag}busy", "p0", f"{tag}idle")),
    )
    stations = []
    for i in range(1, m + 1):
        e, h, d = (f"{tag}{i}{x}" for x in ("empty", "held", "done"))
        stations.append(
            Machine(
                f"S{i}",
                (e, h, d),
                (e,),
                (f"p{i - 1}", f"w{i}", f"p{i}"),
                frozenset([d]),
                ((e, f"p{i - 1}", h), (h, f"w{i}", d), (d, f"p{i}", e)),
            )
        )
    drain = Machine(
        "Drain",
        (f"{tag}ready", f"{tag}work"),
        (f"{tag}ready",),
        (f"p{m}", "done"),
        frozenset(),
        ((f"{tag}ready", f"p{m}", f"{tag}work"), (f"{tag}work", "done", f"{tag}ready")),
    )
    members = _shuffled(rng, [feeder, *stations, drain])
    files = {"line.net": render_network(members)}
    runs = _traces(files, "line", members, rng, traces, events)

    def plan(work: Path, oracle: Oracle) -> list[Job]:
        singletons = [[x.name] for x in members]
        return _network_jobs(
            work, "line", "line.net", members, True, singletons, ("line.net", members), runs
        )

    return Spec(files, plan)


# --- replicas ------------------------------------------------------------------

BASE_SHAPES = 2014  # fixed stream for the replicas' base machines


def _base_machine(rng: random.Random, name: str, n: int, labels: Sequence[str]) -> Machine:
    """A nondeterministic machine whose criticality follows its trace.

    A random complete deterministic machine D over n states is lifted to
    states (d, j), j in {0, 1}; each move goes to the D-successor with one
    or both values of j. Criticality depends on d alone, so the machine is
    observable, and it is bisimilar to D.
    """
    delta = {(d, a): rng.randrange(n) for d in range(n) for a in labels}
    critical = set(rng.sample(range(n), rng.randint(1, n - 1)))
    state = {(d, j): f"{name}_{d}{j}" for d in range(n) for j in (0, 1)}
    trans = []
    for (d, j), src in state.items():
        for a in labels:
            targets = (0, 1) if rng.random() < 0.3 else (rng.randrange(2),)
            trans.extend((src, a, state[(delta[(d, a)], t)]) for t in targets)
    return Machine(
        name,
        tuple(state.values()),
        (state[(0, 0)], state[(0, 1)]),
        tuple(labels),
        frozenset(s for (d, _), s in state.items() if d in critical),
        tuple(trans),
    )


def build_replicas(
    seed: int, bases: int, base_states: int, members: int, traces: int, events: int
) -> Spec:
    """Bisimilar copies of a few pairwise non-bisimilar base machines.

    Copies are renamed or split-state variants of a base, so the expected
    classes are the bases' families. Bases are observable by construction;
    the verdict itself comes from the oracle on the base network.

    The bases' structure is drawn from a fixed stream and each base gets
    the same number of copies, half of them split, so every seed poses the
    same amount of work. The seed picks names, split states and the member
    order.
    """
    rng = random.Random(seed)
    shapes = random.Random(BASE_SHAPES)
    labels = ("a", "b", "c")
    base_list: list[Machine] = []
    while len(base_list) < bases:
        cand = _base_machine(shapes, f"R{len(base_list) + 1}", base_states, labels)
        if not any(bisimilar(cand, b) for b in base_list):
            base_list.append(cand)
    tag = "".join(rng.choice("abcdefghjk") for _ in range(3))
    base_list = [b.renamed(b.name, tag) for b in base_list]
    family = {b.name: b.name for b in base_list}
    all_members = list(base_list)
    for c in range(members - bases):
        base = base_list[c % bases]
        name = f"{base.name}c{c}"
        if (c // bases) % 2 == 0:
            copy = base.renamed(name, f"c{c}")
        else:
            copy = base.split(name, rng.choice(base.states), f"{base.name}_tw{c}")
        family[name] = base.name
        all_members.append(copy)
    all_members = _shuffled(rng, all_members)
    files = {
        "replicas.net": render_network(all_members),
        "bases.net": render_network(base_list),
    }
    runs = _traces(files, "replicas", all_members, rng, traces, events)

    classes: dict[str, list[str]] = {}
    for m in all_members:
        classes.setdefault(family[m.name], []).append(m.name)

    def plan(work: Path, oracle: Oracle) -> list[Job]:
        observable = oracle.observable(base_list)
        return _network_jobs(
            work, "replicas", "replicas.net", all_members, observable, list(classes.values()),
            ("bases.net", base_list), runs,
        )

    return Spec(files, plan)


# --- mixed -----------------------------------------------------------------------


def _random_machine(rng: random.Random, max_states: int, alphabet: list[str]) -> Machine:
    """Random nondeterministic machine, modelled on the test suite's generator."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    trans = []
    for s in states:
        for a in alphabet:
            if rng.random() < 0.55:
                width = 2 if rng.random() < 0.3 else 1
                trans.extend((s, a, t) for t in rng.sample(states, min(width, n)))
    critical = {s for s in states if rng.random() < 0.35}
    sides = [side for side in (sorted(critical), [s for s in states if s not in critical]) if side]
    side = rng.choice(sides)
    initial = rng.sample(side, rng.randint(1, min(2, len(side))))
    return Machine("", tuple(states), tuple(initial), tuple(alphabet), frozenset(critical), tuple(trans))


def _random_network(rng: random.Random, max_states: int) -> list[Machine]:
    members = []
    for i in range(rng.randint(1, 4)):
        alphabet = rng.sample(["a", "b", "c", "d"], rng.randint(1, 2))
        while len(alphabet) < 4 and rng.random() < 0.4:
            alphabet.append(f"p{i}{len(alphabet)}")
        m = _random_machine(rng, max_states, alphabet)
        members.append(Machine(f"M{i + 1}", m.states, m.initial, m.alphabet, m.critical, m.trans))
    return members


def build_mixed(seed: int, networks: int, max_states: int, events: int) -> Spec:
    """Many small random networks with private labels; some not observable."""
    rng = random.Random(seed)
    nets = []
    files: dict[str, str] = {}
    for idx in range(networks):
        members = _random_network(rng, max_states)
        files[f"n{idx:03d}.net"] = render_network(members)
        nets.append((members, _traces(files, f"n{idx:03d}", members, rng, 1, events)))

    def plan(work: Path, oracle: Oracle) -> list[Job]:
        jobs = []
        for idx, (members, runs) in enumerate(nets):
            net = f"n{idx:03d}.net"
            jobs.extend(
                _network_jobs(
                    work, f"n{idx:03d}", net, members, oracle.observable(members),
                    bisim_classes(members), (net, members), runs, synth_out=False,
                )
            )
        return jobs

    return Spec(files, plan)


GENERATORS: dict[str, Callable[..., Spec]] = {
    "chain": build_chain,
    "line": build_line,
    "replicas": build_replicas,
    "mixed": build_mixed,
}
