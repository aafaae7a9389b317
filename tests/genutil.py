"""Seeded random generators for the randomized suites.

Everything takes an explicit random.Random so suites are reproducible; the
acceptance tests pin their seeds.
"""

from __future__ import annotations

import random

from critnet import Fsm, Network, build_observer, check_observable

SHARED_POOL = ["a", "b", "c", "d"]


def random_fsm(
    rng: random.Random,
    max_states: int = 5,
    alphabet: list[str] | None = None,
    max_labels: int = 3,
    density: float = 0.55,
    critical_bias: float = 0.35,
    multi_initial: bool = True,
    min_states: int = 1,
) -> Fsm:
    n = rng.randint(min_states, max_states)
    states = [f"q{i}" for i in range(n)]
    if alphabet is None:
        alphabet = rng.sample(SHARED_POOL, rng.randint(1, max_labels))
    transitions = []
    for s in states:
        for a in alphabet:
            if rng.random() < density:
                width = 2 if rng.random() < 0.3 else 1
                for t in rng.sample(states, min(width, n)):
                    transitions.append((s, a, t))
    critical = {s for s in states if rng.random() < critical_bias}
    noncrit = [s for s in states if s not in critical]
    sides = [side for side in (sorted(critical), noncrit) if side]
    side = rng.choice(sides)
    k0 = rng.randint(1, min(2, len(side))) if multi_initial else 1
    initial = rng.sample(side, k0)
    return Fsm(states, initial, alphabet, transitions, critical)


def random_deterministic_fsm(
    rng: random.Random, max_states: int = 5, alphabet: list[str] | None = None
) -> Fsm:
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    if alphabet is None:
        alphabet = rng.sample(SHARED_POOL, rng.randint(1, 3))
    transitions = []
    for s in states:
        for a in alphabet:
            if rng.random() < 0.6:
                transitions.append((s, a, rng.choice(states)))
    critical = {s for s in states if rng.random() < 0.35}
    initial = [states[0]]
    if critical and states[0] in critical:
        critical |= set(initial)
    return Fsm(states, initial, alphabet, transitions, critical)


def observable_fsm(
    rng: random.Random, max_states: int = 5, alphabet: list[str] | None = None
) -> Fsm:
    """Rejection-sample an observable machine; fall back to a deterministic one."""
    for _ in range(60):
        m = random_fsm(rng, max_states=max_states, alphabet=alphabet)
        if check_observable(build_observer(m), m.critical).observable:
            return m
    return random_deterministic_fsm(rng, max_states=max_states, alphabet=alphabet)


def random_network(
    rng: random.Random,
    max_members: int = 4,
    max_states: int = 5,
    max_labels: int = 4,
    observable_members: bool = False,
) -> Network:
    """Random network with alphabets mixing a shared pool and private labels."""
    n_members = rng.randint(1, max_members)
    members = []
    for i in range(n_members):
        n_shared = rng.randint(1, min(2, max_labels))
        alpha = rng.sample(SHARED_POOL, n_shared)
        while len(alpha) < max_labels and rng.random() < 0.4:
            alpha.append(f"p{i}{len(alpha)}")
        if observable_members:
            m = observable_fsm(rng, max_states=max_states, alphabet=alpha)
        else:
            m = random_fsm(rng, max_states=max_states, alphabet=alpha)
        members.append((f"M{i + 1}", m))
    return Network(tuple(members))


def renamed_copy(m: Fsm, prefix: str) -> Fsm:
    """Same machine with every state renamed; bisimilar by construction.

    A common prefix keeps the names' sorted order, so the copy has the
    original's state ids and int table.
    """
    return renamed(m, {s: f"{prefix}{s}" for s in m.states})


def renamed(m: Fsm, ren: dict[str, str]) -> Fsm:
    """Same machine with each state ``s`` renamed ``ren[s]``."""
    return Fsm(
        ren.values(),
        (ren[s] for s in m.initial),
        m.alphabet,
        ((ren[a], label, ren[b]) for a, label, b in m.transitions()),
        (ren[s] for s in m.critical),
    )


def equal_rows_fsm(critical=("r",), initial=("p",), alphabet=("a", "b")) -> Fsm:
    """p -a-> q -a-> {p, r}, r -b-> p: every choice of flags and alphabet
    gives the same ``int_moves`` rows."""
    moves = [("p", "a", "q"), ("q", "a", "p"), ("q", "a", "r"), ("r", "b", "p")]
    return Fsm(["p", "q", "r"], initial, alphabet, moves, critical)


def split_state_variant(rng: random.Random, m: Fsm, prefix: str) -> Fsm:
    """Duplicate one state with identical future and past; bisimilar to m."""
    target = rng.choice(sorted(m.states))
    twin = f"{prefix}{target}tw"
    states = set(m.states) | {twin}
    transitions = list(m.transitions())
    for src, label, dst in m.transitions():
        if src == target:
            transitions.append((twin, label, dst))
        if dst == target:
            transitions.append((src, label, twin))
    # Self-loops on the split state need the twin-to-twin copies too.
    for label in m.alphabet:
        if target in m.succ(target, label):
            transitions.append((twin, label, twin))
    initial = set(m.initial) | ({twin} if target in m.initial else set())
    critical = set(m.critical) | ({twin} if target in m.critical else set())
    return Fsm(states, initial, m.alphabet, transitions, critical)


def with_duplicates(
    rng: random.Random, network: Network, copies: int, split: bool = False
) -> Network:
    """Append bisimilar duplicates of randomly chosen members."""
    members = list(network.members)
    for c in range(copies):
        name, m = rng.choice(network.members)
        if split:
            dup = split_state_variant(rng, m, f"d{c}")
        else:
            dup = renamed_copy(m, f"d{c}_")
        members.append((f"{name}_copy{c}", dup))
    return Network(tuple(members))


def block_members(
    rng: random.Random, sizes: list[int], reach: int = 3, branching: float = 0.3
) -> list[Fsm]:
    """Members whose labels the packed walks step in blocks.

    Member i has ``sizes[i]`` states and moves among its first ``reach``
    only, so the others just widen its packed field. It owns "b{i}" and
    "b{i+1}" of a run shared by neighbours, as in a chain of buffers; "m",
    which every member owns and which sorts between that run and the
    private labels "p{i}"; and "r{i}" and "r{i+2}" of a last run. Each run
    spans more than one block. A move has two targets with probability
    ``branching``. On the "b" label it shares with its left neighbour, one member
    has no move from its initial state, only from a state the walk reaches
    later, so that label first fires after the first step.
    """
    count, late = len(sizes), rng.randrange(1, len(sizes))
    assert 2 <= count <= 7 and min(sizes) >= 2  # "r{count + 1}" is one digit
    machines = []
    for i, n in enumerate(sizes):
        states = [f"q{j}" for j in range(n)]
        alphabet = ["m", f"b{i}", f"b{i + 1}", f"p{i}", f"r{i}", f"r{i + 2}"]
        moves = {
            (states[x], label, y)
            for x in range(min(reach, n))
            for label in alphabet
            if rng.random() < 0.6
            for y in rng.sample(states[:reach], 2 if rng.random() < branching else 1)
        }
        moves.add(("q0", f"p{i}", "q1"))
        if i == late:
            moves = {move for move in moves if move[:2] != ("q0", f"b{i}")}
            moves.add(("q1", f"b{i}", rng.choice(states[:reach])))
        critical = [x for x in states[:reach] if rng.random() < 0.3]
        machines.append(Fsm(states, ["q0"], alphabet, sorted(moves), critical))
    return machines
