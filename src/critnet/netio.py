"""Reading and writing networks, observer documents, and DOT graphs.

The network format is line oriented and diffable: `fsm <name>` opens a
member section, then `states`, `initial`, `alphabet`, `critical` list
tokens and each `trans <src> <label> <dst>` line adds one transition.
Repeating a directive accumulates. `#` starts a comment. Observer documents
mirror the layout with `observer` sections, estimate tokens like "{p,q}",
and a `flag` directive listing the states that raise the output.

The network parser checks each distinct state token and each distinct
label once per document, at its first occurrence, and builds every machine
through the public ``Fsm`` constructor. Ids follow sorted names, so the
serializer writes each table in id order and checks every token it writes.

Serialization sorts everything, so equal objects always produce identical
bytes. The token "eps" is reserved for the empty word and is never a label,
so a document that declares it fails as a malformed machine.
"""

from __future__ import annotations

from .compose import Network, split_commas
from .errors import FormatError, MalformedFsmError
from .fsm import Fsm
from .observer import ObserverFsm, state_sort_key, state_text

_FORBIDDEN = set('#"{}') | set(" \t\r\n")


def _check_token(token: str, what: str, line: int | None = None) -> str:
    if not token:
        raise FormatError(f"empty {what}", line)
    if not _FORBIDDEN.isdisjoint(token):
        bad = sorted(set(token) & _FORBIDDEN)
        raise FormatError(f"{what} {token!r} contains forbidden {bad}", line)
    return token


def _check_state(token: str, line: int | None = None) -> str:
    """A state token must come back whole from an estimate like "{p,q}".

    So besides the characters every token avoids, its parentheses balance
    and it has no comma outside them; product names like "(x,y)" pass.
    """
    _check_token(token, "state", line)
    # Plain names and flat product names like "(x,y)", nearly all tokens, need no scan.
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


def _logical_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield number, tokens


class _FsmSection:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.states: list[str] = []
        self.initial: list[str] = []
        self.alphabet: list[str] = []
        self.critical: list[str] = []
        # Kept in document order; a dict so that repeats are found.
        self.trans: dict[tuple[str, str, str], None] = {}


def parse_network(text: str) -> Network:
    """Parse a network document into named machines.

    Each distinct state token and each distinct label is checked once per
    document, at its first occurrence, so an error names the first line
    that holds the bad token. States and labels are remembered apart: a
    label such as "x,y" is not a valid state.
    """
    sections: list[_FsmSection] = []
    names: set[str] = set()
    current: _FsmSection | None = None
    good_states: set[str] = set()
    good_labels: set[str] = set()

    def check_states(tokens: list[str], line: int) -> list[str]:
        for token in tokens:
            if token not in good_states:
                good_states.add(_check_state(token, line))
        return tokens

    def check_labels(tokens: list[str], line: int) -> list[str]:
        for token in tokens:
            if token not in good_labels:
                good_labels.add(_check_token(token, "label", line))
        return tokens

    for number, tokens in _logical_lines(text):
        directive = tokens[0]
        if directive == "trans" and current is not None:
            if len(tokens) != 4:
                raise FormatError("trans takes source, label, target", number)
            _, src, label, dst = tokens
            if not (src in good_states and label in good_labels and dst in good_states):
                check_states([src], number)
                check_labels([label], number)
                check_states([dst], number)
            triple = (src, label, dst)
            if triple in current.trans:
                raise FormatError(f"duplicate transition {src} {label} {dst}", number)
            current.trans[triple] = None
        elif directive == "fsm":
            if len(tokens) != 2:
                raise FormatError("fsm takes exactly one name", number)
            name = _check_token(tokens[1], "member name", number)
            if name in names:
                raise FormatError(f"duplicate member name {name!r}", number)
            names.add(name)
            current = _FsmSection(name, number)
            sections.append(current)
        elif current is None:
            raise FormatError(f"{directive!r} before any fsm section", number)
        elif directive == "alphabet":
            current.alphabet.extend(check_labels(tokens[1:], number))
        elif directive in ("states", "initial", "critical"):
            getattr(current, directive).extend(check_states(tokens[1:], number))
        else:
            raise FormatError(f"unknown directive {directive!r}", number)
    if not sections:
        raise FormatError("document contains no fsm sections")

    members = []
    for section in sections:
        try:
            m = Fsm(
                section.states,
                section.initial,
                section.alphabet,
                section.trans,
                section.critical,
            )
        except MalformedFsmError as e:
            raise FormatError(f"fsm {section.name!r}: {e}", section.line) from e
        members.append((section.name, m))
    return Network(tuple(members))


def serialize_network(network: Network) -> str:
    """Canonical text for a network; equal networks give equal bytes.

    Each member is written from its int table in id order, which is
    sorted-name order. Every distinct token is checked once per document.
    """
    good_states: set[str] = set()
    good_labels: set[str] = set()
    chunks = []
    for name, m in network.members:
        _check_token(name, "member name")
        names, rows, flags = m.int_moves()
        labels = sorted(m.alphabet)
        for state in names:
            if state not in good_states:
                good_states.add(_check_state(state))
        for label in labels:
            if label not in good_labels:
                good_labels.add(_check_token(label, "label"))
        lines = [f"fsm {name}", "  states " + " ".join(names)]
        lines.append("  initial " + " ".join([x for x, (_, i) in zip(names, flags) if i]))
        if labels:
            lines.append("  alphabet " + " ".join(labels))
        if m.critical:
            lines.append("  critical " + " ".join([x for x, (c, _) in zip(names, flags) if c]))
        append = lines.append
        for src, row in zip(names, rows):
            for label, ys in row.items():
                for j in ys:
                    append(f"  trans {src} {label} {names[j]}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def _split_estimate(token: str, line: int | None) -> frozenset[str]:
    if len(token) < 2 or not (token.startswith("{") and token.endswith("}")):
        raise FormatError(f"estimate {token!r} must look like {{p,q}}", line)
    parts = split_commas(token[1:-1], "(", ")")
    if parts is None:
        raise FormatError(f"unbalanced parentheses in {token!r}", line)
    if not all(parts):
        raise FormatError(f"estimate {token!r} has an empty component", line)
    for part in parts:
        _check_token(part, "state", line)
    return frozenset(parts)


class _ObserverSection:
    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.states: list[frozenset[str]] = []
        self.initial: list[frozenset[str]] = []
        self.alphabet: list[str] = []
        self.flagged: list[frozenset[str]] = []
        self.trans: dict[tuple[frozenset[str], str], frozenset[str]] = {}


def parse_observers(text: str) -> tuple[tuple[str, ObserverFsm], ...]:
    """Parse one or more observer sections into (name, observer) pairs.

    Each distinct estimate token is split once per document; a malformed
    one fails at its first line, before it could be remembered.
    """
    sections: list[_ObserverSection] = []
    names: set[str] = set()
    current: _ObserverSection | None = None
    seen: dict[str, frozenset[str]] = {}

    def estimate(token: str, line: int) -> frozenset[str]:
        z = seen.get(token)
        if z is None:
            z = seen[token] = _split_estimate(token, line)
        return z

    for number, tokens in _logical_lines(text):
        directive, args = tokens[0], tokens[1:]
        if directive == "observer":
            if len(args) != 1:
                raise FormatError("observer takes exactly one name", number)
            name = _check_token(args[0], "observer name", number)
            if name in names:
                raise FormatError(f"duplicate observer name {name!r}", number)
            names.add(name)
            current = _ObserverSection(name, number)
            sections.append(current)
            continue
        if current is None:
            raise FormatError(f"{directive!r} before any observer section", number)
        if directive in ("states", "initial", "flag"):
            estimates = [estimate(a, number) for a in args]
            target = {"states": current.states, "initial": current.initial, "flag": current.flagged}
            target[directive].extend(estimates)
        elif directive == "alphabet":
            current.alphabet.extend(_check_token(a, "label", number) for a in args)
        elif directive == "trans":
            if len(args) != 3:
                raise FormatError("trans takes source, label, target", number)
            src = estimate(args[0], number)
            label = _check_token(args[1], "label", number)
            dst = estimate(args[2], number)
            if (src, label) in current.trans:
                raise FormatError(
                    f"second transition from {args[0]} on {label!r}: "
                    "observers are deterministic",
                    number,
                )
            current.trans[(src, label)] = dst
        else:
            raise FormatError(f"unknown directive {directive!r}", number)
    if not sections:
        raise FormatError("document contains no observer sections")

    out = []
    for section in sections:
        if len(section.initial) != 1:
            raise FormatError(
                f"observer {section.name!r} needs exactly one initial estimate",
                section.line,
            )
        declared = set(section.states)
        for z in section.flagged:
            if z not in declared:
                raise FormatError(
                    f"observer {section.name!r} flags undeclared state {state_text(z)}",
                    section.line,
                )
        flagged = set(section.flagged)
        outputs = {z: (1 if z in flagged else 0) for z in section.states}
        try:
            obs = ObserverFsm(
                list(dict.fromkeys(section.states)),
                section.initial[0],
                section.alphabet,
                section.trans,
                outputs,
            )
        except MalformedFsmError as e:
            raise FormatError(f"observer {section.name!r}: {e}", section.line) from e
        out.append((section.name, obs))
    return tuple(out)


def serialize_observer(name: str, obs: ObserverFsm) -> str:
    """Canonical text for one local observer with estimate states."""
    _check_token(name, "observer name")
    for z in obs.states:
        if not isinstance(z, frozenset):
            raise FormatError(
                "only estimate-state observers serialize; composed banks do not"
            )
        for state in z:
            _check_state(state)
    for label in obs.alphabet:
        _check_token(label, "label")
    ordered = sorted(obs.states, key=state_sort_key)
    lines = [f"observer {name}"]
    lines.append("  states " + " ".join(state_text(z) for z in ordered))
    lines.append("  initial " + state_text(obs.initial))
    if obs.alphabet:
        lines.append("  alphabet " + " ".join(sorted(obs.alphabet)))
    flagged = sorted([z for z, flag in zip(obs.states, obs.flags) if flag], key=state_sort_key)
    if flagged:
        lines.append("  flag " + " ".join(state_text(z) for z in flagged))
    for src, label, dst in obs.transitions():
        lines.append(f"  trans {state_text(src)} {label} {state_text(dst)}")
    return "\n".join(lines) + "\n"


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(machine: Fsm | ObserverFsm, name: str = "critnet") -> str:
    """Graphviz text; critical or flagged states get a double circle.

    Output is a pure function of the machine, byte for byte.
    """
    lines = [f"digraph {_quote(name)} {{", "  rankdir=LR;", "  node [shape=circle];"]
    if isinstance(machine, Fsm):
        ordered = sorted(machine.states)
        initials = sorted(machine.initial)
        texts = {x: x for x in ordered}
        doubled = machine.critical
        edges = list(machine.transitions())
    else:
        ordered = sorted(machine.states, key=state_sort_key)
        initials = [machine.initial]
        texts = {z: state_text(z) for z in ordered}
        doubled = {z for z, flag in zip(machine.states, machine.flags) if flag}
        edges = machine.transitions()
    for i in range(len(initials)):
        lines.append(f'  "__start{i}" [shape=point, label=""];')
    for x in ordered:
        shape = " [shape=doublecircle]" if x in doubled else ""
        lines.append(f"  {_quote(texts[x])}{shape};")
    for i, x in enumerate(initials):
        lines.append(f'  "__start{i}" -> {_quote(texts[x])};')
    for src, label, dst in edges:
        lines.append(
            f"  {_quote(texts[src])} -> {_quote(texts[dst])} [label={_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
