"""Reading and writing networks, observer documents, and DOT graphs.

The network format is line oriented and diffable: `fsm <name>` opens a
member section, then `states`, `initial`, `alphabet`, `critical` list
tokens and each `trans <src> <label> <dst>` line adds one transition.
Repeating a directive accumulates. `#` starts a comment. Observer documents
mirror the layout with `observer` sections, estimate tokens like "{p,q}",
and a `flag` directive listing the states that raise the output.

Both formats go through one section reader and one section writer. The
reader checks each distinct state token and each distinct label once per
document, at its first occurrence, and each parser builds its machines
through the public constructor. The writers render one canonical view of
a machine (state texts in canonical order, moves by position, and which
positions are initial and which critical or flagged), which DOT export
renders too, and check every state and label they write once per call.
Each distinct machine object is rendered once per call: a later member
holding it, as copies hold their class representative's local observer,
gets those lines under its own header line, its name checked as always.
The observer reader has the mirror rule for a caller that passes one
``known`` dict across documents: a document that is one section under a
first line ``observer NAME`` is parsed once per distinct text after that
line, and a copy's file gets the same object under its own name, checked
as always. Repeated sections inside one document still parse each time.

Serialization sorts everything, so equal objects always produce identical
bytes. The token "eps" is reserved for the empty word and is never a label,
so a document that declares it fails as a malformed machine.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence

from .compose import Network, split_commas
from .errors import FormatError, MalformedFsmError
from .fsm import Fsm
from .observer import ObserverFsm, state_sort_key, state_text

# `\s` matches exactly the characters for which str.isspace() holds, which
# are the ones the reader splits lines and tokens on.
_FORBIDDEN = re.compile(r'[#"{}\s]')


def _check_token(token: str, what: str, line: int | None = None) -> str:
    if token.isidentifier():  # no forbidden character, and no bracket or comma either
        return token
    if not token:
        raise FormatError(f"empty {what}", line)
    if _FORBIDDEN.search(token):
        bad = sorted(set(_FORBIDDEN.findall(token)))
        raise FormatError(f"{what} {token!r} contains forbidden {bad}", line)
    return token


def _check_state(token: str, line: int | None = None) -> str:
    """A state token must come back whole from an estimate like "{p,q}".

    So besides the characters every token avoids, its parentheses balance
    and it has no comma outside them; product names like "(x,y)" pass.
    """
    # Plain names and flat product names, "(x,y)" around an identifier and commas, need no scan.
    if token.isidentifier() or (
        token[1:-1].replace(",", "_").isidentifier() and token[0] + token[-1] == "()"
    ):
        return token
    _check_token(token, "state", line)
    if "(" not in token and ")" not in token and "," not in token:
        return token
    parts = split_commas(token, "(", ")")
    if parts is None:
        raise FormatError(f"unbalanced parentheses in {token!r}", line)
    if len(parts) > 1:
        raise FormatError(f"state {token!r} has a comma outside parentheses", line)
    return token


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


def _read_sections(
    text: str, header: str, noun: str, mark: str, state: Callable[[str, int], object],
    deterministic: bool, duplicate: str,
) -> list[tuple[str, int, dict[str, list], dict]]:
    """Split a document in either format into sections, each token checked once.

    A section opens with `<header> <name>`; `noun` says what the name names.
    Per section it returns the name, the header's line number, the
    `states`, `initial`, `<mark>` and `alphabet` lists in a dict, and the
    moves in document order, ``{(src, label): dst}`` if ``deterministic``
    and ``{(src, label, dst): line}`` if not. ``state(token, line)`` gives a
    state token's value or raises; it runs once per distinct token. Labels
    are checked once each, apart from states, so "x,y" is a label but not a
    state. A move whose key repeats fails with ``duplicate`` formatted with
    the line's three tokens.
    """
    sections = []
    names: set[str] = set()
    lists: dict[str, list] | None = None
    values: dict[str, object] = {}
    labels: set[str] = set()

    def value(token: str, line: int):
        z = values.get(token)
        if z is None:
            z = values[token] = state(token, line)
        return z

    def label(token: str, line: int) -> str:
        if token not in labels:
            labels.add(_check_token(token, "label", line))
        return token

    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "trans" and lists is not None:
            try:
                _, a, x, b = tokens
            except ValueError:
                raise FormatError("trans takes source, label, target", number) from None
            src, dst = values.get(a), values.get(b)
            if src is None or x not in labels or dst is None:
                src, x, dst = value(a, number), label(x, number), value(b, number)
            if deterministic:
                if (src, x) in moves:
                    raise FormatError(duplicate.format(a, x, b), number)
                moves[src, x] = dst
            elif moves.setdefault((src, x, dst), number) != number:  # one hash per move
                raise FormatError(duplicate.format(a, x, b), number)
        elif directive.startswith("#"):
            continue
        elif directive == header:
            if len(tokens) != 2:
                raise FormatError(f"{header} takes exactly one name", number)
            name = _check_token(tokens[1], noun, number)
            if name in names:
                raise FormatError(f"duplicate {noun} {name!r}", number)
            names.add(name)
            lists = {"states": [], "initial": [], mark: [], "alphabet": []}
            moves: dict = {}
            sections.append((name, number, lists, moves))
        elif lists is None:
            raise FormatError(f"{directive!r} before any {header} section", number)
        elif directive == "alphabet":
            lists[directive].extend([label(t, number) for t in tokens[1:]])
        elif directive in lists:
            target = lists[directive]
            for token in tokens[1:]:
                z = values.get(token)
                target.append(value(token, number) if z is None else z)
        else:
            raise FormatError(f"unknown directive {directive!r}", number)
    if not sections:
        raise FormatError(f"document contains no {header} sections")
    return sections


def parse_network(text: str) -> Network:
    """Parse a network document into named machines.

    Each distinct state token and each distinct label is checked once per
    document, at its first occurrence, so an error names the first line
    that holds the bad token.
    """
    members = []
    for name, line, lists, moves in _read_sections(
        text, "fsm", "member name", "critical", _check_state, False, "duplicate transition {} {} {}"
    ):
        try:
            m = Fsm(lists["states"], lists["initial"], lists["alphabet"], moves, lists["critical"])
        except MalformedFsmError as e:
            raise FormatError(f"fsm {name!r}: {e}", line) from e
        members.append((name, m))
    return Network(tuple(members))


def parse_observers(
    text: str, known: dict[str, ObserverFsm] | None = None
) -> tuple[tuple[str, ObserverFsm], ...]:
    """Parse one or more observer sections into (name, observer) pairs.

    Each distinct estimate token is split once per document, and each
    distinct label checked once; a malformed token fails at its first line.

    ``known``, kept by the caller across documents, maps the text after a
    first line that is exactly ``observer NAME`` to the one observer that
    document held. A later document with the same text there and such a
    first line gets that object under its own name, checked as always; any
    other document is parsed in full, so its errors are unchanged.
    """
    if known is not None:
        head, _, rest = text.partition("\n")
        tokens = head.split()
        # With no whitespace in NAME, this head is also the first line splitlines sees.
        exact = len(tokens) == 2 and head == "observer " + tokens[1]
        if exact and rest in known:
            return ((_check_token(tokens[1], "observer name", 1), known[rest]),)
    out = []
    for name, line, lists, moves in _read_sections(
        text, "observer", "observer name", "flag", _split_estimate, True,
        "second transition from {} on {!r}: observers are deterministic",
    ):
        states, initial = lists["states"], lists["initial"]
        if len(initial) != 1:
            raise FormatError(f"observer {name!r} needs exactly one initial estimate", line)
        declared = set(states)
        for z in lists["flag"]:
            if z not in declared:
                raise FormatError(
                    f"observer {name!r} flags undeclared state {state_text(z)}", line
                )
        flagged = set(lists["flag"])
        outputs = {z: int(z in flagged) for z in states}
        try:
            obs = ObserverFsm(
                list(dict.fromkeys(states)), initial[0], lists["alphabet"], moves, outputs
            )
        except MalformedFsmError as e:
            raise FormatError(f"observer {name!r}: {e}", line) from e
        out.append((name, obs))
    if known is not None and exact and len(out) == 1:
        known[rest] = out[0][1]
    return tuple(out)


def _view(machine: Fsm | ObserverFsm):
    """The canonical view of a machine that every writer renders.

    It has the layout of ``Fsm.int_moves``: the state texts in canonical
    order; per position a row ``{label: target positions}``, labels sorted
    and positions ascending; and per position whether the state is
    critical (or flagged) and whether it is initial. A plant's ids are
    already its canonical positions, so its table is the view as it stands.
    """
    if isinstance(machine, Fsm):
        return machine.int_moves()
    states = machine.states
    order = sorted(range(len(states)), key=lambda i: state_sort_key(states[i]))
    position = {i: p for p, i in enumerate(order)}
    texts = [state_text(states[i]) for i in order]
    rows = [{x: (position[j],) for x, j in sorted(machine.rows[i].items())} for i in order]
    return texts, rows, [(machine.flags[i], i == machine.start) for i in order]


def _estimate_parts(obs: ObserverFsm) -> list[str]:
    """The plant state names an observer's estimates hold, in sorted order."""
    if not all(isinstance(z, frozenset) for z in obs.states):
        raise FormatError("only estimate-state observers serialize; composed banks do not")
    return sorted(frozenset().union(*obs.states))


def _write(header: str, noun: str, mark: str, members: Sequence) -> list[str]:
    """One section per (name, machine) in either format, each ending in a newline.

    Before a section is written, its name, its plant state names and its
    labels are checked, each distinct state and label once per call. The
    lines after the header are rendered once per distinct machine object.
    """
    good_states: set[str] = set()
    good_labels: set[str] = set()
    bodies: dict[int, str] = {}  # the caller holds every machine, so no id is reused
    sections = []
    for name, machine in members:
        _check_token(name, noun)
        body = bodies.get(id(machine))
        if body is None:
            texts, rows, flags = _view(machine)
            # A plant's state texts are its state names.
            for state in texts if isinstance(machine, Fsm) else _estimate_parts(machine):
                if state not in good_states:
                    good_states.add(_check_state(state))
            labels = sorted(machine.alphabet)
            for label in labels:
                if label not in good_labels:
                    good_labels.add(_check_token(label, "label"))
            lines = ["  states " + " ".join(texts)]
            lines.append("  initial " + " ".join([x for x, (_, init) in zip(texts, flags) if init]))
            if labels:
                lines.append("  alphabet " + " ".join(labels))
            marked = [x for x, (crit, _) in zip(texts, flags) if crit]
            if marked:
                lines.append(f"  {mark} " + " ".join(marked))
            append = lines.append
            for src, row in zip(texts, rows):
                for label, ys in row.items():
                    for j in ys:
                        append(f"  trans {src} {label} {texts[j]}")
            body = bodies[id(machine)] = "\n".join(lines)
        sections.append(f"{header} {name}\n{body}\n")
    return sections


def serialize_network(network: Network) -> str:
    """Canonical text for a network; equal networks give equal bytes.

    Each member is written from its int table in id order, which is
    sorted-name order. Every distinct token is checked once per document.
    """
    return "\n".join(_write("fsm", "member name", "critical", network.members))


def observer_documents(locals_: Sequence[tuple[str, ObserverFsm]]) -> list[str]:
    """``serialize_observer(name, obs)`` of each local, in order."""
    return _write("observer", "observer name", "flag", locals_)


def serialize_observer(name: str, obs: ObserverFsm) -> str:
    """Canonical text for one local observer with estimate states."""
    return observer_documents([(name, obs)])[0]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_documents(members: Sequence[tuple[str, Fsm | ObserverFsm]]) -> list[str]:
    """``export_dot(machine, name)`` of each (name, machine), each machine object rendered once."""
    bodies: dict[int, str] = {}  # the caller holds every machine, so no id is reused
    documents = []
    for name, machine in members:
        body = bodies.get(id(machine))
        if body is None:
            texts, rows, flags = _view(machine)
            quoted = [_quote(x) for x in texts]
            starts = [x for x, (_, init) in zip(quoted, flags) if init]
            lines = ["  rankdir=LR;", "  node [shape=circle];"]
            for k in range(len(starts)):
                lines.append(f'  "__start{k}" [shape=point, label=""];')
            for x, (crit, _) in zip(quoted, flags):
                lines.append(f"  {x} [shape=doublecircle];" if crit else f"  {x};")
            for k, x in enumerate(starts):
                lines.append(f'  "__start{k}" -> {x};')
            for src, row in zip(quoted, rows):
                for label, ys in row.items():
                    for j in ys:
                        lines.append(f"  {src} -> {quoted[j]} [label={_quote(label)}];")
            lines.append("}")
            body = bodies[id(machine)] = "\n".join(lines)
        documents.append(f"digraph {_quote(name)} {{\n{body}\n")
    return documents


def export_dot(machine: Fsm | ObserverFsm, name: str = "critnet") -> str:
    """Graphviz text; critical or flagged states get a double circle.

    Output is a pure function of the machine, byte for byte.
    """
    return dot_documents([(name, machine)])[0]
