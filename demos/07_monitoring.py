"""Replaying a live event stream through the observer bank.

Each event goes to the members that own its label; every owner's local
observer must move or the whole step is rejected. The session flag is the
OR of the local flags, and a rejected step poisons the session: a stream
the network cannot produce leaves nothing trustworthy to resume from.

`feed` applies one event and returns its record. `lines` streams events
through the same step and yields each record's text as soon as its event
is applied, drawing the next event only after that; this is what
`critnet monitor` writes, and it keeps nothing per event.
"""

from critnet import DesyncError, Fsm, Network, build_decentralized, start_session

line = Fsm(["p", "q"], ["p"], ["a", "b"], [("p", "a", "q"), ("q", "b", "p")], ["q"])
cell = Fsm(["r", "s", "t"], ["r"], ["a"], [("r", "a", "s"), ("r", "a", "t")], ["t"])
net = Network((("A", line), ("B", cell)))
bank = build_decentralized(net)

session = start_session(bank)
print(f"members: {', '.join(session.names)}")
print("feeding events (index, label, local flag bits, OR flag):")
for label in ["a", "b"]:
    record = session.feed(label)
    print(f"  {record.line()}  moved={record.moved} outputs={record.outputs}")

print("streaming the same events through a fresh session:")
stream = start_session(bank)
for text in stream.lines(["a", "b"]):
    print(f"  {text}")
print(f"same state as after feeding: {stream.states == session.states}")

# After "a b" the cell is still stuck in {s,t}: it owns "a" but has no move,
# so a third event "a" is impossible for this network.
try:
    session.feed("a")
except DesyncError as err:
    print(f"\nrejected: {err}")
print(f"session poisoned: {session.poisoned}")
print(f"steps accepted before the desync: {session.steps}")
