"""Replaying a live event stream through the observer bank.

Each event goes to the members that own its label; every owner's local
observer must move or the whole step is rejected. The session flag is the
OR of the local flags, and a rejected step poisons the session: a stream
the network cannot produce leaves nothing trustworthy to resume from.
"""

from critnet import DesyncError, Fsm, Network, build_decentralized, start_session

line = Fsm(["p", "q"], ["p"], ["a", "b"], [("p", "a", "q"), ("q", "b", "p")], ["q"])
cell = Fsm(["r", "s", "t"], ["r"], ["a"], [("r", "a", "s"), ("r", "a", "t")], ["t"])
net = Network((("A", line), ("B", cell)))

session = start_session(build_decentralized(net))
print(f"members: {', '.join(session.names)}")
print("feeding events (index, label, local flag bits, OR flag):")
for label in ["a", "b"]:
    record = session.feed(label)
    print(f"  {record.line()}")

# After "a b" the cell is still stuck in {s,t}: it owns "a" but has no move,
# so a third event "a" is impossible for this network.
try:
    session.feed("a")
except DesyncError as err:
    print(f"\nrejected: {err}")
print(f"session poisoned: {session.poisoned}")
print(f"steps accepted before the desync: {session.steps}")
