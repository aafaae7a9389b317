"""One observer per member, and why the bank loses nothing.

Each member gets a local observer fed only the labels it owns. Running the
locals side by side and OR-ing their flags gives the same machine, state for
state, as the observer of the full composition: composing the bank and
composing the network commute.
"""

from critnet import (
    Fsm,
    Network,
    build_decentralized,
    build_observer,
    compose_decentralized,
    compose_network,
    iso_check,
    state_text,
)

line = Fsm(["p", "q"], ["p"], ["a", "b"], [("p", "a", "q"), ("q", "b", "p")], ["q"])
cell = Fsm(["r", "s", "t"], ["r"], ["a"], [("r", "a", "s"), ("r", "a", "t")], ["t"])
net = Network((("A", line), ("B", cell)))

bank = build_decentralized(net)
print("local observers:")
for name, local in bank.locals:
    print(f"  {name}: {len(local.states)} states over {sorted(local.alphabet)}")

banked = compose_decentralized(bank)
mono = build_observer(compose_network(net))
print(f"\ncomposed bank: {len(banked.states)} states")
print(f"observer of composed network: {len(mono.states)} states")

witness = iso_check(banked, mono)
assert witness is not None
print("\nthe two are isomorphic; the matching is the member-wise product:")
for agg in banked.states:
    print(f"  {state_text(agg)}  <->  {state_text(witness.mapping[agg])}")
