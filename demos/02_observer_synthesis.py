"""Observer synthesis and the critical observability verdict.

The observer tracks the set of states the machine might be in after each
trace and raises its flag when that estimate touches the critical set. The
machine is critically observable exactly when every flagged estimate lies
entirely inside the critical set: the flag then never cries wolf.
"""

from critnet import Fsm, build_observer, check_observable, state_text

line = Fsm(["p", "q"], ["p"], ["a", "b"], [("p", "a", "q"), ("q", "b", "p")], ["q"])
cell = Fsm(["r", "s", "t"], ["r"], ["a"], [("r", "a", "s"), ("r", "a", "t")], ["t"])

for name, m in [("A", line), ("B", cell)]:
    obs = build_observer(m)
    print(f"observer of {name}:")
    for z, flag in zip(obs.states, obs.flags):
        mark = "flagged" if flag else "quiet"
        print(f"  state {state_text(z)} ({mark})")
    for src, label, dst in obs.transitions():
        print(f"  {state_text(src)} --{label}--> {state_text(dst)}")
    verdict = check_observable(obs, m.critical)
    print(f"  verdict: {verdict}\n")

# A is observable: its only flagged estimate is {q}, inside the critical
# set. B is not: after "a" the estimate {s,t} mixes the critical t with the
# safe s, so the flag is up while the machine may well be safe.
