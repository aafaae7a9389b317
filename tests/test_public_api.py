"""The names the `critnet` package exports are pinned.

Helpers the modules share with each other, such as the breadth-first kernel
`compose.explore` and `compose.owners_by_label`, are internal: adding an
export, or dropping one, has to change this list on purpose.
"""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import critnet

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC = {
    "BudgetExceededError", "CostLedger", "CritnetError",
    "DEFAULT_STATE_BUDGET", "DecentralizedObserver", "DesyncError",
    "EPSILON_TOKEN", "EquivalenceClasses", "FormatError", "Fsm",
    "InvalidInputError", "IsoWitness", "MalformedFsmError", "MonitorSession",
    "Network", "ObserverFsm", "OnTheFlyOutcome", "PipelineReport",
    "PreservationReport", "StepRecord", "Verdict", "Word", "bisim_check",
    "build_decentralized", "build_observer", "check_observable",
    "compose_decentralized", "compose_many", "compose_network", "export_dot",
    "in_language", "is_iso_witness", "iso_check", "largest_bisimulation",
    "ledger_for_observers", "ledger_for_outcome", "parse_network",
    "parse_observers", "preservation_check", "product_state_name",
    "quotient_network", "run_algorithm1", "run_algorithm3", "run_onthefly",
    "run_onthefly_report", "sampled_runs_agree", "serialize_network",
    "serialize_observer", "start_session", "state_text", "step",
    "straddle_test", "tuple_parts", "validate_critical_observer",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name, value in vars(critnet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


def test_importing_the_cli_leaves_out_what_it_does_not_need():
    # A fresh interpreter without site (-S), so that only critnet's own
    # imports count. `dataclasses` pulls in `inspect`; `random` serves only
    # `preserve`, which imports it when it runs.
    code = (
        "import sys; import critnet.cli; "
        "print(sorted({'dataclasses', 'inspect', 'random'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
