"""Critical observability of networks of finite state machines.

Model machines with critical states, compose them into networks, decide
whether the critical set can always be told apart from the trace alone,
synthesize centralized or decentralized observers (including an on-the-fly
route that never materializes the composition), reduce networks by
bisimulation first, and replay event streams through the observer bank.
"""

from .compose import (
    Network,
    compose_many,
    compose_network,
    product_state_name,
    tuple_parts,
)
from .equivalence import (
    EquivalenceClasses,
    IsoWitness,
    PreservationReport,
    bisim_check,
    is_iso_witness,
    iso_check,
    largest_bisimulation,
    preservation_check,
    quotient_network,
)
from .errors import (
    BudgetExceededError,
    CritnetError,
    DesyncError,
    FormatError,
    InvalidInputError,
    MalformedFsmError,
)
from .fsm import EPSILON_TOKEN, Fsm, Word, in_language, step
from .monitor import MonitorSession, StepRecord, start_session
from .netio import (
    export_dot,
    parse_network,
    parse_observers,
    serialize_network,
    serialize_observer,
)
from .observer import (
    DecentralizedObserver,
    ObserverFsm,
    Verdict,
    build_decentralized,
    build_observer,
    check_observable,
    compose_decentralized,
    sampled_runs_agree,
    state_text,
    validate_critical_observer,
)
from .onthefly import OnTheFlyOutcome, run_onthefly, straddle_test
from .pipeline import (
    DEFAULT_STATE_BUDGET,
    CostLedger,
    PipelineReport,
    ledger_for_observers,
    ledger_for_outcome,
    run_algorithm1,
    run_algorithm3,
    run_onthefly_report,
)

__version__ = "0.1.0"
