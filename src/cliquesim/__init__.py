"""Crash-fault-tolerant degree-sequence realization on clique networks.

A deterministic round simulator for the uncapacitated (cc) and
node-capacitated (ncc) clique models, the degree-agreement protocol run on
them under an adaptive crash adversary, and the degree-sequence toolkit
(graphicality test, constructive realization, graph check) the protocol's
outputs feed into. The package needs only the standard library.
"""

from .degseq import (
    DegreeSequence,
    RealizationOutcome,
    RealizedGraph,
    erdos_gallai,
    havel_hakimi,
    verify_degrees,
)
from .engine import (
    ExecutionResult,
    Metrics,
    RoundEngine,
    SimConfig,
    run_simulation,
)
from .adversary import (
    CrashEvent,
    CrashPlan,
    NoneAdversary,
    RandomAdversary,
    ScriptedAdversary,
    WorstCaseAdversary,
)
from .harness import check_execution, message_bound, verify_exhaustive
from .protocol import ProtocolViolation
from .trace import read_trace, replay_trace, write_trace

__all__ = [
    "DegreeSequence",
    "RealizationOutcome",
    "RealizedGraph",
    "erdos_gallai",
    "havel_hakimi",
    "verify_degrees",
    "ExecutionResult",
    "Metrics",
    "RoundEngine",
    "SimConfig",
    "run_simulation",
    "CrashEvent",
    "CrashPlan",
    "NoneAdversary",
    "RandomAdversary",
    "ScriptedAdversary",
    "WorstCaseAdversary",
    "check_execution",
    "message_bound",
    "verify_exhaustive",
    "ProtocolViolation",
    "read_trace",
    "replay_trace",
    "write_trace",
]

__version__ = "0.1.0"
