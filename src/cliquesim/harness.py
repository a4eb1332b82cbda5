"""Execution checking and exhaustive verification suites.

`check_execution` applies the output conditions every run must satisfy:
all terminated nodes agree on the degree view and the realization verdict,
the view is large enough given the crash count, only crashed nodes' degrees
may be missing, every survivor's degree is everywhere, and the message
total respects the broadcast accounting bound. `verdict` is the one place
a node's realization verdict is computed, cached per sorted view. The
exhaustive suite runs one execution per enumerated crash plan and reports
every plan whose execution either fails a check or raises a protocol
violation.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from dataclasses import dataclass, field
from functools import lru_cache

from .adversary import CrashPlan, PlanSpace, ScriptedAdversary
from .degseq import DegreeSequence, RealizationOutcome, havel_hakimi
from .engine import (
    AdversaryError,
    ConfigError,
    ExecutionResult,
    NodeOutcome,
    SimConfig,
    SimulationError,
    run_simulation,
)
from .protocol import ProtocolViolation

__all__ = [
    "check_execution",
    "message_bound",
    "run_plan",
    "verdict",
    "VerifyReport",
    "verify_exhaustive",
]

# Plans per verification task; each task reports at most 20 violations.
CHUNK_SIZE = 50_000


def message_bound(n: int, crashes: int, allokay_broadcasters: int) -> int:
    """Broadcast-accounting ceiling: two announce rounds, two rebroadcast
    rounds per crash-induced entry, one broadcast per terminating node."""
    return 2 * n * (n - 1) + 2 * crashes * (n - 1) + allokay_broadcasters * (n - 1)


def check_execution(result: ExecutionResult) -> list[str]:
    """Return a list of condition violations, empty when the run is good.

    Each issue is prefixed with its category -- "agreement:", "validity:",
    "termination:", or "messages:" -- so callers can classify without
    parsing prose.
    """
    issues: list[str] = []
    n = result.config.n
    crashed = {o.index for o in result.nodes if o.crashed_round is not None}
    exited = result.exited()
    survivors = result.survivors()

    for o in survivors:
        if o.exit_round is None:
            issues.append(f"termination: survivor {o.index} never terminated")

    if exited:
        ref = exited[0]
        for o in exited[1:]:
            if o.view != ref.view:
                issues.append(
                    f"agreement: view disagreement between nodes {ref.index} "
                    f"and {o.index}: {ref.view} vs {o.view}"
                )
                break
        # One verdict per distinct view. Two verdicts agree when both are
        # unrealizable or both realize the same edge set.
        verdicts = set()
        for view in {tuple(sorted(o.view.items())) for o in exited}:
            graph = _realize(view).graph
            verdicts.add(None if graph is None else graph.edges)
        if len(verdicts) > 1:
            issues.append(
                f"agreement: verdict disagreement among exited nodes "
                f"{[o.index for o in exited]}"
            )

    for o in exited:
        if len(o.view) < n - len(crashed):
            issues.append(
                f"validity: node {o.index} has |D'|={len(o.view)} < "
                f"n-crashed={n - len(crashed)}"
            )
        missing = set(range(1, n + 1)) - set(o.view)
        if not missing <= crashed:
            issues.append(
                f"validity: node {o.index} is missing degrees of non-crashed "
                f"nodes {sorted(missing - crashed)}"
            )
    for survivor in survivors:
        own = result.config.degrees[survivor.index - 1]
        for o in exited:
            got = o.view.get(survivor.index)
            if got != own:
                issues.append(
                    f"validity: node {o.index} holds {got!r} for surviving "
                    f"node {survivor.index}, expected {own}"
                )

    bound = message_bound(
        n, len(result.crashes), result.metrics.allokay_broadcasters
    )
    if result.metrics.messages_sent > bound:
        issues.append(
            f"messages: {result.metrics.messages_sent} exceed bound {bound}"
        )
    return issues


def verdict(node: NodeOutcome) -> RealizationOutcome | None:
    """Realization verdict of a node's final view; None if it never exited."""
    if node.exit_round is None:
        return None
    return _realize(tuple(sorted(node.view.items())))


@lru_cache(maxsize=8192)
def _realize(view: tuple[tuple[int, int], ...]) -> RealizationOutcome:
    """Havel-Hakimi on a sorted degree view; cached because the same views
    recur across a run's nodes and across enumerated executions."""
    return havel_hakimi(DegreeSequence(view))


def run_plan(config: SimConfig, plan: CrashPlan) -> tuple[list[str], int, int]:
    """Run one scripted execution; return (issues, rounds, messages)."""
    try:
        result = run_simulation(config, ScriptedAdversary(plan))
    except (ProtocolViolation, SimulationError) as exc:
        if isinstance(exc, (AdversaryError, ConfigError)):
            raise
        return [f"{type(exc).__name__}: {exc}"], 0, 0
    return (
        check_execution(result),
        result.metrics.rounds_to_termination,
        result.metrics.messages_sent,
    )


@dataclass
class VerifyReport:
    plans_total: int
    executions_run: int
    violations: list[tuple[tuple, list[str]]] = field(default_factory=list)
    max_rounds: int = 0
    max_messages: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def first_counterexample(self) -> tuple[tuple, list[str]] | None:
        return min(self.violations) if self.violations else None


def _run_chunk(args) -> tuple[int, list[tuple[tuple, list[str]]], int, int]:
    """Run plans [start, stop) of the space; stop early after the first
    violation (stop_on_first) or the 20th."""
    config, f, horizon, start, stop, stop_on_first = args
    space = PlanSpace(config.n, f, horizon)
    violations: list[tuple[tuple, list[str]]] = []
    max_rounds = 0
    max_messages = 0
    ran = 0
    for i in range(start, stop):
        plan = space[i]
        issues, rounds, messages = run_plan(config, plan)
        ran += 1
        max_rounds = max(max_rounds, rounds)
        max_messages = max(max_messages, messages)
        if issues:
            violations.append((tuple(plan.events), issues))
            if stop_on_first or len(violations) >= 20:
                break
    return ran, violations, max_rounds, max_messages


def verify_exhaustive(
    config: SimConfig,
    f: int,
    horizon: int = 14,
    workers: int = 1,
    stop_on_first: bool = False,
) -> VerifyReport:
    """Run every enumerated crash plan for the given caps against the
    config, in parallel when workers > 1."""
    total = len(PlanSpace(config.n, f, horizon))
    report = VerifyReport(plans_total=total, executions_run=0)
    tasks = [
        (config, f, horizon, start, min(start + CHUNK_SIZE, total), stop_on_first)
        for start in range(0, total, CHUNK_SIZE)
    ]
    with contextlib.ExitStack() as stack:
        run = map
        if workers > 1:
            run = stack.enter_context(multiprocessing.Pool(workers)).imap_unordered
        for ran, violations, max_rounds, max_messages in run(_run_chunk, tasks):
            report.executions_run += ran
            report.violations.extend(violations)
            report.max_rounds = max(report.max_rounds, max_rounds)
            report.max_messages = max(report.max_messages, max_messages)
            if violations and stop_on_first:
                break
    report.violations.sort()
    return report
