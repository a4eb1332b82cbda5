"""Execution checking and exhaustive verification suites.

`check_execution` applies the output conditions every run must satisfy:
all terminated nodes agree on the degree view and the realization verdict,
the view is large enough given the crash count, only crashed nodes' degrees
may be missing, every survivor's degree is everywhere, and the message
total respects the broadcast accounting bound. `verdict` builds a node's
realization verdict, a Havel–Hakimi graph, cached per sorted view. The
agreement check compares verdicts without building one: two Havel–Hakimi
verdicts agree exactly when both views are unrealizable, or both are
realizable and agree on every nonzero demand. On a realizable input the
peel never takes a zero-demand node, so the edges depend only on the
nonzero demands; and a realized graph gives each node its demand, so its
edges fix them. Havel–Hakimi realizes a view exactly when Erdős–Gallai
accepts it, so `_verdict_key` is that test and the nonzero `(id, degree)`
pairs: one O(n log n) pass per distinct view.

`verify_exhaustive` covers every crash plan (up to f crashers, each with a
crash round up to the horizon and a delivery mask over its n-1 peers)
without running each plan. Many plans run the same execution: a mask only
matters on the recipients the crasher actually had that round, and a crash
scheduled after the run's last round never happens. So the verifier
explores depth first over effective crash logs: the children of a crash
log are its extensions by new crashes in a later round the run reached,
each crasher delivering to a subset of what it really sent that round.
While a run has crashes to spend, its adversary keeps a fork of its engine
at the adversary call of each round a child can branch at, after that
round's sends. Each child resumes from the fork of its branch round with
its own crashes for it, so no engine is built after the first and no child
makes its branch round's sends again. Each log is weighted by the plans it
stands for, counted in closed form, so nothing caps n, f or the horizon; a
horizon at the engine's round cap branches every run to termination.

Many logs also reach the same state once their crash round is stepped,
and from one state the subtree of runs below it is the same but for its
weight and message counts. So the search is stateful, with the
visited-state table of SPIN (Holzmann, *The SPIN Model Checker*, 2003, ch.
8): a child keys the state its crash round reached (`RoundEngine.key`, which
leaves the message count out), and the first log to reach a key steps on
through `run_plan` and stores its finished subtree, relative to its weight
and message count; a later log with that key replays it. `runs` still
counts every log covered. A violation is reported as its effective crash
log, itself a plan that reproduces the failure.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product, repeat, starmap
from math import comb
from typing import Iterator

from .adversary import CrashEvent, CrashPlan, ScriptedAdversary
from .degseq import DegreeSequence, RealizationOutcome, erdos_gallai, havel_hakimi
from .engine import (
    AdversaryError,
    ConfigError,
    ExecutionResult,
    NodeOutcome,
    RoundEngine,
    RoundLog,
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
    # Each distinct exited view once, with the first node that holds it. A
    # run that agrees has one; the second holder is the first node whose
    # view differs from the first's.
    views: list[dict[int, int]] = []
    holders: list[NodeOutcome] = []
    for o in exited:
        if o.view not in views:
            views.append(o.view)
            holders.append(o)

    for o in survivors:
        if o.exit_round is None:
            issues.append(f"termination: survivor {o.index} never terminated")

    if len(holders) > 1:
        ref, o = holders[:2]
        issues.append(
            f"agreement: view disagreement between nodes {ref.index} "
            f"and {o.index}: {ref.view} vs {o.view}"
        )
    # One verdict key per distinct view: equal keys are equal Havel–Hakimi
    # verdicts, with no graph built (see the module docstring).
    if len({_verdict_key(tuple(sorted(view.items()))) for view in views}) > 1:
        issues.append(
            f"agreement: verdict disagreement among exited nodes "
            f"{[o.index for o in exited]}"
        )

    degrees = result.config.degrees
    everyone = set(range(1, n + 1))
    if not all(
        len(view) >= n - len(crashed)
        and everyone.difference(view) <= crashed
        and all(view.get(s.index) == degrees[s.index - 1] for s in survivors)
        for view in views
    ):
        # Some view fails: report node by node.
        for o in exited:
            if len(o.view) < n - len(crashed):
                issues.append(
                    f"validity: node {o.index} has |D'|={len(o.view)} < "
                    f"n-crashed={n - len(crashed)}"
                )
            missing = everyone - set(o.view)
            if not missing <= crashed:
                issues.append(
                    f"validity: node {o.index} is missing degrees of non-crashed "
                    f"nodes {sorted(missing - crashed)}"
                )
        for survivor in survivors:
            own = degrees[survivor.index - 1]
            for o in exited:
                got = o.view.get(survivor.index)
                if got != own:
                    issues.append(
                        f"validity: node {o.index} holds {got!r} for surviving "
                        f"node {survivor.index}, expected {own}"
                    )

    bound = message_bound(n, len(crashed), result.metrics.allokay_broadcasters)
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


@lru_cache(maxsize=16)
def _realize(view: tuple[tuple[int, int], ...]) -> RealizationOutcome:
    """Havel-Hakimi on a sorted degree view; cached, a few views at a time,
    because the same views recur across a run's nodes and across runs."""
    return havel_hakimi(DegreeSequence(view))


@lru_cache(maxsize=16)
def _verdict_key(view: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...] | None:
    """What a sorted degree view's Havel–Hakimi verdict depends on: None
    when Erdős–Gallai rejects it, else its pairs with a nonzero degree.
    Cached as `_realize` is."""
    if not erdos_gallai(DegreeSequence(view)):
        return None
    return tuple(pair for pair in view if pair[1])


def run_plan(
    config: SimConfig,
    adversary: ScriptedAdversary,
    engine: RoundEngine | None = None,
) -> tuple[list[str], int, int, list[RoundLog]]:
    """Run one execution of `adversary`'s crash plan; return (issues, rounds,
    messages, round log). A run that raises reports the error as its one
    issue, with the round log up to the round that raised.

    The run resumes from `engine`, a fork already under `adversary`, when
    one is given, else it starts from round 1."""
    try:
        result = engine.run() if engine else run_simulation(config, adversary)
    except (ProtocolViolation, SimulationError) as exc:
        if isinstance(exc, (AdversaryError, ConfigError)):
            raise
        return [f"{type(exc).__name__}: {exc}"], 0, 0, exc.round_log
    return (
        check_execution(result),
        result.metrics.rounds_to_termination,
        result.metrics.messages_sent,
        result.round_log,
    )


@dataclass
class VerifyReport:
    """Counts are in crash plans, except `runs`, the effective crash logs
    covered, each of which one engine run would make; the verifier steps
    only the distinct states among them. Each violation is an effective
    crash log with its issues; `violating_plans` counts the plans it
    stands for."""

    plans_total: int
    executions_run: int  # plans covered
    violations: list[tuple[tuple, list[str]]] = field(default_factory=list)
    max_rounds: int = 0
    max_messages: int = 0
    runs: int = 0
    violating_plans: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def first_counterexample(self) -> tuple[tuple, list[str]] | None:
        return min(self.violations) if self.violations else None


# (crash log, crasher factor, the parent's fork at its branch round's adversary call)
_Child = tuple[tuple[CrashEvent, ...], int, RoundEngine]

_NO_RUN = float("-inf")  # the maximum over no run


@dataclass(slots=True)
class _Subtree:
    """What a crash log and every log that extends it add to a report:
    plans covered and violating, logs, the largest round count and, over
    the runs that did not raise, the largest message count and the largest
    excess of a run's messages over its bound (`_NO_RUN` if every run
    raised). As a memo entry it is relative to the log it was made for:
    plans per unit of its weight, messages less its count, and violating
    logs as suffixes of it."""

    plans: int = 0
    violating_plans: int = 0
    runs: int = 0
    max_rounds: int = 0
    max_messages: float = _NO_RUN
    excess: float = _NO_RUN
    violations: list[tuple[tuple, list[str]]] = field(default_factory=list)

    def add(self, other: _Subtree) -> None:
        self.plans += other.plans
        self.violating_plans += other.violating_plans
        self.runs += other.runs
        self.max_rounds = max(self.max_rounds, other.max_rounds)
        self.max_messages = max(self.max_messages, other.max_messages)
        self.excess = max(self.excess, other.excess)
        self.violations += other.violations

    def entry(self, weight: int, messages: int, cut: int) -> _Subtree:
        """This subtree as a memo entry for a log of `cut` events and
        `weight` that reached its state with `messages` sent."""
        return _Subtree(
            self.plans // weight,
            self.violating_plans // weight,
            self.runs,
            self.max_rounds,
            self.max_messages - messages,
            self.excess - messages,
            [(events[cut:], issues) for events, issues in self.violations],
        )

    def placed(self, weight: int, messages: int, events: tuple) -> _Subtree:
        """This memo entry as the subtree of log `events` of `weight` that
        reached its state with `messages` sent."""
        return _Subtree(
            self.plans * weight,
            self.violating_plans * weight,
            self.runs,
            self.max_rounds,
            self.max_messages + messages,
            self.excess + messages,
            [(events + suffix, issues) for suffix, issues in self.violations],
        )


class _Brancher(ScriptedAdversary):
    """Plays a crash plan and keeps in `forks` a fork of its run, with no
    adversary, at the adversary call of each round of `rounds` the run
    reaches. Each child branching there forks it again under its own."""

    def __init__(self, plan: CrashPlan, rounds: range):
        super().__init__(plan)
        self.rounds, self.forks = rounds, {}

    def decide(self, engine, rnd: int):
        if rnd in self.rounds:
            self.forks[rnd] = engine.fork(None)
        return super().decide(engine, rnd)


def _plan_count(nodes: int, crashes: int, options: int) -> int:
    """Plans that crash up to `crashes` of `nodes` nodes, `options` ways each."""
    return sum(comb(nodes, k) * options**k for k in range(crashes + 1))


def _children(n, events, factor, free, spare, forks) -> Iterator[_Child]:
    """Each log that extends `events` by one round's new crashes: every set
    of up to `spare` free nodes, each delivering to every subset of the
    recipients it actually had that round (none when it was silent), as
    the round's fork holds its sends. Each round of `forks`, in order,
    gives children that resume from its fork, dropped once they are made."""
    for rnd in list(forks):
        start = forks.pop(rnd)
        choices = {}
        for v in free:
            _, recipients = start.outboxes.get(v, (None, ()))
            subsets = [
                s
                for k in range(len(recipients) + 1)
                for s in combinations(recipients, k)
            ]
            choices[v] = (subsets, 1 << (n - 1 - len(recipients)))
        for k in range(1, spare + 1):
            for crashers in combinations(free, k):
                weight = factor
                for v in crashers:
                    weight *= choices[v][1]
                for delivered in product(*(choices[v][0] for v in crashers)):
                    crashes = tuple(map(CrashEvent, repeat(rnd), crashers, delivered))
                    yield events + crashes, weight, start


class _Explorer:
    """Covers crash logs depth first for one verify call, with a memo from
    the key of each state a child log reaches at the end of its crash
    round to the subtree below it."""

    def __init__(self, config: SimConfig, f: int, horizon: int, stop_on_first: bool):
        self.config, self.f, self.horizon = config, f, horizon
        self.stop_on_first = stop_on_first
        self.memo: dict[bytes, _Subtree] = {}

    def stopped(self, tree: _Subtree) -> bool:
        return self.stop_on_first and bool(tree.violations)

    def brancher(self, events: tuple[CrashEvent, ...]) -> _Brancher:
        """The adversary of log `events`. While crashes are left to spend,
        it keeps a fork at the adversary call of each round after the log's
        last crashes up to the horizon: the rounds its children branch at."""
        first = events[-1].round + 1 if events else 1
        last = self.horizon if len(events) < self.f else 0
        return _Brancher(CrashPlan(events), range(first, last + 1))

    def run(
        self, events: tuple[CrashEvent, ...], factor: int, engine: RoundEngine | None
    ) -> tuple[_Subtree, Iterator[_Child]]:
        """Run one effective crash log through `run_plan`, resuming from
        `engine` (a fork under the log's `brancher`) or from round 1, and
        return it as a subtree of one run, weighted by the crash plans it
        stands for, with its children.

        `factor` is the plans per crash in `events`: a crasher whose
        round's send went to A of its n-1 peers is reached by the
        2^(n-1-|A|) delivery masks that agree on A. Every node `events`
        leaves alive may also hold a phantom crash in a round after the
        run's last stepped round T and up to the horizon, with any mask;
        such a crash never takes effect.
        """
        n = self.config.n
        spare = self.f - len(events)
        adversary = engine.adversary if engine else self.brancher(events)
        issues, rounds, messages, log = run_plan(self.config, adversary, engine)
        # Every stepped round is logged once its crash decisions are made, so
        # the log reaches the last round a crash can take effect in.
        crashed = {e.node for e in events}
        free = [v for v in range(1, n + 1) if v not in crashed]
        phantom = max(self.horizon - len(log), 0) << (n - 1)
        plans = factor * _plan_count(len(free), spare, phantom)
        tree = _Subtree(plans=plans, runs=1, max_rounds=rounds)
        if rounds:  # a run that raised reports no rounds or messages
            tree.max_messages = messages
            if engine:  # the root run, made without one, is never memoized
                bound = message_bound(n, len(events), engine.metrics.allokay_broadcasters)
                tree.excess = messages - bound
        if issues:
            tree.violations.append((events, issues))
            tree.violating_plans = plans
        return tree, _children(n, events, factor, free, spare, adversary.forks)

    def cover(self, events: tuple[CrashEvent, ...], factor: int, start: RoundEngine) -> _Subtree:
        """Cover child log `events` and every log that extends it. Its
        crash round is stepped from `start`, its parent's fork; a memo
        entry for the state reached then replays the rest, else the run
        steps on through `run_plan`, its children are covered in turn, and
        the finished subtree becomes the state's entry.

        Message counts are left out of the key, so an entry is refused
        where this log's count would push one of its runs over the message
        bound, and none is made for a subtree with a `messages:` issue.
        With `stop_on_first` the search ends at the first violating run,
        so no subtree holding one finishes and none is replayed."""
        adversary = self.brancher(events)
        engine = start.fork(adversary)
        try:
            engine.step()
        except (ProtocolViolation, SimulationError):
            # `run_plan` steps the crash round again and reports its error.
            return self.explore(events, factor, start.fork(adversary))
        key, messages = engine.key(), engine.metrics.messages_sent
        entry = self.memo.get(key)
        if entry is not None and messages + entry.excess <= 0:
            return entry.placed(factor, messages, events)
        tree = self.explore(events, factor, engine)
        if not self.stopped(tree) and not any(
            issue.startswith("messages:") for _, issues in tree.violations for issue in issues
        ):
            self.memo[key] = tree.entry(factor, messages, len(events))
        return tree

    def explore(
        self, events: tuple[CrashEvent, ...], factor: int, engine: RoundEngine
    ) -> _Subtree:
        """Run one child log and cover its children, depth first; stop
        after the first violating run when asked to."""
        tree, children = self.run(events, factor, engine)
        for child in children:
            if self.stopped(tree):
                break
            tree.add(self.cover(*child))
        return tree


_worker: _Explorer | None = None  # a pool worker's explorer, with its own memo


def _start_worker(*args) -> None:
    global _worker
    _worker = _Explorer(*args)


def _cover_in_worker(child: _Child) -> _Subtree:
    return _worker.cover(*child)


def verify_exhaustive(
    config: SimConfig,
    f: int,
    horizon: int = 14,
    workers: int = 1,
    stop_on_first: bool = False,
) -> VerifyReport:
    """Cover every crash plan with up to `f` crashers and crash rounds up
    to `horizon`, stepping each distinct state the effective crash logs
    reach once.

    The run without crashes is made here; the subtrees of its children
    are the tasks, spread over `workers` processes when workers > 1, each
    with its own memo, and merged in task order, so the report does not
    depend on the worker count. So no more processes start than the
    machine has CPUs.
    """
    n = config.n
    if not (0 <= f < n and 1 <= horizon):
        raise ConfigError(
            f"verify needs 0<=f<n and 1<=horizon; got n={n}, f={f}, horizon={horizon}"
        )
    if workers < 1:
        raise ConfigError(f"workers {workers} must be >= 1")
    workers = min(workers, os.cpu_count() or 1)
    explorer = _Explorer(config, f, horizon, stop_on_first)
    tree, children = explorer.run((), 1, None)
    with contextlib.ExitStack() as stack:
        parts = starmap(explorer.cover, children)
        if workers > 1 and not explorer.stopped(tree):
            import multiprocessing  # here, so that a serial run does not load it

            args = config, f, horizon, stop_on_first
            pool = stack.enter_context(multiprocessing.Pool(workers, _start_worker, args))
            parts = pool.imap(_cover_in_worker, children, chunksize=16)
        while not explorer.stopped(tree) and (part := next(parts, None)):
            tree.add(part)
    return VerifyReport(
        plans_total=_plan_count(n, f, horizon << (n - 1)),
        executions_run=tree.plans,
        violations=sorted(tree.violations),
        max_rounds=tree.max_rounds,
        max_messages=max(tree.max_messages, 0),
        runs=tree.runs,
        violating_plans=tree.violating_plans,
    )
