"""Brute-force oracles for the tests.

`brute_force_realizable` enumerates every labeled simple graph on the
sequence's nodes, independently of the Erdős–Gallai and Havel–Hakimi tests
it cross-validates. It needs numpy, which the `test` extra installs.

`reference_erdos_gallai` and `reference_havel_hakimi` are the direct
forms of the `degseq` kernels, kept as the references the faster kernels
are compared against: the first sums every prefix and min term afresh for
each k; the second re-sorts the residual demands before each peel and
takes one step per edge, where the kernel sorts one int key per node and
takes each peel's partners as a list slice.
It freezes its edges in the order it makes them, as the kernel does, so the
tests can also compare the order in which the two graphs' edges iterate.

`reference_verdicts_agree` is the agreement test on two views' realization
verdicts that `harness.check_execution` made before it compared verdict
keys: both unrealizable, or both realized by the same `havel_hakimi` edge
set.

`reference_verify_exhaustive` is the verifier's crash-schedule explorer
without its memo: it runs every effective crash log through
`harness.run_plan`, resuming each child from its parent's fork, so a spy on
`run_plan` sees one call per log. It takes each child's log, weight and
fork from `harness._children` and drops the canonical-sibling slot and
dead-copy count that come with them, so a child whose crashers deliver to
dead nodes is stepped in full as well, never looked up under its
sibling's state. `verify_exhaustive` must give the same report.

`reference_children` walks the same logs and yields each child log with
the canonical-sibling slot and dead-copy count `_children` gives it, for
the tests that step those children one by one.

`phase1_classification` recounts a finished run's phase 1 copy by copy from
its round log, independently of how the engine and `Phase1Tally` share
counts between receivers.

`plain_round_lines`, `plain_end` and `plain_summary_lines` are the trace's
round and end records and `simulate`'s summary built one record or line per
send and per node, with nothing shared: the forms that `trace.trace_lines`
and `cli._summary_lines`, which encode each shared part once, must match.
`dumps` is the trace's record encoding.
"""

from __future__ import annotations

import functools
import json
from itertools import combinations
from typing import Iterable

from cliquesim import harness
from cliquesim.adversary import CrashPlan
from cliquesim.degseq import DegreeSequence, RealizationOutcome, RealizedGraph, havel_hakimi
from cliquesim.engine import ExecutionResult, SimConfig
from cliquesim.groups import GroupLayout
from cliquesim.harness import VerifyReport, _Brancher, _children, _plan_count, verdict
from cliquesim.trace import round_records

BRUTE_FORCE_MAX_NODES = 8


@functools.lru_cache(maxsize=None)
def _realizable_multisets(n: int) -> frozenset[tuple[int, ...]]:
    """All degree multisets (sorted descending) realizable on n labeled nodes,
    found by enumerating every edge subset of the complete graph.

    Vectorized over subsets: O(2^C(n,2)) graphs, chunked to bound memory.
    """
    import numpy as np  # here, so that only this oracle pays for numpy

    if n == 0:
        return frozenset({()})
    edge_list = list(combinations(range(n), 2))
    m = len(edge_list)
    incidence = np.zeros(n, dtype=np.uint32)
    for bit, (u, v) in enumerate(edge_list):
        incidence[u] |= np.uint32(1 << bit)
        incidence[v] |= np.uint32(1 << bit)
    found: set[tuple[int, ...]] = set()
    chunk = 1 << min(m, 20)
    for start in range(0, 1 << m, chunk):
        masks = np.arange(start, start + chunk, dtype=np.uint32)
        degs = np.empty((masks.size, n), dtype=np.uint8)
        for v in range(n):
            degs[:, v] = np.bitwise_count(masks & incidence[v])
        degs.sort(axis=1)
        for row in np.unique(degs, axis=0):
            found.add(tuple(int(x) for x in row[::-1]))
    return frozenset(found)


def brute_force_realizable(seq: DegreeSequence | Iterable[int]) -> bool:
    """Exhaustive realizability oracle, independent of the analytic tests.

    Enumerates every labeled simple graph on len(seq) nodes and checks
    whether any has the demanded degree multiset. Capped at
    BRUTE_FORCE_MAX_NODES nodes.
    """
    seq = DegreeSequence.coerce(seq)
    n = len(seq)
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"brute-force oracle capped at {BRUTE_FORCE_MAX_NODES} nodes, got {n}"
        )
    if any(d >= n for d in seq.degrees):
        return False  # a simple graph cannot exceed degree n-1
    target = tuple(sorted(seq.degrees, reverse=True))
    return target in _realizable_multisets(n)


def reference_erdos_gallai(seq: DegreeSequence | Iterable[int]) -> bool:
    """Erdős–Gallai, each k-prefix inequality summed in full: O(n^2)."""
    degs = sorted(DegreeSequence.coerce(seq).degrees, reverse=True)
    n = len(degs)
    if n == 0:
        return True
    if sum(degs) % 2 != 0:
        return False
    for k in range(1, n + 1):
        lhs = sum(degs[:k])
        rhs = k * (k - 1) + sum(min(d, k) for d in degs[k:])
        if lhs > rhs:
            return False
    return True


def reference_havel_hakimi(seq: DegreeSequence | Iterable[int]) -> RealizationOutcome:
    """Havel–Hakimi with the peel order and tie-breaking of
    `degseq.havel_hakimi`, one edge at a time."""
    seq = DegreeSequence.coerce(seq)
    residual = [(-d, i) for i, d in seq.entries]
    edges: list[tuple[int, int]] = []
    while residual:
        residual.sort()
        neg_d, v = residual.pop(0)
        d = -neg_d
        if d == 0:
            break
        if d > len(residual):
            return RealizationOutcome.unrealizable()
        for k in range(d):
            neg_dk, w = residual[k]
            if neg_dk == 0:
                return RealizationOutcome.unrealizable()
            residual[k] = (neg_dk + 1, w)
            edges.append((v, w) if v < w else (w, v))
    graph = RealizedGraph(node_ids=seq.node_ids, edges=frozenset(edges))
    return RealizationOutcome(graph=graph)


def reference_verdicts_agree(a: dict[int, int], b: dict[int, int]) -> bool:
    """Whether degree views `a` and `b` get the same Havel–Hakimi verdict:
    both unrealizable, or both realized with the same edge set."""
    graphs = [havel_hakimi(DegreeSequence(tuple(sorted(v.items())))).graph for v in (a, b)]
    edges = [None if g is None else g.edges for g in graphs]
    return edges[0] == edges[1]


def phase1_classification(
    result: ExecutionResult,
) -> tuple[dict[int, tuple[dict, dict]], dict[int, int]]:
    """Classify phase 1 of a run without drops by counting, for every node
    live at its end, each copy it received in rounds 1..2g: a subject heard
    twice or more goes into the view, once into the list with its degree,
    never into the list as a smite. Returns each such node's (view, list),
    each in index order, the view holding its own degree too, and each
    subject's first witness: the lowest such node, not the subject, that
    heard it twice."""
    config = result.config
    n = config.n
    g = GroupLayout.for_clique(n).group_count if config.model == "ncc" else 1
    heard: dict[int, dict[int, int]] = {j: {} for j in range(1, n + 1)}
    degree: dict[int, int] = {}
    crashed: set[int] = set()
    for log in result.round_log[: 2 * g]:
        delivered = dict(log.crashes)
        crashed.update(delivered)
        for sender, (msg, recipients) in log.sends.items():
            for j in delivered.get(sender, recipients):
                if j not in crashed:
                    heard[j][msg.sender] = heard[j].get(msg.sender, 0) + 1
                    degree[msg.sender] = msg.degree
    classified = {}
    witness: dict[int, int] = {}
    for j in range(1, n + 1):
        if j in crashed:
            continue
        view, flist = {}, {}
        for s in range(1, n + 1):
            if s == j:
                view[j] = config.degrees[j - 1]
                continue
            copies = heard[j].get(s, 0)
            if copies >= 2:
                view[s] = degree[s]
                witness.setdefault(s, j)
            else:
                flist[s] = degree[s] if copies else None
        classified[j] = (view, flist)
    return classified, witness


def reference_verify_exhaustive(
    config: SimConfig, f: int, horizon: int = 14, stop_on_first: bool = False
) -> VerifyReport:
    """Every effective crash log with up to `f` crashes in rounds up to
    `horizon`, run once each, depth first, and weighted by the crash plans
    it stands for; with `stop_on_first`, up to the first violating run."""
    n = config.n
    report = VerifyReport(plans_total=_plan_count(n, f, horizon << (n - 1)), executions_run=0)
    stack = [_reference_run(config, f, horizon, (), 1, None, report)]
    while stack and not (stop_on_first and report.violations):
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            events, factor, start, _, _ = child  # every child is stepped
            stack.append(_reference_run(config, f, horizon, events, factor, start, report))
    report.violations.sort()
    return report


def reference_children(
    config: SimConfig, f: int, horizon: int, events=(), factor=1, start=None
):
    """Every child log below `events`, depth first, as `harness._children`
    yields it, each before the logs below it; the reference explorer runs
    each log to make its children."""
    scratch = VerifyReport(plans_total=0, executions_run=0)
    for child in _reference_run(config, f, horizon, events, factor, start, scratch):
        yield child
        yield from reference_children(config, f, horizon, *child[:3])


def _reference_run(config, f, horizon, events, factor, start, report):
    """Run one effective crash log, from its parent's fork `start` or from
    round 1, add it to `report` and return its children."""
    n = config.n
    spare = f - len(events)
    first = events[-1].round + 1 if events else 1
    adversary = _Brancher(CrashPlan(events), range(first, horizon + 1 if spare else 0))
    engine = start.fork(adversary) if start else None
    issues, rounds, messages, log = harness.run_plan(config, adversary, engine)
    crashed = {e.node for e in events}
    free = [v for v in range(1, n + 1) if v not in crashed]
    phantom = max(horizon - len(log), 0) << (n - 1)
    plans = factor * _plan_count(len(free), spare, phantom)
    report.executions_run += plans
    report.runs += 1
    report.max_rounds = max(report.max_rounds, rounds)
    report.max_messages = max(report.max_messages, messages)
    if issues:
        report.violations.append((events, issues))
        report.violating_plans += plans
    return _children(n, events, factor, free, spare, adversary.forks)


def dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def plain_round_lines(result: ExecutionResult) -> list[str]:
    """The round records, one dict per send, each encoded on its own."""
    return [dumps(record) for record in round_records(result)]


def plain_end(result: ExecutionResult) -> dict:
    """The end record built as one dict per node, each with its own verdict
    and view."""
    nodes = []
    for o in result.nodes:
        outcome = verdict(o)
        shown = None
        if outcome is not None:
            shown = {"realizable": outcome.realizable}
            if outcome.realizable:
                shown["edges"] = [list(e) for e in outcome.graph.sorted_edges()]
        nodes.append(
            {
                "node": o.index,
                "state": o.state,
                "crashed_round": o.crashed_round,
                "exit_round": o.exit_round,
                "view": {str(k): v for k, v in sorted(o.view.items())},
                "verdict": shown,
            }
        )
    return {
        "record": "end",
        "rounds": result.metrics.rounds_to_termination,
        "messages": result.metrics.messages_sent,
        "allokay_broadcasters": result.metrics.allokay_broadcasters,
        "dropped_messages": result.metrics.dropped_messages,
        "nodes": nodes,
    }


def plain_summary_lines(result: ExecutionResult, issues: list[str]) -> list[str]:
    """`simulate`'s summary, each node's view and verdict formatted anew."""
    m = result.metrics
    lines = [
        f"model={result.config.model} n={result.config.n} "
        f"degrees={','.join(str(d) for d in result.config.degrees)}",
        f"rounds={m.rounds_to_termination} messages={m.messages_sent} "
        f"crashes={len(result.crashes)} allokay_broadcasters={m.allokay_broadcasters}",
    ]
    if result.config.model == "ncc":
        lines.append(
            f"max_send_per_round={m.max_send_per_round} "
            f"max_recv_per_round={m.max_recv_per_round} "
            f"dropped_messages={m.dropped_messages}"
        )
    for rnd, node, delivered in result.crashes:
        shown = ",".join(str(j) for j in delivered) or "-"
        lines.append(f"crash round={rnd} node={node} delivered={shown}")
    for o in result.nodes:
        if o.crashed_round is not None:
            lines.append(f"node {o.index}: crashed (round {o.crashed_round})")
            continue
        view = " ".join(f"{i}:{d}" for i, d in sorted(o.view.items()))
        outcome = verdict(o)
        if outcome is None:
            shown = "none"
        elif outcome.graph is None:
            shown = "unrealizable"
        else:
            shown = "edges " + " ".join(f"{u}-{v}" for u, v in outcome.graph.sorted_edges())
        lines.append(f"node {o.index}: exit round={o.exit_round} D'=[{view}] {shown}")
    lines.append("checks=ok" if not issues else "checks=FAILED")
    lines.extend(f"  issue: {msg}" for msg in issues)
    return lines
