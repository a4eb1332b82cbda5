"""Crash strategies: benign, scripted (which the schedule explorer plays),
randomized, an adaptive worst-case heuristic, and the brute-force plan
space that the tests run as the explorer's oracle.

An adversary is any object with a `budget` attribute and a
`decide(engine, round) -> dict[node, recipients] | None` method, called once
per round after all sends are computed: `engine.outboxes[i]` is node i's one
`(message, recipients)` pair this round, absent when i is silent. Returning
a node index crashes that node this round; the associated recipient
collection is the subset of its recipients that still gets the message.
Decisions may inspect the full engine state (the model grants the adversary
complete observability).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import NamedTuple, Sequence

from .protocol import FaultEntry

__all__ = [
    "CrashEvent",
    "CrashPlan",
    "NoneAdversary",
    "ScriptedAdversary",
    "RandomAdversary",
    "WorstCaseAdversary",
    "parse_plan_file",
    "format_plan",
]


class CrashEvent(NamedTuple):
    round: int
    node: int
    recipients: tuple[int, ...]  # delivered subset of that round's outbox


@dataclass(frozen=True)
class CrashPlan:
    """Fully scripted crash schedule: at most one crash per node."""

    events: tuple[CrashEvent, ...]

    def __post_init__(self) -> None:
        nodes = [e.node for e in self.events]
        if len(set(nodes)) != len(nodes):
            raise ValueError("a node may crash at most once")
        if any(e.round < 1 for e in self.events):
            raise ValueError("crash rounds start at 1")

    def __len__(self) -> int:
        return len(self.events)


class NoneAdversary:
    """Crashes nobody, whatever the budget."""

    def __init__(self, budget: int = 0):
        self.budget = budget

    def decide(self, engine, rnd: int):
        return None


class ScriptedAdversary:
    def __init__(self, plan: CrashPlan):
        self.plan = plan
        self.budget = len(plan)
        self._by_round: dict[int, dict[int, tuple[int, ...]]] = {}
        for event in plan.events:
            self._by_round.setdefault(event.round, {})[event.node] = event.recipients

    def decide(self, engine, rnd: int):
        return self._by_round.get(rnd)


class RandomAdversary:
    """Each not-yet-crashed node crashes independently per round with fixed
    probability until the budget runs out; the subset of its crash-round
    recipients that still get the message is uniform."""

    def __init__(self, seed: int, budget: int, crash_probability: float = 0.05):
        if not 0 <= crash_probability <= 1:
            raise ValueError(f"crash probability {crash_probability} not in [0, 1]")
        self.budget = budget
        self.crash_probability = crash_probability
        self._rng = random.Random(seed)

    def decide(self, engine, rnd: int):
        decisions: dict[int, tuple[int, ...]] = {}
        for node in engine.nodes:
            if engine.remaining_budget() - len(decisions) <= 0:
                break
            if engine.is_crashed(node.index):
                continue
            if self._rng.random() >= self.crash_probability:
                continue
            _, targets = engine.outboxes.get(node.index, (None, ()))
            decisions[node.index] = tuple(
                j for j in targets if self._rng.random() < 0.5
            )
        return decisions or None


class WorstCaseAdversary:
    """Round-stretching heuristic: one phase-1 crash splits the network's
    view of a degree in half, then every successive active node is crashed
    while sending the last copy of an entry, with nothing delivered, so its
    successor must wait out the full silence timeout and retransmit."""

    def __init__(self, budget: int):
        self.budget = budget

    def decide(self, engine, rnd: int):
        if self.budget == 0:
            return None
        if rnd == 1 and not engine.is_crashed(2) and engine.config.n >= 2:
            _, recipients = engine.outboxes.get(2, (None, ()))
            return {2: tuple(recipients[: (len(recipients) + 1) // 2])}
        if rnd <= engine.nodes[0].phase1_len or engine.remaining_budget() == 0:
            return None
        for index, (msg, _) in engine.outboxes.items():
            node = engine.nodes[index - 1]
            finished_entry = (
                node.current_subject is None
                and node.sends_done == node.copies_per_entry
            )
            if isinstance(msg, FaultEntry) and finished_entry:
                return {index: ()}
        return None


class PlanSpace(Sequence):
    """Every crash schedule with up to f crashers, crash rounds in
    [1, horizon], and per-crasher delivery subsets over the other n-1 nodes.

    Tests run it in full as the brute-force oracle for the verifier's
    schedule explorer, which counts the same plans in closed form. Plans
    are decoded by index, but every crasher set is held: small n and f only.
    It is not exported, and moves into the tests once the benchmark's
    tracer (`perfbench/tracer.py`) stops wrapping its `__getitem__`.
    """

    def __init__(self, n: int, f: int, horizon: int):
        if not (0 <= f < n and 1 <= horizon):
            raise ValueError(
                f"a plan space needs 0<=f<n and 1<=horizon; "
                f"got n={n}, f={f}, horizon={horizon}"
            )
        self.n = n
        self.subsets_per_node = 1 << (n - 1)
        self.options = horizon * self.subsets_per_node
        self._node_sets = [
            nodes for k in range(f + 1) for nodes in combinations(range(1, n + 1), k)
        ]
        # The plans of crasher set b start at _offsets[b]; the last is the total.
        self._offsets = list(
            accumulate((self.options ** len(s) for s in self._node_sets), initial=0)
        )

    def __len__(self) -> int:
        return self._offsets[-1]

    def __getitem__(self, index: int) -> CrashPlan:
        if not 0 <= index < len(self):
            raise IndexError(index)
        block = bisect_right(self._offsets, index) - 1
        nodes = self._node_sets[block]
        rest = index - self._offsets[block]
        events = []
        for node in reversed(nodes):
            rest, option = divmod(rest, self.options)
            rnd, mask = divmod(option, self.subsets_per_node)
            others = [j for j in range(1, self.n + 1) if j != node]
            recipients = tuple(
                others[b] for b in range(self.n - 1) if mask >> b & 1
            )
            events.append(CrashEvent(rnd + 1, node, recipients))
        return CrashPlan(tuple(reversed(events)))


def format_plan(plan: CrashPlan) -> str:
    """One crash event per line: round, node index, delivered recipients."""
    lines = ["# round node recipients"]
    for event in sorted(plan.events):
        recips = ",".join(str(j) for j in event.recipients) or "-"
        lines.append(f"{event.round} {event.node} {recips}")
    return "\n".join(lines) + "\n"


def parse_plan_file(text: str) -> CrashPlan:
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"plan line {lineno}: expected 'round node recipients'")
        rnd, node = int(parts[0]), int(parts[1])
        if parts[2] == "-":
            recipients: tuple[int, ...] = ()
        else:
            recipients = tuple(int(x) for x in parts[2].split(","))
        events.append(CrashEvent(rnd, node, recipients))
    return CrashPlan(tuple(events))
