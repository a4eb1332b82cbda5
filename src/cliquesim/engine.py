"""Deterministic synchronous round engine with crash-fault injection.

Round structure: every live node due to emit computes its one send (a
message and its recipients) or stays silent, the adversary then picks which
nodes crash this round and which of each crasher's recipients still get the
message, all deliveries land, and finally every live node with mail
processes its inbox. In phase 1 every live node is due and every live node
receives, mail or not; afterwards a node is due only in the round its
`next_emit` names, since `emit` in any other round and `receive` with an
empty inbox change nothing. A node that crashes is silent in all later
rounds; a sender that does not crash reaches all its recipients.

The engine also asserts the model-level invariants that the protocol's
correctness argument relies on (at most one active transmitter, the
phase-1 heard-twice/heard-zero exclusion, no smite rebroadcast for a
degree someone accepted) so that rule mutations or harness bugs surface
as explicit violations instead of silent divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .groups import GroupLayout, enforce_capacity
from .protocol import (
    AllOkay,
    Announce,
    FaultEntry,
    NodeState,
    ProtocolNode,
    ProtocolViolation,
    SMITE,
)

__all__ = [
    "SimConfig",
    "Metrics",
    "NodeOutcome",
    "ExecutionResult",
    "RoundEngine",
    "SimulationError",
    "ConfigError",
    "AdversaryError",
    "RoundLimitExceeded",
    "CapacityViolation",
    "run_simulation",
]


class SimulationError(Exception):
    """Base for engine-level failures."""


class ConfigError(SimulationError):
    pass


class AdversaryError(SimulationError):
    """The adversary broke its contract (budget, double crash, ...)."""


class RoundLimitExceeded(SimulationError):
    """Watchdog tripped; carries the partial trace for diagnosis."""

    def __init__(self, message: str, trace_rounds: list[dict] | None = None):
        super().__init__(message)
        self.trace_rounds = trace_rounds


class CapacityViolation(SimulationError):
    """Strict mode: a message was dropped or a send budget was exceeded."""


@dataclass(frozen=True)
class SimConfig:
    """One execution's parameters. `mutations` injects test-only rule
    changes and must stay empty in real use."""

    n: int
    degrees: tuple[int, ...]
    model: str = "cc"
    capacity_c: int = 1
    strict: bool = False
    seed: int = 0
    mutations: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if len(self.degrees) != self.n:
            raise ConfigError(
                f"degree list has {len(self.degrees)} entries for n={self.n}"
            )
        if any(d < 0 for d in self.degrees):
            raise ConfigError("degrees must be non-negative")
        if self.model not in ("cc", "ncc"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.capacity_c < 1:
            raise ConfigError("capacity constant must be >= 1")


@dataclass
class Metrics:
    rounds_to_termination: int = 0
    messages_sent: int = 0
    per_round_counts: list[int] = field(default_factory=list)
    allokay_broadcasters: int = 0
    max_send_per_round: int = 0
    max_recv_per_round: int = 0
    dropped_messages: int = 0


@dataclass
class NodeOutcome:
    """Final per-node record. Its realization verdict is a function of the
    view alone; `harness.verdict` computes it."""

    index: int
    state: str
    crashed_round: Optional[int]
    exit_round: Optional[int]
    view: dict[int, int]


@dataclass
class ExecutionResult:
    config: SimConfig
    metrics: Metrics
    nodes: list[NodeOutcome]
    crashes: list[tuple[int, int, tuple[int, ...]]]  # (round, node, delivered)
    trace_rounds: Optional[list[dict]] = None

    def survivors(self) -> list[NodeOutcome]:
        return [o for o in self.nodes if o.crashed_round is None]

    def exited(self) -> list[NodeOutcome]:
        return [o for o in self.nodes if o.exit_round is not None]


class RoundEngine:
    """Single-use: build, call run() once."""

    def __init__(self, config: SimConfig, adversary, record_trace: bool = False):
        self.config = config
        self.adversary = adversary
        self.record_trace = record_trace
        budget = getattr(adversary, "budget", 0)
        if not 0 <= budget < config.n:
            raise ConfigError(f"fault budget {budget} must be in [0, n={config.n})")
        # The uncapacitated model is one group of n with no capacity limit.
        if config.model == "ncc":
            self.layout = GroupLayout.for_clique(config.n)
            self.capacity = config.capacity_c * self.layout.group_size
        else:
            self.layout = GroupLayout(config.n, config.n, 1)
            self.capacity = None
        self.nodes = [
            ProtocolNode(
                i + 1, config.degrees[i], config.n, self.layout, config.mutations
            )
            for i in range(config.n)
        ]
        self.budget = budget
        self.round = 0
        self._live = list(self.nodes)
        self.crashed_round: dict[int, int] = {}
        self.crash_log: list[tuple[int, int, tuple[int, ...]]] = []
        self.metrics = Metrics()
        self.trace_rounds: list[dict] = []
        self._phase1_counts: dict[int, list[int]] | None = None
        self._heard_twice: set[int] = set()
        self._phase1_len = self.nodes[0].phase1_len
        self._unsettled = set(range(1, config.n + 1))
        # Watchdog: every timeout and transmission is stretched by the group
        # count, so the cap scales with it too.
        self.round_cap = (10 * (config.n + budget) + 20) * self.layout.group_count
        # Current-round scratch, visible to adaptive adversaries: each
        # sender's one (message, recipients) pair.
        self.outboxes: dict[int, tuple[Any, list[int]]] = {}

    # -- helpers ------------------------------------------------------------

    def is_crashed(self, index: int) -> bool:
        return index in self.crashed_round

    def remaining_budget(self) -> int:
        return self.budget - len(self.crashed_round)

    # -- main loop -----------------------------------------------------------

    def run(self) -> ExecutionResult:
        while self._unsettled:
            self.round += 1
            if self.round > self.round_cap:
                raise RoundLimitExceeded(
                    f"no termination within {self.round_cap} rounds "
                    f"(n={self.config.n}, model={self.config.model})",
                    self.trace_rounds if self.record_trace else None,
                )
            self._step()
        self.metrics.rounds_to_termination = self._last_exit_round()
        self.metrics.allokay_broadcasters = sum(
            1 for node in self.nodes if node.allokay_broadcast
        )
        return self._result()

    def _step(self) -> None:
        rnd = self.round
        states_before = (
            [node.state for node in self.nodes] if self.record_trace else None
        )

        in_phase1 = rnd <= self._phase1_len
        if in_phase1:
            due = self._live
        else:
            due = [node for node in self._live if node.next_emit == rnd]
        self.outboxes = {}
        for node in due:
            send = node.emit(rnd)
            if send:
                self.outboxes[node.index] = send
            if node.state is NodeState.EXIT:
                self._unsettled.discard(node.index)

        decisions = self._crash_decisions(rnd)
        mailboxes: dict[int, list[Any]] = {}
        delivered_count = 0
        round_crashes: list[tuple[int, tuple[int, ...]]] = []
        for sender, (msg, recipients) in self.outboxes.items():
            self._check_outgoing(msg)
            if self.capacity is not None:
                self.metrics.max_send_per_round = max(
                    self.metrics.max_send_per_round, len(recipients)
                )
                if len(recipients) > self.capacity:
                    raise ProtocolViolation(
                        f"node {sender} sent {len(recipients)} messages in round "
                        f"{rnd}, capacity {self.capacity}"
                    )
            allowed = decisions.get(sender)
            if allowed is not None:
                recipients = [j for j in recipients if j in allowed]
                round_crashes.append((sender, tuple(sorted(recipients))))
            for j in recipients:
                mailboxes.setdefault(j, []).append(msg)
            delivered_count += len(recipients)
        for node_index in decisions:
            if node_index not in self.outboxes:
                round_crashes.append((node_index, ()))
        if round_crashes:
            round_crashes.sort()
            for node_index, delivered in round_crashes:
                self.crashed_round[node_index] = rnd
                self.crash_log.append((rnd, node_index, delivered))
                self._unsettled.discard(node_index)
            self._live = [
                node for node in self._live if node.index not in self.crashed_round
            ]

        self.metrics.messages_sent += delivered_count
        self.metrics.per_round_counts.append(delivered_count)

        if in_phase1:
            receivers = self._live
        else:
            crashed = self.crashed_round
            receivers = [
                self.nodes[j - 1] for j in sorted(mailboxes) if j not in crashed
            ]
        for node in receivers:
            inbox = mailboxes.get(node.index, [])
            if self.capacity is not None:
                self.metrics.max_recv_per_round = max(
                    self.metrics.max_recv_per_round, len(inbox)
                )
                if len(inbox) > self.capacity:
                    inbox, dropped = enforce_capacity(inbox, self.capacity)
                    self.metrics.dropped_messages += len(dropped)
                    if self.config.strict:
                        raise CapacityViolation(
                            f"node {node.index} dropped {len(dropped)} messages "
                            f"in round {rnd}"
                        )
            node.receive(rnd, inbox)
            if node.state is NodeState.EXIT:
                self._unsettled.discard(node.index)

        # Only `emit` makes a node active, and an active node is due every
        # round, so this round's due nodes hold every active one.
        self._check_single_active(due)
        if rnd == self._phase1_len:
            self._check_phase1_exclusion()
        if self.record_trace:
            self._record_round(rnd, round_crashes, states_before)

    def _crash_decisions(self, rnd: int) -> dict[int, frozenset[int]]:
        raw = self.adversary.decide(self, rnd)
        if not raw:
            return {}
        decisions: dict[int, frozenset[int]] = {}
        for node_index, recipients in raw.items():
            if not 1 <= node_index <= self.config.n:
                raise AdversaryError(f"crash of unknown node {node_index}")
            if self.is_crashed(node_index):
                raise AdversaryError(f"node {node_index} crashed twice")
            decisions[node_index] = frozenset(recipients)
        if len(self.crashed_round) + len(decisions) > self.budget:
            raise AdversaryError(
                f"fault budget {self.budget} exceeded in round {rnd}"
            )
        return decisions

    # -- invariants ----------------------------------------------------------

    def _check_outgoing(self, msg: Any) -> None:
        if (
            isinstance(msg, FaultEntry)
            and msg.status == SMITE
            and msg.subject in self._heard_twice
        ):
            for node_index, counts in self._phase1_counts.items():
                if counts[msg.subject] >= 2:
                    raise ProtocolViolation(
                        f"smite rebroadcast for node {msg.subject}, which node "
                        f"{node_index} heard twice in phase 1"
                    )

    def _check_single_active(self, due: list[ProtocolNode]) -> None:
        first = 0
        for node in due:
            if node.state is NodeState.ACTIVE and node.index not in self.crashed_round:
                if first:
                    raise ProtocolViolation(
                        f"nodes {first} and {node.index} are simultaneously "
                        f"active in round {self.round}"
                    )
                first = node.index

    def _check_phase1_exclusion(self) -> None:
        """Snapshot the live nodes' phase-1 counts, note every subject some
        node heard twice (the smite check's set), and check that no subject
        was heard twice by one node and never by another."""
        rows = self._phase1_counts = {
            node.index: list(node.heard_count) for node in self._live
        }
        # Column s of the transposed rows holds every live node's count of s;
        # column 0 names no node.
        columns = zip(*rows.values())
        next(columns, None)
        for subject, column in enumerate(columns, start=1):
            if max(column) < 2:
                continue
            self._heard_twice.add(subject)
            own = rows.get(subject)
            if column.count(0) == (own is not None and own[subject] == 0):
                continue  # no other node missed it
            twice = [i for i, c in rows.items() if i != subject and c[subject] >= 2]
            never = [i for i, c in rows.items() if i != subject and c[subject] == 0]
            if twice and never:
                raise ProtocolViolation(
                    f"phase-1 exclusion broken for node {subject}: heard twice "
                    f"by {twice}, never by {never}"
                )

    # -- reporting -----------------------------------------------------------

    def _last_exit_round(self) -> int:
        exits = [
            node.exit_round for node in self.nodes if node.exit_round is not None
        ]
        return max(exits) if exits else self.round

    def _record_round(
        self,
        rnd: int,
        round_crashes: list[tuple[int, tuple[int, ...]]],
        states_before: list[NodeState],
    ) -> None:
        sends = [
            _send_record(msg, recipients)
            for _, (msg, recipients) in sorted(self.outboxes.items())
        ]
        transitions = []
        for node, before in zip(self.nodes, states_before):
            crashed_now = self.crashed_round.get(node.index) == rnd
            if crashed_now:
                transitions.append({"node": node.index, "to": "crashed"})
            elif node.state is not before:
                transitions.append({"node": node.index, "to": node.state.value})
        self.trace_rounds.append(
            {
                "record": "round",
                "round": rnd,
                "crashes": [
                    {"node": i, "delivered": list(d)} for i, d in sorted(round_crashes)
                ],
                "sends": sends,
                "transitions": transitions,
            }
        )

    def _result(self) -> ExecutionResult:
        outcomes = []
        for node in self.nodes:
            crashed = self.crashed_round.get(node.index)
            if crashed is not None:
                state = "crashed"
            else:
                state = node.state.value
            outcomes.append(
                NodeOutcome(
                    index=node.index,
                    state=state,
                    crashed_round=crashed,
                    exit_round=node.exit_round,
                    view=dict(node.view),
                )
            )
        return ExecutionResult(
            config=self.config,
            metrics=self.metrics,
            nodes=outcomes,
            crashes=list(self.crash_log),
            trace_rounds=self.trace_rounds if self.record_trace else None,
        )


_SEND_KINDS = {Announce: "announce", FaultEntry: "fault", AllOkay: "allokay"}


def _send_record(msg: Any, recipients: list[int]) -> dict:
    """A send's trace record: the message's fields, `sender` renamed `from`."""
    record = msg._asdict()
    record["from"] = record.pop("sender")
    record["kind"] = _SEND_KINDS[type(msg)]
    record["to"] = list(recipients)
    return record


def run_simulation(
    config: SimConfig, adversary, record_trace: bool = False
) -> ExecutionResult:
    """Build an engine, run one execution, return the result."""
    return RoundEngine(config, adversary, record_trace=record_trace).run()
