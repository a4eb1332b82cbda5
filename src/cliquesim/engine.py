"""Deterministic synchronous round engine with crash-fault injection.

Round structure: every live node due to emit computes its one send (a
message and its recipients) or stays silent, the adversary then picks which
nodes crash this round and which of each crasher's recipients still get the
message, all deliveries land, and finally every live node with mail
processes its inbox. One rule holds in every round: a node is due only in
the round its `next_emit` names (each round of phase 1, then as the
protocol schedules it) and receives only when it has mail, since `emit` in
any other round and `receive` with an empty inbox change nothing. A node
that crashes is silent in all later rounds; a sender that does not crash
reaches all its recipients.

Delivery. A send from a sender that does not crash, to its whole peer list
(`ProtocolNode.all_peers`: every cc send names it, no ncc send does), is a
broadcast and is not copied per recipient. In phase 1 the run's
`Phase1Tally` counts it once for all receivers, and each node's `receive`
hands its per-recipient mail to the same tally; in the last phase-1 round
the engine closes the tally, which classifies every live node. The engine
does not know how phase 1 counts. Later, in a round whose only send is a
broadcast, one `ProtocolNode.hear` call applies the message to every live
node in index order; no listener's `receive` runs. All other mail (a
crasher's partial delivery, a narrower send, every ncc send) goes to
per-recipient mailboxes and `receive`. `outboxes`, the round log and the
message counts do not depend on the path.

Every run keeps one raw `RoundLog` per round, carried by the result (or a
`RoundLimitExceeded`); only `trace.py` turns it into trace records.

The engine also asserts the model-level invariants that the protocol's
correctness argument relies on (at most one active transmitter, the
phase-1 heard-twice/heard-zero exclusion, which closing the tally checks,
and no smite rebroadcast for a degree someone accepted) so that rule
mutations or harness bugs surface as explicit violations instead of
silent divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

from .groups import GroupLayout, enforce_capacity
from .protocol import (
    FaultEntry,
    NodeState,
    Phase1Tally,
    ProtocolNode,
    ProtocolViolation,
    SMITE,
)

__all__ = [
    "SimConfig",
    "Metrics",
    "NodeOutcome",
    "RoundLog",
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
    """Watchdog tripped; carries the partial round log for diagnosis."""

    def __init__(self, message: str, round_log: list[RoundLog]):
        super().__init__(message)
        self.round_log = round_log


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


class RoundLog(NamedTuple):
    """One round as run, kept by reference. `transitions` holds (node, new
    state), "crashed" for a crasher, for each node whose state moved."""

    sends: dict[int, tuple[Any, list[int]]]  # the round's `outboxes`
    crashes: list[tuple[int, tuple[int, ...]]]  # sorted (node, delivered)
    transitions: tuple[tuple[int, str], ...]  # in node order


@dataclass
class ExecutionResult:
    config: SimConfig
    metrics: Metrics
    nodes: list[NodeOutcome]
    crashes: list[tuple[int, int, tuple[int, ...]]]  # (round, node, delivered)
    round_log: list[RoundLog]  # round r is round_log[r - 1]

    def survivors(self) -> list[NodeOutcome]:
        return [o for o in self.nodes if o.crashed_round is None]

    def exited(self) -> list[NodeOutcome]:
        return [o for o in self.nodes if o.exit_round is not None]


class RoundEngine:
    """Single-use: build, call run() once."""

    def __init__(self, config: SimConfig, adversary):
        self.config = config
        self.adversary = adversary
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
        self.tally = Phase1Tally(config.n)
        self.nodes = [
            ProtocolNode(
                i + 1,
                config.degrees[i],
                config.n,
                self.layout,
                config.mutations,
                self.tally,
            )
            for i in range(config.n)
        ]
        self.budget = budget
        self.round = 0
        self._live = list(self.nodes)
        self.crashed_round: dict[int, int] = {}
        self.crash_log: list[tuple[int, int, tuple[int, ...]]] = []
        self.metrics = Metrics()
        self.round_log: list[RoundLog] = []
        # Subject -> first live node, in index order, that heard it twice,
        # from closing the tally.
        self._heard_twice: dict[int, int] = {}
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
                    self.round_log,
                )
            self._step()
        self.metrics.rounds_to_termination = self._last_exit_round()
        self.metrics.allokay_broadcasters = sum(
            1 for node in self.nodes if node.allokay_broadcast
        )
        return self._result()

    def _step(self) -> None:
        rnd = self.round
        # Node -> new state, made on the first move: quiet rounds allocate nothing.
        moved: dict[int, str] | None = None
        due = [node for node in self._live if node.next_emit == rnd]
        self.outboxes = outboxes = {}
        for node in due:
            state = node.state
            send = node.emit(rnd)
            if send:
                outboxes[node.index] = send
            if node.state is not state:  # states only move forward
                moved = moved or {}
                moved[node.index] = node.state._value_

        decisions = self._crash_decisions(rnd)
        # A send from a sender that does not crash, to its whole peer list,
        # is kept once in `broadcasts`: in phase 1 always, later when it is
        # the round's only send. All other mail is copied per recipient.
        in_phase1 = rnd <= self._phase1_len
        shareable = in_phase1 or len(outboxes) == 1
        broadcasts: list[tuple[int, Any]] = []
        mailboxes: dict[int, list[Any]] = {}
        delivered_count = 0
        round_crashes: list[tuple[int, tuple[int, ...]]] = []
        for sender, (msg, recipients) in outboxes.items():
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
            whole = recipients is self.nodes[sender - 1].all_peers
            if shareable and whole and allowed is None:
                broadcasts.append((sender, msg))
            else:
                if allowed is not None:
                    recipients = [j for j in recipients if j in allowed]
                    round_crashes.append((sender, tuple(sorted(recipients))))
                for j in recipients:
                    mailboxes.setdefault(j, []).append(msg)
            delivered_count += len(recipients)
        for node_index in decisions:
            if node_index not in outboxes:
                round_crashes.append((node_index, ()))
        if round_crashes:
            round_crashes.sort()
            moved = moved or {}
            for node_index, delivered in round_crashes:
                self.crashed_round[node_index] = rnd
                self.crash_log.append((rnd, node_index, delivered))
                moved[node_index] = "crashed"
            self._live = [
                node for node in self._live if node.index not in self.crashed_round
            ]

        self.metrics.messages_sent += delivered_count
        self.metrics.per_round_counts.append(delivered_count)

        if in_phase1:
            self.tally.add(broadcasts, self._live)
        elif broadcasts:
            # One call for every live node; its sender does not listen. Only
            # a cc send is a broadcast after phase 1, so no capacity applies.
            [(_, msg)] = broadcasts
            for node in ProtocolNode.hear(rnd, msg, self._live):
                moved = moved or {}
                moved[node.index] = node.state._value_
        crashed = self.crashed_round
        for j in sorted(mailboxes):
            if j in crashed:
                continue
            node = self.nodes[j - 1]
            inbox = mailboxes[j]
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
            state = node.state
            node.receive(rnd, inbox)
            if node.state is not state:
                moved = moved or {}
                moved[node.index] = node.state._value_

        # Only `emit` makes a node active, and an active node is due every
        # round, so this round's due nodes hold every active one.
        self._check_single_active(due)
        if rnd == self._phase1_len:
            self._heard_twice = self.tally.close(self._live)
        transitions = ()
        if moved:
            transitions = tuple(sorted(moved.items()))
            # Every move but listening -> active settles the node.
            settled = [i for i, to in transitions if to != "active"]
            self._unsettled.difference_update(settled)
        # tuple.__new__ skips the named tuple's Python-level constructor.
        self.round_log.append(
            tuple.__new__(RoundLog, (outboxes, round_crashes, transitions))
        )

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
        if isinstance(msg, FaultEntry) and msg.status == SMITE:
            witness = self._heard_twice.get(msg.subject)
            if witness is not None:
                raise ProtocolViolation(
                    f"smite rebroadcast for node {msg.subject}, which node "
                    f"{witness} heard twice in phase 1"
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

    # -- reporting -----------------------------------------------------------

    def _last_exit_round(self) -> int:
        exits = [
            node.exit_round for node in self.nodes if node.exit_round is not None
        ]
        return max(exits) if exits else self.round

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
                    view=node.view,
                )
            )
        return ExecutionResult(
            config=self.config,
            metrics=self.metrics,
            nodes=outcomes,
            crashes=list(self.crash_log),
            round_log=self.round_log,
        )


def run_simulation(config: SimConfig, adversary) -> ExecutionResult:
    """Build an engine, run one execution, return the result."""
    return RoundEngine(config, adversary).run()
