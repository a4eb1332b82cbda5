"""Deterministic synchronous round engine with crash-fault injection.

Round structure: every live node due to emit computes its one send (a
message and its recipients) or stays silent, the adversary then picks which
nodes crash this round and which of each crasher's recipients still get the
message, all deliveries land, and finally the mail of every live node is
applied: in phase 1 the run's `Phase1Tally` counts it, later the node's
`receive` processes it. One rule holds in every round: a node is due only
in the round its `next_emit` names (each round of phase 1, then as the
protocol schedules it) and receives only when it has mail, since `emit` in
any other round and `receive` with an empty inbox change nothing. No round
scans every node for the due ones. A node that times itself (every node in
phase 1, then an active or signalling one) is due in each round after one
it was due in until it has nothing to send, so the due ones come from the
last round's. A listener's timer is its cohort's: member i is due when
`heard + gap * (i - sender)` is the round, so each cohort names its one
candidate, which is due if it is still a live listening member. A node
that crashes is silent in all later rounds; a sender that does not crash
reaches all its recipients. Between `step()` calls a run rests at the
adversary call of its waiting round, after that round's sends.

Delivery. A send from a sender that does not crash, to one of its group
peer lists (`ProtocolNode._group_peers`; cc has one group of n), is a group
send, kept once for its group; other mail (a crasher's partial delivery, a
narrower send) goes to per-recipient mailboxes. In phase 1 the tally gets
each group send once, then each live receiver's mailbox in receiver order,
and the last phase-1 round closes it; the engine does not know how phase 1
counts. Later one active node sends at a time, so a round with one group
send and no mail applies it with one `ProtocolNode.hear` call: an entry to
the lowest live member of each listener cohort of its group, so that each
record is updated once, and a termination signal to the group's live list,
which a crash edits in place. Any other later round, and a phase-1 round
in which an ncc inbox would overflow or the tally refuses a group send,
copies every send per recipient. Both paths learn of a node's
exit from what `hear` returns, passed on by `receive` for mail. `outboxes`,
the round log and the message counts do not depend on the path.

Every run keeps one raw `RoundLog` per round, the run's one record of its
sends, crashes and transitions; a round's crashes are logged before its
deliveries, which read them. The result carries it, and so does every
`ProtocolViolation` or `SimulationError` that escapes `step`, up to the
round that raised; the result's crash list is read off it, and only
`trace.py` turns it into trace records.

The engine also asserts the model-level invariants that the protocol's
correctness argument relies on (at most one active transmitter, the
phase-1 heard-twice/heard-zero exclusion, which closing the tally checks,
and no smite rebroadcast for a degree someone accepted) so that rule
mutations or harness bugs surface as explicit violations instead of
silent divergence.
"""

from __future__ import annotations

import marshal
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, NamedTuple, Optional

from .groups import GroupLayout, enforce_capacity
from .protocol import (
    Cohort,
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
    """Watchdog tripped."""


class CapacityViolation(SimulationError):
    """Strict mode: a node's inbox overflowed and a message was dropped."""


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

    def check_budget(self, budget: int) -> None:
        """A run may crash fewer than n nodes."""
        if not 0 <= budget < self.n:
            raise ConfigError(f"fault budget {budget} must be in [0, n={self.n})")


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
    """One round as run, kept by reference and logged once the round's crash
    decisions are made, with its whole crash record; `transitions` fills in
    as the round goes on. It holds (node, new state), "crashed" for a
    crasher, for each node whose state moved."""

    sends: dict[int, tuple[Any, list[int]]]  # the round's `outboxes`
    crashes: list[tuple[int, tuple[int, ...]]]  # sorted (node, delivered)
    transitions: list[tuple[int, str]]  # in node order


@dataclass
class ExecutionResult:
    """A finished run. Its crashes are read off its round log, the one
    record of them."""

    config: SimConfig
    metrics: Metrics
    nodes: list[NodeOutcome]
    round_log: list[RoundLog]  # round r is round_log[r - 1]

    @property
    def crashes(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """(round, node, delivered) of each crash, in round and node order."""
        return [
            (rnd, node, delivered)
            for rnd, log in enumerate(self.round_log, start=1)
            for node, delivered in log.crashes
        ]

    def survivors(self) -> list[NodeOutcome]:
        return [o for o in self.nodes if o.crashed_round is None]

    def exited(self) -> list[NodeOutcome]:
        return [o for o in self.nodes if o.exit_round is not None]


class RoundEngine:
    """One run, stepped a round at a time: `run()` steps it to the end and
    returns its result. `fork(adversary)` copies it at its adversary call;
    the copy steps on under its own adversary, and neither changes the other."""

    def __init__(self, config: SimConfig, adversary):
        self.config = config
        # The uncapacitated model is one group of n with no capacity limit.
        if config.model == "ncc":
            self.layout = GroupLayout.for_clique(config.n)
            self.capacity = config.capacity_c * self.layout.group_size
        else:
            self.layout = GroupLayout(config.n, config.n, 1)
            self.capacity = None
        self.tally = Phase1Tally(self.layout)
        self.nodes = nodes = [
            ProtocolNode(i + 1, config.degrees[i], self.layout, config.mutations)
            for i in range(config.n)
        ]
        self._set_adversary(adversary)
        self.round = 0
        # Each group's live members in index order; a crash removes its node.
        size = self.layout.group_size
        self._group_live = [nodes[lo : lo + size] for lo in range(0, config.n, size)]
        # Each group's listener records once phase 1 closes, in no order. A
        # record no node listens in any more is dropped when next met.
        self._cohorts: list[list[Cohort]] = [[] for _ in self._group_live]
        self._gap = nodes[0].gap
        self._due = nodes  # every node is due in round 1
        self.crashed_round: dict[int, int] = {}
        self.metrics = Metrics()
        self.round_log: list[RoundLog] = []
        self._phase1_len = self.nodes[0].phase1_len
        self._unsettled = set(range(1, config.n + 1))
        # Round 1's sends wait at the adversary call; `outboxes`, visible to
        # adaptive adversaries, holds each sender's (message, recipients).
        self._send()

    def _set_adversary(self, adversary) -> None:
        """Install `adversary` with its budget and the watchdog's round cap,
        which depends on the budget."""
        budget = getattr(adversary, "budget", 0)
        self.config.check_budget(budget)
        self.adversary = adversary
        self.budget = budget
        # Watchdog: every timeout and transmission is stretched by the group
        # count, so the cap scales with it too.
        groups = self.layout.group_count
        self.round_cap = (10 * (self.config.n + budget) + 20) * groups

    def fork(self, adversary) -> RoundEngine:
        """A copy of this engine at its adversary call that steps on under
        `adversary`. It copies what a round changes (the nodes, each cohort
        record once, the live, cohort and due lists, state moves, crash
        rounds, metrics, log list and, until phase 1 closes, tally) and
        shares the rest, the waiting round's sends too."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._set_adversary(adversary)
        cohorts: dict[int, Cohort] = {}  # each record copied once
        twin.nodes = nodes = [node.fork(cohorts) for node in self.nodes]
        twin._group_live = [
            [nodes[node.index - 1] for node in live] for live in self._group_live
        ]
        twin._cohorts = [
            [cohorts[id(c)] for c in group if id(c) in cohorts] for group in self._cohorts
        ]
        twin._due = [nodes[node.index - 1] for node in self._due]
        twin._moved = dict(self._moved)
        twin.crashed_round = dict(self.crashed_round)
        # Cheaper than dataclasses.replace, which runs the field machinery.
        twin.metrics = metrics = object.__new__(Metrics)
        metrics.__dict__.update(self.metrics.__dict__)
        metrics.per_round_counts = list(self.metrics.per_round_counts)
        twin.round_log = list(self.round_log)
        twin._unsettled = set(self._unsettled)
        if self.round <= self._phase1_len:
            twin.tally = self.tally.fork()
        return twin

    def key(self) -> bytes:
        """This run at its adversary call as compact bytes: two runs of one
        config and budget with the same key step on alike, under the same
        crashes, but for their message counts, which the key leaves out.

        It holds the round, the crashed set, the waiting round's sends,
        moves and due nodes, each node's `ProtocolNode.key`, the tally while
        phase 1 is open and its `heard_twice` after, and the unsettled set.
        Left out: what the config and budget fix (layout, capacity, round
        cap, phase-1 length), the live lists (the crashed set fixes them),
        the adversary, and the metrics and round log, which no later round
        reads. Crash rounds are left out too: a check reads only who
        crashed. Marshal format 2 writes no back-references, so equal
        values give equal bytes."""
        crashed = self.crashed_round
        tally = self.tally
        if self.round <= self._phase1_len:
            phase1 = tally.count, tally.degree, tally.mail
        else:
            phase1 = tally.heard_twice
        state = (
            self.round,
            sorted(crashed),
            [(sender, tuple(msg), to) for sender, (msg, to) in self.outboxes.items()],
            self._moved,
            [node.index for node in self._due],
            [node.key(node.index in crashed) for node in self.nodes],
            phase1,
            sorted(self._unsettled),
        )
        return marshal.dumps(state, 2)

    # -- helpers ------------------------------------------------------------

    def is_crashed(self, index: int) -> bool:
        return index in self.crashed_round

    def remaining_budget(self) -> int:
        return self.budget - len(self.crashed_round)

    # -- main loop -----------------------------------------------------------

    def run(self) -> ExecutionResult:
        while self._unsettled:
            self.step()
        return self.result()

    def step(self) -> None:
        """Finish the round waiting at the adversary call, then make the
        next round's sends unless every node has settled. An error that
        escapes carries the round log; a finished engine does nothing."""
        if not self._unsettled:
            return
        try:
            self._deliver()
            if self._unsettled:
                self._send()
        except (ProtocolViolation, SimulationError) as exc:
            exc.round_log = self.round_log
            raise

    def _send(self) -> None:
        """Make the next round's sends. No round runs past the round cap."""
        self.round = rnd = self.round + 1
        if rnd > self.round_cap:
            raise RoundLimitExceeded(
                f"no termination within {self.round_cap} rounds "
                f"(n={self.config.n}, model={self.config.model})"
            )
        self._moved = moved = {}  # node -> new state
        # A node that times itself (in phase 1, active or signalling) is due
        # in every round after one it was due in, until it has nothing to
        # send; a listener is due when its cohort's timer names it.
        due = [node for node in self._due if node._timer == rnd]  # a crash clears it
        if rnd > self._phase1_len:
            gap, nodes = self._gap, self.nodes
            n = len(nodes)
            for cohorts in self._cohorts:
                for cohort in cohorts:
                    # The member i with heard + gap * (i - sender) == rnd, if
                    # it listens; a crashed node holds no record.
                    waited = rnd - cohort.heard
                    if waited % gap == 0 and waited >= 0:
                        i = cohort.sender + waited // gap
                        if i <= n:
                            node = nodes[i - 1]
                            if node._cohort is cohort and node.state is NodeState.LISTENING:
                                due.append(node)
            if len(due) > 1:
                due.sort(key=attrgetter("index"))
        self._due = due
        self.outboxes = outboxes = {}
        for node in due:
            state = node.state
            send = node.emit(rnd)
            if send:
                outboxes[node.index] = send
            if node.state is not state:  # states only move forward
                moved[node.index] = node.state._value_

    def _deliver(self) -> None:
        """Finish the waiting round, from its crash decisions on."""
        rnd, moved, outboxes = self.round, self._moved, self.outboxes
        decisions = self._crash_decisions(rnd)
        transitions: list[tuple[int, str]] = []
        # tuple.__new__ skips the named tuple's Python-level constructor.
        self.round_log.append(
            tuple.__new__(RoundLog, (outboxes, [*decisions.items()], transitions))
        )
        for node_index in decisions:
            self.crashed_round[node_index] = rnd
            moved[node_index] = "crashed"
            node = self.nodes[node_index - 1]
            node.freeze()  # its view stays as it is while its cohort hears on
            self._group_live[node._group - 1].remove(node)
        # A group send is kept once in `sends`, with its group. A crasher's
        # delivery is a new tuple, never a peer list.
        size, capacity = self.layout.group_size, self.capacity
        in_phase1 = rnd <= self._phase1_len
        sends, mailboxes = [], {}
        delivered_count, widest = 0, self.metrics.max_send_per_round
        for sender, (msg, recipients) in outboxes.items():
            if not in_phase1:  # no subject is heard twice before phase 1 ends
                self._check_outgoing(msg)
            if capacity is not None:
                widest = max(widest, len(recipients))
                if len(recipients) > capacity:
                    raise ProtocolViolation(
                        f"node {sender} sent {len(recipients)} messages in round "
                        f"{rnd}, capacity {capacity}"
                    )
            delivered = decisions.get(sender, recipients)
            delivered_count += len(delivered)
            if delivered:
                node, group = self.nodes[sender - 1], (delivered[0] - 1) // size + 1
                if delivered is node._group_peers[group - 1]:
                    sends.append((node, group, msg))
                    continue
            for j in delivered:
                mailboxes.setdefault(j, []).append(msg)
        self.metrics.max_send_per_round = widest
        self.metrics.messages_sent += delivered_count
        self.metrics.per_round_counts.append(delivered_count)

        if sends and not self._share(sends, mailboxes, in_phase1):
            sends, mailboxes = [], {}  # every copy is mail, in sender order
            for sender, (msg, recipients) in outboxes.items():
                for j in decisions.get(sender, recipients):
                    mailboxes.setdefault(j, []).append(msg)
        if not in_phase1:
            for _, group, msg in sends:
                if isinstance(msg, FaultEntry):  # once per cohort
                    listeners = self._cohort_heads(group)
                else:
                    listeners = self._group_live[group - 1]
                for node in ProtocolNode.hear(rnd, msg, listeners):
                    moved[node.index] = node.state._value_
        crashed = self.crashed_round
        for j in sorted(mailboxes):
            if j in crashed:
                continue
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
                            f"node {j} dropped {len(dropped)} messages in round {rnd}"
                        )
            if in_phase1:
                self.tally.add_mail(j, inbox)
                continue
            receiver = self.nodes[j - 1]
            cohort = receiver._cohort
            for node in receiver.receive(rnd, inbox):
                moved[node.index] = node.state._value_
            if receiver._cohort is not cohort:  # it left its cohort
                self._cohorts[receiver._group - 1].append(receiver._cohort)

        # Only `emit` makes a node active, and an active node is due every
        # round, so this round's due nodes hold every active one.
        self._check_single_active(self._due)
        if rnd == self._phase1_len:
            self._cohorts = self.tally.close(
                [node for live in self._group_live for node in live]
            )
        if moved:
            transitions.extend(sorted(moved.items()))
            # Every move but listening -> active settles the node.
            settled = [i for i, to in transitions if to != "active"]
            self._unsettled.difference_update(settled)

    def _share(self, sends, mailboxes, in_phase1: bool) -> bool:
        """Whether the round's group sends stay shared: later only a lone
        group send with no mail, which each live member of its group gets
        once; in phase 1 while the tally counts them and, in ncc, no inbox
        overflows. A live node's inbox is the group sends naming its group,
        but its own, and its mail."""
        if not in_phase1:
            return len(sends) == 1 and not mailboxes
        if self.capacity is None:  # cc: no limit
            return self.tally.add(sends)
        named = Counter(group for _, group, _ in sends)
        own = {node.index for node, group, _ in sends if node._group == group}
        largest = 0
        for j, inbox in mailboxes.items():
            if j not in self.crashed_round:
                size = named.get(self.nodes[j - 1]._group, 0) - (j in own) + len(inbox)
                largest = max(largest, size)
        for group, k in named.items():  # each live member gets k, or k - 1
            members = self._group_live[group - 1] if k > largest else None
            if members:
                largest = max(largest, k - all(node.index in own for node in members))
        metrics = self.metrics
        metrics.max_recv_per_round = max(metrics.max_recv_per_round, largest)
        return largest <= self.capacity and self.tally.add(sends)

    def _cohort_heads(self, group: int) -> list[ProtocolNode]:
        """The lowest member of each cohort of `group` whose members listen,
        in index order; the group's other records are dropped. A crashed node
        is no member."""
        nodes, listening = self.nodes, NodeState.LISTENING
        kept, heads = [], []
        for cohort in self._cohorts[group - 1]:
            members = cohort.members
            if members:
                head = nodes[members[0] - 1]
                if head.state is listening:
                    kept.append(cohort)
                    heads.append(head)
        self._cohorts[group - 1] = kept
        if len(heads) > 1:
            heads.sort(key=attrgetter("index"))
        return heads

    def _crash_decisions(self, rnd: int) -> dict[int, tuple[int, ...]]:
        """Each crasher, in node order, to the recipients it still reaches.
        A crash may name only the crasher's peers."""
        raw = self.adversary.decide(self, rnd)
        if not raw:
            return {}
        decisions: dict[int, tuple[int, ...]] = {}
        for node_index in sorted(raw):
            if not 1 <= node_index <= self.config.n:
                raise AdversaryError(f"crash of unknown node {node_index}")
            if self.is_crashed(node_index):
                raise AdversaryError(f"node {node_index} crashed twice")
            allowed = frozenset(raw[node_index])
            for j in sorted(allowed):
                if j == node_index or not 1 <= j <= self.config.n:
                    raise AdversaryError(
                        f"crash of node {node_index} delivers to {j}, not a peer"
                    )
            _, sent = self.outboxes.get(node_index, (None, ()))
            # A crash that reaches nobody skips the walk over its recipients,
            # a whole group's in cc.
            delivered = (j for j in sent if j in allowed) if allowed else ()
            decisions[node_index] = tuple(sorted(delivered))
        if len(self.crashed_round) + len(decisions) > self.budget:
            raise AdversaryError(
                f"fault budget {self.budget} exceeded in round {rnd}"
            )
        return decisions

    # -- invariants ----------------------------------------------------------

    def _check_outgoing(self, msg: Any) -> None:
        if isinstance(msg, FaultEntry) and msg.status == SMITE:
            witness = self.tally.heard_twice.get(msg.subject)
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
        exits = (node.exit_round for node in self.nodes if node.exit_round is not None)
        return max(exits, default=self.round)

    def result(self) -> ExecutionResult:
        """The finished run's result."""
        self.metrics.rounds_to_termination = self._last_exit_round()
        self.metrics.allokay_broadcasters = sum(
            1 for node in self.nodes if node.allokay_broadcast
        )
        crashed = self.crashed_round
        outcomes = [
            NodeOutcome(
                index=node.index,
                state="crashed" if node.index in crashed else node.state.value,
                crashed_round=crashed.get(node.index),
                exit_round=node.exit_round,
                view=node.view,
            )
            for node in self.nodes
        ]
        return ExecutionResult(
            config=self.config,
            metrics=self.metrics,
            nodes=outcomes,
            round_log=self.round_log,
        )


def run_simulation(config: SimConfig, adversary) -> ExecutionResult:
    """Build an engine, run one execution, return the result."""
    return RoundEngine(config, adversary).run()
