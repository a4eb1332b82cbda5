"""Per-node state machine for fault-tolerant degree-sequence agreement.

Each node runs two phases. Phase 1 (the first two rounds, or two group
sweeps in capacitated mode) broadcasts the node's own degree twice; peers
are then classified by how often they were heard: twice (degree accepted),
once (faulty, degree known), or never (smite, degree unknown). Phase 2
serializes the network: at most one node at a time is active, rebroadcasting
its unresolved classifications twice each so every listener converges on
the same degree view, with silence timeouts handing the active role to the
next surviving index. A node that exhausts its list folds leftovers into
its view and broadcasts a termination signal; listeners that receive the
signal fold in and stop without rebroadcasting.

Nodes are stepped by the round engine: `emit(round)` produces this round's
one send (and applies send-side transitions), `receive(round, inbox)` applies
reception rules. Both are deterministic; all cross-node interaction flows
through the engine. After phase 1 a node keeps `next_emit`, the only round in
which `emit` can act: its activation round while listening, the next round
while active or while termination signals are pending, and None once there
is nothing left to send. A call in any other round, or a `receive` with an
empty inbox, changes nothing, so the engine skips them.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .groups import GroupLayout

__all__ = [
    "Announce",
    "FaultEntry",
    "AllOkay",
    "Entry",
    "SMITE",
    "FAULTY",
    "NodeState",
    "ProtocolNode",
    "ProtocolViolation",
    "MUTATE_NO_HEARD_ONCE_UPDATE",
    "MUTATE_BELOW_FOLD_DISCARDS",
]

SMITE = "smite"
FAULTY = "faulty"

# Test-only rule mutations used to prove the verification oracle has teeth.
# The first drops the heard-once update (received classifications no longer
# replace local ones); the second inverts the below-index fold so faulty
# degrees are discarded instead of accepted.
MUTATE_NO_HEARD_ONCE_UPDATE = "no_heard_once_update"
MUTATE_BELOW_FOLD_DISCARDS = "below_fold_discards"


class ProtocolViolation(RuntimeError):
    """A state arose that the crash-fault model provably excludes; it signals
    a harness bug or an intentionally mutated rule, never adversary power."""


class Announce(NamedTuple):
    sender: int
    degree: int


class FaultEntry(NamedTuple):
    sender: int
    subject: int
    status: str  # SMITE or FAULTY
    degree: Optional[int]  # present iff status == FAULTY


class AllOkay(NamedTuple):
    sender: int


class Entry(NamedTuple):
    kind: str  # SMITE or FAULTY
    degree: Optional[int]


class NodeState(Enum):
    LISTENING = "listening"
    ACTIVE = "active"
    EXIT = "exit"


class ProtocolNode:
    """One clique member's protocol state.

    With `layout=None` the node runs in uncapacitated mode (full broadcast
    every round); with a GroupLayout it follows the staggered group
    schedules, which multiplies the two-round phases and the 3-round
    failover gap by the group count.
    """

    def __init__(
        self,
        index: int,
        degree: int,
        n: int,
        layout: GroupLayout | None = None,
        mutations: frozenset[str] = frozenset(),
    ) -> None:
        self.index = index
        self.degree = degree
        self.n = n
        self.layout = layout
        self.mutations = mutations
        g = layout.group_count if layout else 1
        self.phase1_len = 2 * g
        self.gap = 3 * g
        self.copies_per_entry = 2 * g

        self.state = NodeState.LISTENING
        self.heard_count = [0] * (n + 1)
        self.heard_degree: dict[int, int] = {}
        self.view: dict[int, int] = {}
        self.flist: dict[int, Entry] = {}
        self.last_active = 1
        self.last_heard = 0
        self.next_emit: int | None = None
        self.exit_round: int | None = None

        self.current_subject: int | None = None
        self.sends_done = 0
        self.allokay_broadcast = False
        self._allokay_pending: list[list[int]] = []

        self._window_sender = 0
        self._window_subject = 0
        self._window_count = 0
        self._peer_list = [j for j in range(1, n + 1) if j != index]
        self._announce = Announce(index, degree)

    # -- sending ----------------------------------------------------------

    def activation_due(self) -> int | None:
        """Round at which this node goes active if it hears nothing more."""
        if self.index < self.last_active:
            return None
        return self.last_heard + self.gap * (self.index - self.last_active)

    def emit(self, rnd: int) -> tuple[object, list[int]] | None:
        """Compute this round's one send as a (message, recipients) pair, or
        None when the node is silent, applying send-side state transitions."""
        if rnd <= self.phase1_len:
            return self._emit_phase1(rnd)
        if self.state is NodeState.LISTENING:
            if rnd != self.activation_due():
                return None
            self.state = NodeState.ACTIVE
        send = None
        if self.state is NodeState.ACTIVE:
            send = self._emit_active(rnd)
        # Exited, possibly just now: one termination signal per pending group.
        if send is None and self._allokay_pending:
            send = AllOkay(self.index), self._allokay_pending.pop(0)
        # An active node stays due even in a round it has no recipients.
        if self.state is NodeState.ACTIVE or self._allokay_pending:
            self.next_emit = rnd + 1
        else:
            self.next_emit = None
        return send

    def _emit_phase1(self, rnd: int) -> tuple[object, list[int]] | None:
        if self.layout is None:
            return (self._announce, self._peer_list) if self._peer_list else None
        sweep_round = (rnd - 1) % self.layout.group_count
        dest = self.layout.phase1_dest(self.layout.group_of(self.index), sweep_round)
        recipients = [j for j in self.layout.members(dest) if j != self.index]
        return (self._announce, recipients) if recipients else None

    def _emit_active(self, rnd: int) -> tuple[object, list[int]] | None:
        if self.current_subject is None:
            if not self.flist:
                self._enter_exit(rnd, broadcast=True)
                return None
            self.current_subject = min(self.flist)
            self.sends_done = 0
        subject = self.current_subject
        entry = self.flist[subject]
        if entry.kind == FAULTY and entry.degree is None:
            raise ProtocolViolation(
                f"node {self.index} holds a faulty entry for {subject} with no degree"
            )
        msg = FaultEntry(self.index, subject, entry.kind, entry.degree)
        if self.layout is None:
            recipients = self._peer_list
        else:
            group = self.sends_done % self.layout.group_count + 1
            recipients = [j for j in self.layout.members(group) if j != self.index]
        self.sends_done += 1
        if self.sends_done == self.copies_per_entry:
            self._resolve_own(subject, entry)
            self.current_subject = None
        return (msg, recipients) if recipients else None

    def _enter_exit(self, rnd: int, broadcast: bool) -> None:
        """Fold leftovers into the view and stop. Only a node that finished
        its own list broadcasts the termination signal; recipients just
        fold in and terminate silently."""
        self._fold_in()
        self.state = NodeState.EXIT
        self.exit_round = rnd
        self.next_emit = None
        if broadcast:
            self._schedule_allokay()

    def _schedule_allokay(self) -> None:
        self.allokay_broadcast = True
        if self.layout is None:
            self._allokay_pending = [self._peer_list] if self._peer_list else []
        else:
            own = self.layout.group_of(self.index)
            self._allokay_pending = [
                [j for j in self.layout.members(g) if j != self.index]
                for g in self.layout.allokay_order(own)
            ]
            self._allokay_pending = [r for r in self._allokay_pending if r]

    # -- receiving --------------------------------------------------------

    def receive(self, rnd: int, inbox: list) -> None:
        if rnd <= self.phase1_len:
            heard_degree = self.heard_degree
            heard_count = self.heard_count
            for msg in inbox:
                if not isinstance(msg, Announce):
                    raise ProtocolViolation(
                        f"node {self.index} got {type(msg).__name__} during phase 1"
                    )
                sender, degree = msg
                prior = heard_degree.get(sender)
                if prior is None:
                    heard_degree[sender] = degree
                elif prior != degree:
                    raise ProtocolViolation(
                        f"node {self.index} heard degrees {prior} and {degree} "
                        f"from node {sender}"
                    )
                heard_count[sender] += 1
            if rnd == self.phase1_len:
                self._classify()
            return
        if not inbox or self.state is NodeState.EXIT:
            return
        if len(inbox) > 1:
            inbox = sorted(inbox, key=lambda m: m.sender)
        heard = stop = False
        for msg in inbox:
            if isinstance(msg, AllOkay):
                stop = True
            elif isinstance(msg, FaultEntry) and self.state is not NodeState.ACTIVE:
                # An active node ignores entries: another transmitter exists
                # and the engine's single-active invariant reports it.
                self.last_active = msg.sender
                self.last_heard = rnd
                self._apply_fault_entry(msg)
                heard = True
        if stop:
            self._enter_exit(rnd, broadcast=False)
        elif heard:
            self.next_emit = self.activation_due()

    def _classify(self) -> None:
        for j in range(1, self.n + 1):
            if j == self.index:
                continue
            count = self.heard_count[j]
            if count >= 2:
                self.view[j] = self.heard_degree[j]
            elif count == 1:
                self.flist[j] = Entry(FAULTY, self.heard_degree[j])
            else:
                self.flist[j] = Entry(SMITE, None)
        self.view[self.index] = self.degree
        # Virtual timer: the minimum index is due right after phase 1, and
        # index i is due 3 gaps later per step when nothing is ever heard.
        self.last_active = 1
        self.last_heard = self.phase1_len + 1
        self.next_emit = self.activation_due()

    def _apply_fault_entry(self, msg: FaultEntry) -> None:
        if (msg.sender, msg.subject) == (self._window_sender, self._window_subject):
            self._window_count += 1
            if self._window_count > 2:
                raise ProtocolViolation(
                    f"node {self.index} heard subject {msg.subject} more than "
                    f"twice from node {msg.sender}"
                )
        else:
            self._window_sender = msg.sender
            self._window_subject = msg.subject
            self._window_count = 1
        count = self._window_count
        s = msg.subject

        if msg.status == SMITE:
            if s in self.view:
                raise ProtocolViolation(
                    f"node {self.index} got a smite rebroadcast for {s} whose "
                    f"degree is already accepted"
                )
            if count == 1:
                if MUTATE_NO_HEARD_ONCE_UPDATE not in self.mutations:
                    self.flist[s] = Entry(SMITE, None)
            else:
                self.flist.pop(s, None)
                self._fold_below(s)
        else:
            if msg.degree is None:
                raise ProtocolViolation(
                    f"node {self.index} got a faulty rebroadcast for {s} "
                    f"without a degree"
                )
            if count == 1:
                if s not in self.view:
                    if MUTATE_NO_HEARD_ONCE_UPDATE not in self.mutations:
                        self.flist[s] = Entry(FAULTY, msg.degree)
                else:
                    self._insert_view(s, msg.degree)
            else:
                self._insert_view(s, msg.degree)
                self.flist.pop(s, None)
                self._fold_below(s)

    def _fold_below(self, subject: int) -> None:
        """A completed rebroadcast for `subject` implies every lower-index
        classification was already settled network-wide: fold them in."""
        discard = MUTATE_BELOW_FOLD_DISCARDS in self.mutations
        for p in [k for k in self.flist if k < subject]:
            entry = self.flist.pop(p)
            if entry.kind == FAULTY and not discard:
                self._insert_view(p, entry.degree)

    def _resolve_own(self, subject: int, entry: Entry) -> None:
        self.flist.pop(subject, None)
        if entry.kind == FAULTY:
            self._insert_view(subject, entry.degree)

    def _fold_in(self) -> None:
        for subject, entry in sorted(self.flist.items()):
            if entry.kind == FAULTY:
                self._insert_view(subject, entry.degree)
        self.flist.clear()

    def _insert_view(self, subject: int, degree: int | None) -> None:
        if degree is None:
            raise ProtocolViolation(
                f"node {self.index} tried to accept a missing degree for {subject}"
            )
        prior = self.view.get(subject)
        if prior is None:
            self.view[subject] = degree
        elif prior != degree:
            raise ProtocolViolation(
                f"node {self.index} saw conflicting degrees {prior} and "
                f"{degree} for node {subject}"
            )
