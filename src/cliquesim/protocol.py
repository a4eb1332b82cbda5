"""Per-node state machine for fault-tolerant degree-sequence agreement.

Each node runs two phases. Phase 1 (two sweeps over the G groups, which
is two rounds when G == 1) broadcasts the node's own degree twice; peers
are then classified by how often they were heard: twice (degree accepted),
once (faulty, degree known), or never (smite, degree unknown). Phase 2
serializes the network: at most one node at a time is active, rebroadcasting
its unresolved classifications twice each so every listener converges on
the same degree view, with silence timeouts handing the active role to the
next surviving index. A node that exhausts its list folds leftovers into
its view and broadcasts a termination signal; listeners that receive the
signal fold in and stop without rebroadcasting.

Phase 1 lives in the run's `Phase1Tally`, which counts, checks and
classifies every announcement. A broadcast that reaches every peer of its
sender is counted once for all receivers; every other copy (a crasher's
partial delivery, a narrower send, every ncc send) is counted for its
receiver, whose `receive` hands the tally its whole phase-1 inbox. One rule
checks both kinds. A node never hears its own broadcast, so the tally's
count of a node's own index does not count for that node. The tally's
`close` classifies the broadcast counts once; each live node copies that
and patches in its own index and its mail.

Nodes are stepped by the round engine: `emit(round)` produces this round's
one send (and applies send-side transitions), `receive(round, inbox)` applies
reception rules. Both are deterministic; all cross-node interaction flows
through the engine. A node keeps `next_emit`, the only round in which `emit`
can act: the next round in phase 1 (1 at the start), then its activation
round while listening, the next round while active or while termination
signals are pending, and None once there is nothing left to send. A call in
any other round, or a `receive` with an empty inbox, changes nothing, so the
engine skips them.

After phase 1 the reception rules live in one place, `ProtocolNode.hear`,
which applies one message to a list of listeners: the message is decoded
once and each listener is updated inline. The engine hands it a broadcast
with every live node; `receive` hands it each message of one node's
per-recipient mail, entries in sender order and then any termination signal.
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
    "Phase1Tally",
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


# The one entry for a subject whose degree is unknown.
_SMITE_ENTRY = Entry(SMITE, None)


class NodeState(Enum):
    LISTENING = "listening"
    ACTIVE = "active"
    EXIT = "exit"


class Phase1Tally:
    """Every phase-1 announcement of one run. `count[j]` is how often every
    peer of j heard j by broadcast, counted once for all receivers; `mail`
    counts every other copy per receiver (receiver -> sender -> copies);
    `degree` holds one degree per sender, fixed by the first copy counted,
    whichever way it came. A node without a shared tally gets its own."""

    def __init__(self, n: int) -> None:
        self.count = [0] * (n + 1)
        self.degree: dict[int, int] = {}
        self.mail: dict[int, dict[int, int]] = {}
        # (view, list) of every index by `count` alone, set by `close`.
        self.classes: tuple[dict[int, int], dict[int, Entry]] = ({}, {})

    def _sender(self, msg, receiver: int) -> int:
        """The sender of one phase-1 copy, which must announce its sender's
        one degree; node `receiver` reports it otherwise."""
        if not isinstance(msg, Announce):
            raise ProtocolViolation(
                f"node {receiver} got {type(msg).__name__} during phase 1"
            )
        sender, degree = msg
        prior = self.degree.setdefault(sender, degree)
        if prior != degree:
            raise ProtocolViolation(
                f"node {receiver} heard degrees {prior} and {degree} from node "
                f"{sender}"
            )
        return sender

    def add(
        self, broadcasts: list[tuple[int, object]], live: list[ProtocolNode]
    ) -> None:
        """Count a round's (sender, message) broadcasts, before its mail. A
        bad one is reported by its sender's first live peer, the node that
        would have read it first."""
        if len(live) < 2:
            return  # no peer is left to hear a broadcast
        first, second = live[0].index, live[1].index
        count = self.count
        for sender, msg in broadcasts:
            count[self._sender(msg, second if sender == first else first)] += 1

    def add_mail(self, receiver: int, inbox: list) -> None:
        """Count node `receiver`'s mail of one round."""
        heard = self.mail.setdefault(receiver, {})
        for msg in inbox:
            sender = self._sender(msg, receiver)
            heard[sender] = heard.get(sender, 0) + 1

    def close(self, live: list[ProtocolNode]) -> dict[int, int]:
        """End phase 1: classify the broadcast counts once (heard twice into
        the view, once into the list as faulty, never as smite), then every
        live node in index order; check that no subject was heard twice by
        one live node and never by another; return subject -> first live
        node that heard it twice. A node hears a subject's broadcasts,
        unless it is the subject, plus its own mail, so when `count` holds
        two copies or no live node got the subject by mail, every live peer
        heard it equally often or at least twice."""
        count, degree = self.count, self.degree
        view: dict[int, int] = {}
        flist: dict[int, Entry] = {}
        for j, heard in enumerate(count[1:], start=1):
            if heard >= 2:
                view[j] = degree[j]
            elif heard == 1:
                flist[j] = Entry(FAULTY, degree[j])
            else:
                flist[j] = _SMITE_ENTRY
        self.classes = view, flist
        for node in live:
            node._classify()

        first = live[0].index
        second = live[1].index if len(live) > 1 else None
        mail = [self.mail.get(node.index, {}) for node in live]
        mailed = set().union(*mail)
        heard_twice: dict[int, int] = {}
        for subject, base in enumerate(count[1:], start=1):
            if base >= 2 or subject not in mailed:
                peer = second if subject == first else first
                if base >= 2 and peer is not None:
                    heard_twice[subject] = peer
                continue
            # With fewer than two broadcast copies, counting them for the
            # subject itself too changes neither who heard it twice nor which
            # peer never heard it.
            column = [base + heard.get(subject, 0) for heard in mail]
            if max(column) < 2:
                continue
            k = next(k for k, c in enumerate(column) if c >= 2)
            heard_twice[subject] = live[k].index
            others = [(n.index, c) for n, c in zip(live, column) if n.index != subject]
            twice = [i for i, c in others if c >= 2]
            never = [i for i, c in others if c == 0]
            if twice and never:
                raise ProtocolViolation(
                    f"phase-1 exclusion broken for node {subject}: heard twice "
                    f"by {twice}, never by {never}"
                )
        return heard_twice


class ProtocolNode:
    """One clique member's protocol state.

    The node follows its layout's staggered group schedules, sending to one
    group per round, which multiplies the two-round phases and the 3-round
    failover gap by the group count. The uncapacitated model runs the same
    schedules with one group of n (the default, `layout=None`), so every
    send is a full broadcast.
    """

    def __init__(
        self,
        index: int,
        degree: int,
        n: int,
        layout: GroupLayout | None = None,
        mutations: frozenset[str] = frozenset(),
        tally: Phase1Tally | None = None,
    ) -> None:
        self.index = index
        self.degree = degree
        if layout is None:
            layout = GroupLayout(n, n, 1)
        self.layout = layout
        self.mutations = mutations
        g = layout.group_count
        self.phase1_len = 2 * g
        self.gap = 3 * g
        self.copies_per_entry = 2 * g

        self.state = NodeState.LISTENING
        self.tally = Phase1Tally(n) if tally is None else tally
        self.view: dict[int, int] = {}
        self.flist: dict[int, Entry] = {}
        self.last_active = 1
        self.last_heard = 0
        self.next_emit: int | None = 1
        self.exit_round: int | None = None

        self.current_subject: int | None = None
        self.sends_done = 0
        self.allokay_broadcast = False
        self._allokay_pending: list[list[int]] = []

        # (sender, subject) of the last entry heard, and its copies so far.
        self._window = (0, 0)
        self._window_count = 0
        # Recipients per group (its members but this node), shared by all
        # the node's sends to it: nothing downstream may mutate them.
        self._group = layout.group_of(index)
        self._group_peers = [list(layout.members(group)) for group in range(1, g + 1)]
        self._group_peers[self._group - 1].remove(index)
        # The recipient list naming every other node, when one group holds
        # them all: the engine delivers a send to it once for all receivers.
        self.all_peers = self._group_peers[0] if g == 1 else None
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
            self.next_emit = rnd + 1  # after phase 1, `_classify` sets it
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
        sweep_round = (rnd - 1) % self.layout.group_count
        dest = self.layout.phase1_dest(self._group, sweep_round)
        recipients = self._group_peers[dest - 1]
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
        recipients = self._group_peers[self.sends_done % self.layout.group_count]
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
        peers = self._group_peers
        self._allokay_pending = [
            peers[g - 1] for g in self.layout.allokay_order(self._group) if peers[g - 1]
        ]

    # -- receiving --------------------------------------------------------

    def receive(self, rnd: int, inbox: list) -> None:
        """Apply this node's mail of round `rnd`: the tally counts phase-1
        announcements, and each later message goes through `hear`."""
        if rnd <= self.phase1_len:
            self.tally.add_mail(self.index, inbox)
            return
        if len(inbox) > 1:
            # Entries in sender order, then the termination signal.
            inbox = sorted(inbox, key=lambda m: (isinstance(m, AllOkay), m.sender))
        me = [self]
        for msg in inbox:
            self.hear(rnd, msg, me)

    @staticmethod
    def hear(rnd: int, msg, listeners: list[ProtocolNode]) -> list[ProtocolNode]:
        """Apply one message, sent after phase 1, to each listener in index
        order; return the listeners it made exit.

        An exited node ignores everything, and an active node ignores
        entries: another transmitter exists and the engine's single-active
        invariant reports it. So neither a FaultEntry's sender (active) nor
        an AllOkay's (exited) hears its own message.
        """
        if isinstance(msg, AllOkay):
            stopped = [node for node in listeners if node.state is not NodeState.EXIT]
            for node in stopped:
                node._enter_exit(rnd, broadcast=False)
            return stopped
        if not isinstance(msg, FaultEntry):
            return []
        sender, s, status, degree = msg
        window = sender, s
        smite = status == SMITE
        entry = None if smite else Entry(FAULTY, degree)
        listening = NodeState.LISTENING
        for node in listeners:
            if node.state is not listening:
                continue
            node.last_active = sender
            node.last_heard = rnd
            i = node.index  # next_emit is activation_due(), inline
            node.next_emit = None if i < sender else rnd + node.gap * (i - sender)
            if node._window == window:
                count = node._window_count = node._window_count + 1
                if count > 2:
                    raise ProtocolViolation(
                        f"node {i} heard subject {s} more than twice from node "
                        f"{sender}"
                    )
            else:
                node._window = window
                count = node._window_count = 1
            view, flist = node.view, node.flist
            if smite:
                if s in view:
                    raise ProtocolViolation(
                        f"node {i} got a smite rebroadcast for {s} whose degree "
                        f"is already accepted"
                    )
                if count == 1:
                    if MUTATE_NO_HEARD_ONCE_UPDATE not in node.mutations:
                        flist[s] = _SMITE_ENTRY
                else:
                    flist.pop(s, None)
                    node._fold_below(s)
                continue
            if degree is None:
                raise ProtocolViolation(
                    f"node {i} got a faulty rebroadcast for {s} without a degree"
                )
            if count == 1 and s not in view:
                # Most updates repeat the entry already held: skip them.
                if (
                    flist.get(s) != entry
                    and MUTATE_NO_HEARD_ONCE_UPDATE not in node.mutations
                ):
                    flist[s] = entry
            else:
                node._insert_view(s, degree)
                if count == 2:
                    flist.pop(s, None)
                    node._fold_below(s)
        return []

    def _classify(self) -> None:
        """Copy the tally's classification and patch in this node's own
        index and its mail."""
        own = self.index
        tally = self.tally
        shared, degree = tally.count, tally.degree
        view, flist = map(dict, tally.classes)
        view.pop(own, None)
        flist.pop(own, None)
        moved = False
        for s, c in tally.mail.get(own, {}).items():
            base = shared[s]
            if base >= 2 or s == own:
                continue
            if base + c == 1:  # heard once, by mail
                flist[s] = Entry(FAULTY, degree[s])
            else:  # mail completed the two
                del flist[s]
                view[s] = degree[s]
                moved = True
        if moved:
            view = dict(sorted(view.items()))  # the view stays in index order
        view[own] = self.degree
        self.view, self.flist = view, flist
        # Virtual timer: the minimum index is due right after phase 1, and
        # index i is due 3 gaps later per step when nothing is ever heard.
        self.last_active = 1
        self.last_heard = self.phase1_len + 1
        self.next_emit = self.activation_due()

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
