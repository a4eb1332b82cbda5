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

Phase 1 lives in the run's `Phase1Tally`, the only code that reads or
writes phase-1 data: the engine hands it every copy, and it counts, checks
and classifies them. A group send, one that reaches all of its sender's
peers in one group, is checked and counted once for that group; every other
copy (a crasher's partial delivery, a narrower send) is checked and counted
for its receiver. A node never hears its own send, so the tally's count of
a node's own index does not count for that node. The tally's `close`
classifies each group's counts once, patches in each live member's own
index and mail, and hands the node its view and list through `end_phase1`.
A node holds only its own state and the run's read-only layout.

Nodes are stepped by the round engine: `emit(round)` produces this round's
one send (and applies send-side transitions), `receive(round, inbox)`
applies the reception rules to mail that arrives after phase 1. Both are
deterministic; all cross-node interaction flows through the engine. A
node keeps `next_emit`, the only round in which `emit` can act: the next
round in phase 1 (1 at the start), then, while listening, its activation
round, the next round while active or while termination signals are
pending, and None once there is nothing left to send. A listener's
activation round is its one timer: `end_phase1` starts it as if node 1 had
been heard in the round after phase 1, and `hear` sets it from the sender
of each entry heard, one failover gap per index between the two, or None
for a listener below that sender. A call to `emit` in any other round, or a
`receive` with an empty inbox, changes nothing, so the engine skips them.

After phase 1 the reception rules live in one place, `ProtocolNode.hear`,
which applies one message to a list of listeners: the message is decoded
once and each listener is updated inline. The engine hands it a group send
with the live members of its group; `receive` hands it each message of one
node's per-recipient mail, entries in sender order and then any termination
signal. Both return the listeners the message or mail made exit, which is
how the engine learns of an exit on either path; `receive`'s is at most the
node.
An entry heard once is listed, a smite as an entry whose degree is None;
an entry heard twice is accepted and settles every lower one. Every entry
leaves a node's list one way, `_resolve`: its own entry after its last
copy, lower entries after a copy heard twice in the list's own order, and
leftovers at exit in index order, each known degree accepted into the view.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .groups import GroupLayout

__all__ = [
    "Announce",
    "FaultEntry",
    "AllOkay",
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


class NodeState(Enum):
    LISTENING = "listening"
    ACTIVE = "active"
    EXIT = "exit"


class Phase1Tally:
    """Every phase-1 announcement of one run. `count[g - 1][s]` is how often
    each member of group g but s heard s by group send; `mail` counts every
    other copy per receiver (receiver -> sender -> copies); `degree` holds
    one degree per sender, fixed by the first copy counted, whichever way it
    came. `heard_twice`, set by `close`, maps a subject to the first live
    node, in index order, that heard it twice."""

    def __init__(self, layout: GroupLayout) -> None:
        self.count = [[0] * (layout.n + 1) for _ in range(layout.group_count)]
        self.degree: dict[int, int] = {}
        self.mail: dict[int, dict[int, int]] = {}
        self.heard_twice: dict[int, int] = {}

    def fork(self) -> Phase1Tally:
        """A copy that counts on without changing this tally."""
        twin = object.__new__(type(self))
        twin.count = [list(row) for row in self.count]
        twin.degree = dict(self.degree)
        twin.mail = {receiver: dict(heard) for receiver, heard in self.mail.items()}
        twin.heard_twice = dict(self.heard_twice)
        return twin

    def add(self, sends: list[tuple[ProtocolNode, int, object]]) -> bool:
        """Count a round's (sender, group, message) group sends, before its
        mail, each once for its group. If one is not its sender's announcement
        of its one degree, count none and return False: the engine then hands
        the round over as per-recipient mail, which each receiver checks."""
        degree, count = self.degree, self.count
        for node, _, msg in sends:
            genuine = isinstance(msg, Announce) and msg.sender == node.index
            if not genuine or degree.get(node.index, msg.degree) != msg.degree:
                return False
        for _, group, (sender, announced) in sends:
            degree[sender] = announced
            count[group - 1][sender] += 1
        return True

    def add_mail(self, receiver: int, inbox: list) -> None:
        """Count node `receiver`'s mail of one round. Each copy must announce
        its sender's one degree; the receiver reports it otherwise."""
        heard = self.mail.setdefault(receiver, {})
        for msg in inbox:
            if not isinstance(msg, Announce):
                raise ProtocolViolation(
                    f"node {receiver} got {type(msg).__name__} during phase 1"
                )
            sender, degree = msg
            prior = self.degree.setdefault(sender, degree)
            if prior != degree:
                raise ProtocolViolation(
                    f"node {receiver} heard degree {degree} from node {sender}, "
                    f"which announced {prior} before"
                )
            heard[sender] = heard.get(sender, 0) + 1

    def close(self, live: list[ProtocolNode]) -> None:
        """End phase 1: classify each group's counts once (heard twice into
        the view, once into the list as faulty, never as smite), then hand
        each live member, in index order, that classification with its own
        index and its mail patched in. `heard_twice` gets each subject's
        first live witness. Only a subject that some live group got no group
        copy of can be heard twice by one live node and never by another,
        which breaks the exclusion."""
        count, degree, mail = self.count, self.degree, self.mail
        witness = self.heard_twice
        unheard: set[int] = set()
        group = None
        for node in live:
            own = node.index
            if node._group != group:  # live is in index order, groups are blocks
                group, first, row = node._group, own, count[node._group - 1]
                shared_view, shared_list = {}, {}
                for s, heard in enumerate(row[1:], start=1):
                    if heard >= 2:
                        shared_view[s] = degree[s]
                    else:
                        shared_list[s] = degree[s] if heard else None
                unheard.update(s for s, d in shared_list.items() if d is None)
                fresh = shared_view.keys() - witness.keys() - {own}
                witness.update(dict.fromkeys(fresh, own))
            if own != first and first in shared_view:
                witness.setdefault(first, own)
            view, flist = dict(shared_view), dict(shared_list)
            view.pop(own, None)
            flist.pop(own, None)
            moved = False
            for s, c in mail.get(own, {}).items():
                base = row[s]
                if base >= 2 or s == own:
                    continue
                if base + c == 1:  # heard once, by mail
                    flist[s] = degree[s]
                else:  # mail completed the two
                    del flist[s]
                    view[s] = degree[s]
                    witness.setdefault(s, own)
                    moved = True
            if moved:
                view = dict(sorted(view.items()))  # the view stays in index order
            view[own] = node.degree
            node.end_phase1(view, flist)

        for subject in sorted(unheard & witness.keys()):
            twice, never = [], []
            for other in live:
                heard = count[other._group - 1][subject]
                heard += mail.get(other.index, {}).get(subject, 0)
                if other.index != subject and heard != 1:
                    (twice if heard else never).append(other.index)
            if never:
                raise ProtocolViolation(
                    f"phase-1 exclusion broken for node {subject}: heard twice "
                    f"by {twice}, never by {never}"
                )


class ProtocolNode:
    """One clique member's protocol state.

    The node follows its layout's staggered group schedules, sending to one
    group per round, which multiplies the two-round phases and the 3-round
    failover gap by the group count. The uncapacitated model runs the same
    schedules with one group of n (`GroupLayout(n, n, 1)`), so every send
    is a full broadcast.

    `view` maps each accepted subject to its degree. `flist`, the list of
    subjects still to resolve, maps each to its degree, or to None for a
    smite, whose degree is unknown. While the node listens, `next_emit` is
    its activation round, set from the last sender heard.
    """

    def __init__(
        self,
        index: int,
        degree: int,
        layout: GroupLayout,
        mutations: frozenset[str] = frozenset(),
    ) -> None:
        self.index = index
        self.degree = degree
        self.layout = layout
        self.mutations = mutations
        g = layout.group_count
        self.phase1_len = 2 * g
        self.gap = 3 * g
        self.copies_per_entry = 2 * g

        self.state = NodeState.LISTENING
        self.view: dict[int, int] = {}
        self.flist: dict[int, int | None] = {}
        self.next_emit: int | None = 1
        self.exit_round: int | None = None

        self.current_subject: int | None = None
        self.sends_done = 0
        self.allokay_broadcast = False
        self._allokay_pending: list[list[int]] = []

        # (sender, subject) of the last entry heard, and its copies so far.
        self._window = (0, 0)
        self._window_count = 0
        # Recipients per group, shared by all the node's sends to it, by
        # which the engine tells a group send: the layout's member list,
        # shared by every node, and for the node's own group a copy without
        # it. Nothing downstream may mutate them.
        self._group = layout.group_of(index)
        self._group_peers = list(layout.member_lists)
        own = self._group_peers[self._group - 1].copy()
        own.remove(index)
        self._group_peers[self._group - 1] = own
        self._announce = Announce(index, degree)

    def fork(self) -> ProtocolNode:
        """A copy that steps on without changing this node. It copies the
        view, the list and the pending termination signals and shares the
        rest, which no round changes in place: the recipient lists too."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.view = dict(self.view)
        twin.flist = dict(self.flist)
        twin._allokay_pending = list(self._allokay_pending)
        return twin

    def key(self, crashed: bool = False) -> tuple:
        """What the rest of a run reads of this node, as plain values for
        `RoundEngine.key`. A live node gives its state, its ordered view and
        list, its timers, its entry window and count, its subject and sends
        done, its signal flag and how many signals are pending (a suffix of
        its visit order, so the count names them). A crashed node is never
        stepped again, so it gives only what the run's check reads: its exit
        round, its signal flag and, if it exited, its view. The index,
        degree, layout, mutations and what they fix are left out: every node
        of a run has them from its config."""
        if crashed:
            exited = self.exit_round is not None
            return self.exit_round, self.allokay_broadcast, self.view if exited else None
        return (
            self.state._value_,
            self.view,
            self.flist,
            self.next_emit,
            self.exit_round,
            self._window,
            self._window_count,
            self.current_subject,
            self.sends_done,
            self.allokay_broadcast,
            len(self._allokay_pending),
        )

    # -- sending ----------------------------------------------------------

    def emit(self, rnd: int) -> tuple[object, list[int]] | None:
        """Compute this round's one send as a (message, recipients) pair, or
        None when the node is silent, applying send-side state transitions."""
        if rnd <= self.phase1_len:
            self.next_emit = rnd + 1  # after phase 1, `end_phase1` sets it
            return self._emit_phase1(rnd)
        if self.state is NodeState.LISTENING:
            if rnd != self.next_emit:
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
                self._enter_exit(rnd)
                self._schedule_allokay()
                return None
            self.current_subject = min(self.flist)
            self.sends_done = 0
        subject = self.current_subject
        degree = self.flist[subject]
        status = SMITE if degree is None else FAULTY
        msg = FaultEntry(self.index, subject, status, degree)
        recipients = self._group_peers[self.sends_done % self.layout.group_count]
        self.sends_done += 1
        if self.sends_done == self.copies_per_entry:
            self._resolve((subject,))
            self.current_subject = None
        return (msg, recipients) if recipients else None

    def _enter_exit(self, rnd: int) -> None:
        """Fold leftovers into the view, in index order, and stop."""
        self._resolve(sorted(self.flist))
        self.state = NodeState.EXIT
        self.exit_round = rnd
        self.next_emit = None

    def _schedule_allokay(self) -> None:
        self.allokay_broadcast = True
        peers = self._group_peers
        self._allokay_pending = [
            peers[g - 1] for g in self.layout.allokay_order(self._group) if peers[g - 1]
        ]

    # -- receiving --------------------------------------------------------

    def receive(self, rnd: int, inbox: list) -> list[ProtocolNode]:
        """Apply this node's mail of round `rnd`, after phase 1: each message
        goes through `hear`. Return the listeners it made exit: this node,
        or none."""
        if len(inbox) > 1:
            # Entries in sender order, then the termination signal.
            inbox = sorted(inbox, key=lambda m: (isinstance(m, AllOkay), m.sender))
        me, stopped = [self], []
        for msg in inbox:
            stopped += self.hear(rnd, msg, me)
        return stopped

    @staticmethod
    def hear(rnd: int, msg, listeners: list[ProtocolNode]) -> list[ProtocolNode]:
        """Apply one message, sent after phase 1, to each listener in index
        order; return the listeners it made exit.

        An exited node ignores everything, and an active node ignores
        entries: another transmitter exists and the engine's single-active
        invariant reports it. So neither a FaultEntry's sender (active) nor
        an AllOkay's (exited) hears its own message. Any other kind is a
        violation, reported by the first listener that is not its sender.
        """
        if isinstance(msg, AllOkay):
            stopped = [node for node in listeners if node.state is not NodeState.EXIT]
            for node in stopped:
                node._enter_exit(rnd)
            return stopped
        if not isinstance(msg, FaultEntry):
            sender = getattr(msg, "sender", None)
            for node in listeners:
                if node.index != sender:
                    raise ProtocolViolation(
                        f"node {node.index} got {type(msg).__name__} after phase 1"
                    )
            return []
        sender, s, status, degree = msg
        window = sender, s
        smite = status == SMITE
        listening = NodeState.LISTENING
        for node in listeners:
            if node.state is not listening:
                continue
            i = node.index
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
            elif degree is None:
                raise ProtocolViolation(
                    f"node {i} got a faulty rebroadcast for {s} without a degree"
                )
            # A smite is an entry whose degree is None.
            if count == 1 and s not in view:  # heard once: list it
                if MUTATE_NO_HEARD_ONCE_UPDATE not in node.mutations:
                    flist[s] = degree
            else:  # heard twice, or accepted already: accept it
                flist[s] = degree
                node._resolve((s,))
                if count == 2:  # a completed rebroadcast settled every lower entry
                    below = [k for k in flist if k < s]
                    node._resolve(below, MUTATE_BELOW_FOLD_DISCARDS in node.mutations)
        return []

    def end_phase1(self, view: dict[int, int], flist: dict[int, int | None]) -> None:
        """Install the view and list `Phase1Tally.close` classified for this
        node and start its activation timer."""
        self.view, self.flist = view, flist
        # Virtual timer: the minimum index is due right after phase 1, and
        # index i is due one gap later per step when nothing is ever heard.
        self.next_emit = self.phase1_len + 1 + self.gap * (self.index - 1)

    def _resolve(self, subjects: Iterable[int], discard: bool = False) -> None:
        """Take `subjects` off the list in the given order, accepting each
        known degree into the view unless told to discard."""
        flist = self.flist
        for s in subjects:
            degree = flist.pop(s, None)
            if degree is not None and not discard:
                self._insert_view(s, degree)

    def _insert_view(self, subject: int, degree: int) -> None:
        prior = self.view.get(subject)
        if prior is None:
            self.view[subject] = degree
        elif prior != degree:
            raise ProtocolViolation(
                f"node {self.index} saw conflicting degrees {prior} and "
                f"{degree} for node {subject}"
            )
