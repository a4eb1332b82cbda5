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
classifies each group's counts once, patches in each live member's mail,
and hands each member its cohort through `end_phase1`.

After phase 1 almost every listener of a group is in the same state, so
listeners share state in the manner of counter abstraction (Pnueli, Xu &
Zuck, CAV 2002): the members of one `Cohort` record share its view, list,
entry window and timer source, and differ only by index. A node's view
puts its own entry last among its phase-1 entries; the record keeps those
in index order and says how many there are, so each member reads its own
ordered view off it. A node leaves its cohort for a record of its own
(`ProtocolNode.detach`) when it activates or gets mail (a crasher's partial
delivery, a partial termination signal), the events that reach one member
and not the rest; a crashed node keeps its view and list as they stood and
holds no record (`ProtocolNode.freeze`). A node holds nothing else that
another node reads or writes.

Nodes are stepped by the round engine: `emit(round)` produces this round's
one send (and applies send-side transitions), `receive(round, inbox)`
applies the reception rules to mail that arrives after phase 1. Both are
deterministic; all cross-node interaction flows through the engine. A
node's `next_emit` is the only round in which `emit` can act: the next
round in phase 1 (1 at the start), then, while listening, its activation
round, the next round while active or while termination signals are
pending, and None once there is nothing left to send. A listener's
activation round is its one timer, and its cohort's timer source gives it:
the round and sender of the last entry heard, with one failover gap per
index between sender and listener, or None for a listener below that
sender. `close` starts the source as if node 1 had been heard in the round
after phase 1, and `hear` sets it from each entry. So the due member of a
cohort is found from the round alone. A call to `emit` in any other round,
or a `receive` with an empty inbox, changes nothing, so the engine skips
them.

After phase 1 the reception rules live in one place, `ProtocolNode.hear`,
which applies one message to a list of listeners: the message is decoded
once and each listener's record is updated inline. The engine hands it an
entry sent to a group with the lowest live member of each of the group's
cohorts, so each record is updated once, and any other group send with the
group's live members; `receive` hands it each message of one node's
per-recipient mail, entries in sender order and then any termination
signal. Both return the listeners the message or mail made exit, which is
how the engine learns of an exit on either path; `receive`'s is at most the
node.
An entry heard once is listed, a smite as an entry whose degree is None;
an entry heard twice is accepted and settles every lower one. Every entry
leaves a list one way, `Cohort.resolve`: its own entry after its last
copy, lower entries after a copy heard twice in the list's own order, and
leftovers at exit in index order, each known degree accepted into the view.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, NamedTuple, Optional

from .groups import GroupLayout

__all__ = [
    "Announce",
    "FaultEntry",
    "AllOkay",
    "SMITE",
    "FAULTY",
    "NodeState",
    "Cohort",
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


@dataclass(slots=True)
class Cohort:
    """What every member of one cohort holds after phase 1: listeners in one
    group that got the same classification and have heard the same since
    share one record, and each entry sent to their group updates it once.

    `members` are the live nodes that hold it, by index, in order. `view`
    holds their views in one order: the first `own_at` entries, from phase
    1, in index order, then each entry accepted since, in the order
    accepted. A member's own view moves its own entry, one of the phase-1
    ones, last among them, where `close` put it (`view_of`); so the view
    and `own_at` name each member's ordered view, which `ProtocolNode.key`
    reads through them. `flist`, the entry window and its count are every
    member's. `(heard, sender)` is the round and sender of the last entry
    heard, or the round after phase 1 and node 1, which gives each member i
    its activation round: None below the sender, else
    `heard + gap * (i - sender)`.
    """

    members: list[int]
    view: dict[int, int]
    own_at: int
    flist: dict[int, int | None]
    heard: int
    sender: int = 1
    window: tuple[int, int] = (0, 0)
    window_count: int = 0

    def fork(self, members: list[int] | None = None) -> Cohort:
        """A copy that steps on without changing this record, held by
        `members` if given."""
        return Cohort(
            list(self.members) if members is None else members,
            dict(self.view), self.own_at, dict(self.flist),
            self.heard, self.sender, self.window, self.window_count,
        )

    def view_of(self, index: int) -> dict[int, int]:
        """Member `index`'s view, as a new dict."""
        view, own_at = self.view, self.own_at
        mine = view.copy()
        own = mine.pop(index)
        if own_at == len(view):  # nothing accepted since phase 1
            mine[index] = own
            return mine
        tail = [(s, mine.pop(s)) for s in list(islice(view, own_at, None))]
        mine[index] = own
        mine.update(tail)
        return mine

    def split(self, index: int) -> Cohort:
        """Member `index`'s own copy of this record, which it leaves."""
        self.members.remove(index)
        return self.fork([index])

    def resolve(self, subjects: Iterable[int], index: int, discard: bool = False) -> None:
        """Take `subjects` off the list in the given order, accepting each
        known degree into the view unless told to discard; a conflict names
        node `index`."""
        flist, view = self.flist, self.view
        for s in subjects:
            degree = flist.pop(s, None)
            if degree is None or discard:
                continue
            prior = view.get(s)
            if prior is None:
                view[s] = degree
            elif prior != degree:
                raise ProtocolViolation(
                    f"node {index} saw conflicting degrees {prior} and "
                    f"{degree} for node {s}"
                )


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

    def close(self, live: list[ProtocolNode]) -> list[list[Cohort]]:
        """End phase 1: classify each group's counts once (heard twice into
        the view, once into the list as faulty, never as smite), patch in
        each live member's mail, and hand each member, in index order, its
        cohort through `end_phase1`; return each group's records. Members
        whose mail patches the classification alike, and whose own entry
        in it is their degree, share one record, which `close` makes once;
        any other member gets a record of its own. `heard_twice` gets each
        subject's first live witness. Only a subject that some live group
        got no group copy of can be heard twice by one live node and never
        by another, which breaks the exclusion."""
        count, degree, mail = self.count, self.degree, self.mail
        witness = self.heard_twice
        unheard: set[int] = set()
        records: list[list[Cohort]] = [[] for _ in count]
        held: list[Cohort] = []  # each live node's record, in index order
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
                cohorts = {}  # mail patch -> the group's record for it
                after = node.phase1_len + 1
            if own != first and first in shared_view:
                witness.setdefault(first, own)
            # The node's mail patch: a subject heard once by mail is listed
            # with its degree, one that mail completed the two of moves into
            # the view.
            patch = ()
            heard_by_mail = mail.get(own)
            if heard_by_mail:
                patch = []
                for s, c in heard_by_mail.items():
                    base = row[s]
                    if base < 2 and s != own:
                        patch.append((s, base + c > 1))
                        if base + c > 1:
                            witness.setdefault(s, own)
                patch = tuple(sorted(patch))
            # A node shares only if its own entry in the view is its degree.
            # The unpatched record takes the group's classification itself,
            # which nothing changes while `close` runs.
            if shared_view.get(own) == node.degree:
                cohort = cohorts.get(patch)
                if cohort is None:
                    if patch:
                        view, flist = _patched(shared_view, shared_list, patch, degree)
                    else:
                        view, flist = shared_view, shared_list
                    cohort = cohorts[patch] = Cohort([], view, len(view), flist, after)
                    records[group - 1].append(cohort)
            else:
                view, flist = _patched(shared_view, shared_list, patch, degree)
                flist.pop(own, None)
                view[own] = node.degree
                view = dict(sorted(view.items()))
                cohort = Cohort([], view, len(view), flist, after)
                records[group - 1].append(cohort)
            cohort.members.append(own)
            held.append(cohort)
        # Each record is whole before any member gets it. A subclass's
        # `end_phase1` may give its node a record of its own.
        for node, cohort in zip(live, held):
            node.end_phase1(cohort)
            if node._cohort is not cohort:
                records[node._group - 1].append(node._cohort)

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
        return records


def _patched(view, flist, patch, degree) -> tuple[dict, dict]:
    """Copies of a group's classification with one mail patch applied: each
    (subject, twice) moves a subject heard twice into the view, kept in
    index order, or lists one heard once with its degree."""
    view, flist = dict(view), dict(flist)
    moved = False
    for s, twice in patch:
        if twice:
            del flist[s]
            view[s] = degree[s]
            moved = True
        else:
            flist[s] = degree[s]
    if moved:
        view = dict(sorted(view.items()))
    return view, flist


class ProtocolNode:
    """One clique member's protocol state.

    The node follows its layout's staggered group schedules, sending to one
    group per round, which multiplies the two-round phases and the 3-round
    failover gap by the group count. The uncapacitated model runs the same
    schedules with one group of n (`GroupLayout(n, n, 1)`), so every send
    is a full broadcast.

    `view` maps each accepted subject to its degree. `flist`, the list of
    subjects still to resolve, maps each to its degree, or to None for a
    smite, whose degree is unknown. After phase 1 both live in the node's
    `Cohort` record, which it shares with the listeners of its group in the
    same state; `detach` gives it a record of its own, as activating and
    mail do, and `freeze` keeps them as they stand at a crash. Read them
    only: `view` is a new dict for a node that holds a record. `next_emit`
    is the node's own timer while phase 1 runs and once it is active or has
    exited, and None after a crash; while it listens after phase 1 it is the
    activation round its record gives it.
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
        self._cohort: Cohort | None = None  # held from phase 1's end to a crash
        # A crashed node's view and list as they stood at its crash.
        self._frozen: tuple[dict[int, int], dict[int, int | None]] | None = None
        self._timer: int | None = 1
        self.exit_round: int | None = None

        self.current_subject: int | None = None
        self.sends_done = 0
        self.allokay_broadcast = False
        self._allokay_pending: list[list[int]] = []

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

    @property
    def view(self) -> dict[int, int]:
        cohort = self._cohort
        if cohort is not None:
            return cohort.view_of(self.index)
        return {} if self._frozen is None else self._frozen[0]

    @property
    def flist(self) -> dict[int, int | None]:
        cohort = self._cohort
        if cohort is not None:
            return cohort.flist
        return {} if self._frozen is None else self._frozen[1]

    @property
    def next_emit(self) -> int | None:
        cohort = self._cohort
        if cohort is None or self.state is not NodeState.LISTENING:
            return self._timer
        if self.index < cohort.sender:
            return None
        return cohort.heard + self.gap * (self.index - cohort.sender)

    @next_emit.setter
    def next_emit(self, rnd: int) -> None:
        """Set the timer; a listener's record then dates it as if the node
        had heard itself in round `rnd`."""
        cohort = self._cohort
        if cohort is None or self.state is not NodeState.LISTENING:
            self._timer = rnd
        else:
            cohort.heard, cohort.sender = rnd, self.index

    def detach(self) -> None:
        """Give this node a record of its own if it shares one."""
        cohort = self._cohort
        if cohort is not None and len(cohort.members) > 1:
            self._cohort = cohort.split(self.index)

    def freeze(self) -> None:
        """Stop this node's timer, keep its view and list as they stand and
        leave its record, which its cohort may go on changing: a crashed
        node is never stepped again, and its view is read at the run's end."""
        self._timer = None
        cohort = self._cohort
        if cohort is not None:
            self._frozen = cohort.view_of(self.index), dict(cohort.flist)
            cohort.members.remove(self.index)
            self._cohort = None

    def fork(self, cohorts: dict[int, Cohort] | None = None) -> ProtocolNode:
        """A copy that steps on without changing this node. It copies the
        pending termination signals and the node's record, once per record
        for the forks that share `cohorts` (by the original's id), and shares
        the rest, which no round changes in place: the recipient lists and a
        crashed node's frozen view and list too."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._allokay_pending = list(self._allokay_pending)
        cohort = self._cohort
        if cohort is not None:
            cohorts = {} if cohorts is None else cohorts
            twin._cohort = cohorts.get(id(cohort))
            if twin._cohort is None:
                twin._cohort = cohorts[id(cohort)] = cohort.fork()
        return twin

    def key(self, crashed: bool = False) -> tuple:
        """What the rest of a run reads of this node, as plain values for
        `RoundEngine.key`. A live node gives its state, its ordered view (as
        its record's view and `own_at`, which name it) and list, its timer,
        its exit round, its entry window and count, its subject and sends
        done, its signal flag and how many signals are pending (a suffix of
        its visit order, so the count names them). A crashed node is never
        stepped again, so it gives only what the run's check reads: its exit
        round, its signal flag and, if it exited, its view. The index,
        degree, layout, mutations and what they fix are left out: every node
        of a run has them from its config; so is which nodes share a record."""
        if crashed:
            exited = self.exit_round is not None
            return self.exit_round, self.allokay_broadcast, self.view if exited else None
        cohort, timer = self._cohort, self._timer
        if cohort is None:  # phase 1 is open
            view = own_at = flist = window = count = None
        else:
            view, own_at, flist = cohort.view, cohort.own_at, cohort.flist
            window, count = cohort.window, cohort.window_count
            if self.state is NodeState.LISTENING:
                i, sender = self.index, cohort.sender
                timer = None if i < sender else cohort.heard + self.gap * (i - sender)
        return (
            self.state._value_, view, own_at, flist, timer, self.exit_round,
            window, count, self.current_subject, self.sends_done,
            self.allokay_broadcast, len(self._allokay_pending),
        )

    # -- sending ----------------------------------------------------------

    def emit(self, rnd: int) -> tuple[object, list[int]] | None:
        """Compute this round's one send as a (message, recipients) pair, or
        None when the node is silent, applying send-side state transitions."""
        if rnd <= self.phase1_len:
            self._timer = rnd + 1  # after phase 1, `end_phase1` clears it
            return self._emit_phase1(rnd)
        if self.state is NodeState.LISTENING:
            if rnd != self.next_emit:
                return None
            self.detach()
            self.state = NodeState.ACTIVE
        send = None
        if self.state is NodeState.ACTIVE:
            send = self._emit_active(rnd)
        # Exited, possibly just now: one termination signal per pending group.
        if send is None and self._allokay_pending:
            send = AllOkay(self.index), self._allokay_pending.pop(0)
        # An active node stays due even in a round it has no recipients.
        if self.state is NodeState.ACTIVE or self._allokay_pending:
            self._timer = rnd + 1
        else:
            self._timer = None
        return send

    def _emit_phase1(self, rnd: int) -> tuple[object, list[int]] | None:
        sweep_round = (rnd - 1) % self.layout.group_count
        dest = self.layout.phase1_dest(self._group, sweep_round)
        recipients = self._group_peers[dest - 1]
        return (self._announce, recipients) if recipients else None

    def _emit_active(self, rnd: int) -> tuple[object, list[int]] | None:
        flist = self._cohort.flist
        if self.current_subject is None:
            if not flist:
                self._enter_exit(rnd)
                self._schedule_allokay()
                return None
            self.current_subject = min(flist)
            self.sends_done = 0
        subject = self.current_subject
        degree = flist[subject]
        status = SMITE if degree is None else FAULTY
        msg = FaultEntry(self.index, subject, status, degree)
        recipients = self._group_peers[self.sends_done % self.layout.group_count]
        self.sends_done += 1
        if self.sends_done == self.copies_per_entry:
            self._cohort.resolve((subject,), self.index)
            self.current_subject = None
        return (msg, recipients) if recipients else None

    def _enter_exit(self, rnd: int) -> None:
        """Fold leftovers into the view, in index order, and stop. The first
        member of a record to exit folds them for all."""
        cohort = self._cohort
        cohort.resolve(sorted(cohort.flist), self.index)
        self.state = NodeState.EXIT
        self.exit_round = rnd
        self._timer = None

    def _schedule_allokay(self) -> None:
        self.allokay_broadcast = True
        peers = self._group_peers
        self._allokay_pending = [
            peers[g - 1] for g in self.layout.allokay_order(self._group) if peers[g - 1]
        ]

    # -- receiving --------------------------------------------------------

    def receive(self, rnd: int, inbox: list) -> list[ProtocolNode]:
        """Apply this node's mail of round `rnd`, after phase 1: the node
        leaves its cohort, which the mail does not reach, and each message
        goes through `hear`. Return the listeners it made exit: this node,
        or none."""
        if self.state is not NodeState.EXIT:
            self.detach()
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

        A listener hears an entry for its whole cohort: the entry updates
        the record once, for every member. So listeners of an entry must
        hold distinct records, and the engine hands a group send of one the
        lowest live member of each cohort of the group, whose index names
        a violation. A termination signal exits each listener given; the
        first member of a record to exit folds the record's list for all.

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
            cohort = node._cohort
            cohort.heard, cohort.sender = rnd, sender
            if cohort.window == window:
                count = cohort.window_count = cohort.window_count + 1
                if count > 2:
                    raise ProtocolViolation(
                        f"node {i} heard subject {s} more than twice from node "
                        f"{sender}"
                    )
            else:
                cohort.window = window
                count = cohort.window_count = 1
            view, flist = cohort.view, cohort.flist
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
                cohort.resolve((s,), i)
                if count == 2:  # a completed rebroadcast settled every lower entry
                    below = [k for k in flist if k < s]
                    cohort.resolve(below, i, MUTATE_BELOW_FOLD_DISCARDS in node.mutations)
        return []

    def end_phase1(self, cohort: Cohort) -> None:
        """Join the record `Phase1Tally.close` classified this node into,
        which lists it as a member, and hand its timer to that record."""
        self._cohort = cohort
        self._timer = None
