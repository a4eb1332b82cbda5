"""Unit tests for the per-node state machine, driven directly (no engine):
phase-1 classification, activation timing, the active transmit loop, and
the listener update rules.
"""

import copy

import pytest

from cliquesim.engine import NodeOutcome
from cliquesim.groups import GroupLayout
from cliquesim.harness import verdict
from cliquesim.protocol import (
    AllOkay,
    Announce,
    Cohort,
    FAULTY,
    FaultEntry,
    NodeState,
    Phase1Tally,
    ProtocolNode,
    ProtocolViolation,
    SMITE,
)


def cc_node(index, degree, n):
    """A node of the uncapacitated model: one group of n."""
    return ProtocolNode(index, degree, GroupLayout(n, n, 1))


def make_classified_node(index, n, degree=1, heard=None):
    """Build a node and run it through phase 1, with its mail fed to a
    tally of its own; `heard` maps peer -> list of announced degrees (one
    per reception)."""
    node = cc_node(index, degree, n)
    tally = Phase1Tally(node.layout)
    heard = heard or {}
    round1 = [Announce(j, ds[0]) for j, ds in heard.items() if len(ds) >= 1]
    round2 = [Announce(j, ds[1]) for j, ds in heard.items() if len(ds) >= 2]
    node.emit(1)
    tally.add_mail(index, round1)
    node.emit(2)
    tally.add_mail(index, round2)
    tally.close([node])
    return node


class TestPhase1Classification:
    def test_all_heard_twice(self):
        node = make_classified_node(
            1, 4, degree=5, heard={2: [7, 7], 3: [2, 2], 4: [0, 0]}
        )
        assert node.flist == {}
        assert node.view == {1: 5, 2: 7, 3: 2, 4: 0}

    def test_heard_once_becomes_faulty_with_degree(self):
        node = make_classified_node(1, 4, heard={2: [5], 3: [2, 2], 4: [0, 0]})
        assert node.flist == {2: 5}
        assert 2 not in node.view

    def test_heard_never_becomes_smite(self):
        node = make_classified_node(1, 4, heard={2: [5, 5], 3: [2, 2]})
        assert node.flist == {4: None}

    def test_own_degree_always_present(self):
        node = make_classified_node(1, 2, degree=9)
        assert node.view[1] == 9

    def test_conflicting_degrees_are_a_violation(self):
        tally = Phase1Tally(GroupLayout(3, 3, 1))
        tally.add_mail(1, [Announce(2, 5)])
        message = "node 1 heard degree 6 from node 2, which announced 5 before"
        with pytest.raises(ProtocolViolation, match=message):
            tally.add_mail(1, [Announce(2, 6)])

    def test_rebroadcast_conflicting_with_the_view_is_a_violation(self):
        node = make_classified_node(1, 4, heard={2: [7, 7], 3: [2, 2], 4: [0, 0]})
        message = "node 1 saw conflicting degrees 7 and 8 for node 2"
        with pytest.raises(ProtocolViolation, match=message):
            node.receive(5, [FaultEntry(3, 2, FAULTY, 8)])


class TestActivationTiming:
    def test_min_index_activates_right_after_phase1(self):
        node = make_classified_node(1, 4)
        assert node.next_emit == 3

    def test_second_index_waits_one_gap(self):
        node = make_classified_node(2, 4)
        assert node.next_emit == 6

    def test_gap_scales_with_index_distance(self):
        node = make_classified_node(5, 6)
        node.receive(9, [FaultEntry(2, 1, SMITE, None)])
        assert node.next_emit == 18

    def test_no_reactivation_below_last_active(self):
        node = make_classified_node(2, 6)
        node.receive(10, [FaultEntry(4, 1, SMITE, None)])
        assert node.next_emit is None

    def test_listener_stays_quiet_before_due(self):
        node = make_classified_node(2, 4)
        assert node.emit(3) is None
        assert node.state is NodeState.LISTENING

    def test_activation_emits_in_due_round(self):
        node = make_classified_node(
            2, 4, heard={1: [0, 0], 3: [2, 2], 4: [0, 0]}
        )
        for rnd in (3, 4, 5):
            assert node.emit(rnd) is None
        out = node.emit(6)
        assert node.state is NodeState.EXIT  # empty list: immediate exit
        msg, recipients = out
        assert isinstance(msg, AllOkay)
        assert recipients == [1, 3, 4]


class TestActiveTransmission:
    def test_single_faulty_entry_sent_twice_then_exit(self):
        node = make_classified_node(1, 4, heard={2: [5], 3: [2, 2], 4: [0, 0]})
        msg1, to1 = node.emit(3)
        assert msg1 == FaultEntry(1, 2, FAULTY, 5)
        assert to1 == [2, 3, 4]
        msg2, _ = node.emit(4)
        assert msg2 == msg1
        assert node.view[2] == 5  # resolved after the second copy
        assert node.flist == {}
        msg3, _ = node.emit(5)
        assert isinstance(msg3, AllOkay)
        assert node.state is NodeState.EXIT and node.exit_round == 5

    def test_smite_then_faulty_back_to_back(self):
        node = make_classified_node(1, 5, heard={3: [2, 2], 5: [1, 1], 4: [7]})
        # peer 2 never heard -> smite; peer 4 heard once -> faulty(7)
        sent = []
        for rnd in range(3, 8):
            msg, _ = node.emit(rnd)
            sent.append(msg)
        assert sent[0] == FaultEntry(1, 2, SMITE, None)
        assert sent[1] == FaultEntry(1, 2, SMITE, None)
        assert sent[2] == FaultEntry(1, 4, FAULTY, 7)
        assert sent[3] == FaultEntry(1, 4, FAULTY, 7)
        assert isinstance(sent[4], AllOkay)
        assert 2 not in node.view and node.view[4] == 7

    def test_empty_list_goes_straight_to_allokay(self):
        node = make_classified_node(1, 3, heard={2: [1, 1], 3: [1, 1]})
        msg, _ = node.emit(3)
        assert isinstance(msg, AllOkay)


class TestListeningUpdates:
    def listener(self):
        # peer 4 heard once (faulty 5 known locally), peer 5 never (smite)
        return make_classified_node(
            2, 5, heard={1: [0, 0], 3: [2, 2], 4: [5]}
        )

    def test_heard_twice_smite_removes_permanently(self):
        node = self.listener()
        node.receive(3, [FaultEntry(1, 4, SMITE, None)])
        node.receive(4, [FaultEntry(1, 4, SMITE, None)])
        assert 4 not in node.flist and 4 not in node.view

    def test_heard_twice_faulty_accepts_degree(self):
        node = self.listener()
        node.receive(3, [FaultEntry(1, 5, FAULTY, 3)])
        node.receive(4, [FaultEntry(1, 5, FAULTY, 3)])
        assert node.view[5] == 3 and 5 not in node.flist

    def test_heard_once_overwrites_classification(self):
        node = self.listener()
        node.receive(3, [FaultEntry(1, 4, SMITE, None)])
        # the received smite replaces the local faulty(5), degree discarded
        assert node.flist[4] is None
        node.receive(7, [FaultEntry(3, 4, FAULTY, 5)])
        assert node.flist[4] == 5

    def test_below_index_fold_on_heard_twice(self):
        node = self.listener()
        node.receive(3, [FaultEntry(1, 5, SMITE, None)])
        node.receive(4, [FaultEntry(1, 5, SMITE, None)])
        # entry 4 sits below subject 5 and folds into the view
        assert node.view[4] == 5
        assert node.flist == {}

    def test_timer_refresh_on_reception(self):
        node = self.listener()
        node.receive(9, [FaultEntry(3, 4, FAULTY, 5)])
        assert node.next_emit is None  # index 2 < sender 3

    def test_smite_for_accepted_degree_is_a_violation(self):
        node = self.listener()
        with pytest.raises(ProtocolViolation, match="smite"):
            node.receive(3, [FaultEntry(1, 3, SMITE, None)])

    def test_faulty_without_degree_is_a_violation(self):
        node = self.listener()
        with pytest.raises(ProtocolViolation, match="without a degree"):
            node.receive(3, [FaultEntry(1, 5, FAULTY, None)])

    def test_third_copy_is_a_violation(self):
        node = self.listener()
        node.receive(3, [FaultEntry(1, 5, FAULTY, 3)])
        node.receive(4, [FaultEntry(1, 5, FAULTY, 3)])
        with pytest.raises(ProtocolViolation, match="more than"):
            node.receive(5, [FaultEntry(1, 5, FAULTY, 3)])

    def test_same_subject_from_new_sender_starts_fresh_window(self):
        node = self.listener()
        node.receive(3, [FaultEntry(1, 4, FAULTY, 5)])
        node.receive(9, [FaultEntry(3, 4, FAULTY, 5)])
        # one copy from each sender: still heard-once, entry stays
        assert node.flist[4] == 5
        assert 4 not in node.view

    def test_sender_alone_hears_its_late_announcement_as_nothing(self):
        """A kind phase 2 never sends is a violation only for a listener
        other than its sender."""
        node = self.listener()
        before = copy.deepcopy(vars(node))
        assert ProtocolNode.hear(3, Announce(2, 1), [node]) == []
        assert vars(node) == before


class TestMultiMessageInbox:
    """Inboxes after phase 1 that hold several messages, as mail from more
    than one sender in a round brings them."""

    def listener(self):
        # peer 3 heard once (faulty 7 known locally), peer 5 never (smite)
        return make_classified_node(4, 5, heard={1: [0, 0], 2: [1, 1], 3: [7]})

    def test_two_fault_entries_apply_in_sender_order(self):
        node = self.listener()
        node.receive(6, [FaultEntry(2, 5, FAULTY, 3), FaultEntry(1, 5, SMITE, None)])
        # node 1's smite first, then node 2's faulty entry replaces it
        assert node.flist == {3: 7, 5: 3}
        assert node.view == {1: 0, 2: 1, 4: 1}
        assert node.next_emit == 6 + 3 * (4 - 2)
        assert node.state is NodeState.LISTENING

    def test_fault_entry_then_allokay_exits(self):
        node = self.listener()
        node.receive(6, [AllOkay(2), FaultEntry(1, 5, FAULTY, 3)])
        # the entry lands first, then the signal folds both entries in
        assert node.flist == {}
        assert node.view == {1: 0, 2: 1, 4: 1, 3: 7, 5: 3}
        assert node.next_emit is None
        assert node.state is NodeState.EXIT and node.exit_round == 6
        assert not node.allokay_broadcast


class TestResolveOrder:
    """Entries leave the list in a fixed order, which shows in the view's
    key order: lower entries in the list's own order after a copy heard
    twice, leftovers in index order at exit."""

    def listener(self, flist):
        # The list is out of index order, as heard-once updates leave it.
        node = cc_node(9, 1, 9)
        node.end_phase1(Cohort([9], {1: 1, 9: 1}, flist, node.phase1_len + 1))
        return node

    def test_faulty_heard_twice_settles_lower_entries_in_list_order(self):
        node = self.listener({5: 2, 3: 1, 4: None, 8: 3})
        node.receive(10, [FaultEntry(2, 7, FAULTY, 4)])
        node.receive(11, [FaultEntry(2, 7, FAULTY, 4)])
        assert list(node.view) == [1, 9, 7, 5, 3]
        assert node.flist == {8: 3}

    def test_smite_heard_twice_settles_lower_entries_in_list_order(self):
        node = self.listener({5: 2, 3: 1, 4: None, 8: 3})
        node.receive(10, [FaultEntry(2, 7, SMITE, None)])
        node.receive(11, [FaultEntry(2, 7, SMITE, None)])
        assert list(node.view) == [1, 9, 5, 3]
        assert node.flist == {8: 3}

    def test_exit_folds_leftovers_in_index_order(self):
        node = self.listener({6: 1, 2: 3, 4: None})
        node.receive(10, [AllOkay(2)])
        assert list(node.view) == [1, 9, 2, 6]
        assert node.flist == {}

    def test_smite_heard_once_lists_a_subject_already_off_the_list(self):
        node = self.listener({8: 3})
        node.receive(10, [FaultEntry(2, 5, SMITE, None)])
        assert node.flist == {8: 3, 5: None}


class TestExitBehavior:
    def test_allokay_folds_in_and_terminates_silently(self):
        node = make_classified_node(2, 5, heard={1: [0, 0], 3: [2, 2], 4: [5]})
        node.receive(3, [AllOkay(1)])
        assert node.state is NodeState.EXIT
        assert node.view[4] == 5  # remaining faulty folded in
        assert 5 not in node.view  # smite dropped
        assert node.emit(4) is None  # no rebroadcast
        assert not node.allokay_broadcast

    def test_exit_from_active_broadcasts(self):
        node = make_classified_node(1, 3, heard={2: [1, 1], 3: [1, 1]})
        node.emit(3)
        assert node.allokay_broadcast

    def test_exited_node_ignores_everything(self):
        node = make_classified_node(2, 3, heard={1: [0, 0], 3: [1, 1]})
        node.receive(3, [AllOkay(1)])
        view = dict(node.view)
        node.receive(4, [FaultEntry(3, 1, FAULTY, 9)])
        assert node.view == view


class TestDegenerateClique:
    def test_single_node_runs_alone(self):
        node = cc_node(1, 4, 1)
        assert node.emit(1) is None and node.emit(2) is None
        Phase1Tally(node.layout).close([node])
        assert node.view == {1: 4}
        out = node.emit(3)
        assert node.state is NodeState.EXIT
        assert out is None  # no peers to signal

    def test_exit_view_verdict(self):
        node = make_classified_node(1, 3, degree=2, heard={2: [2, 2], 3: [2, 2]})
        node.emit(3)
        final = NodeOutcome(1, node.state.value, None, node.exit_round, node.view)
        outcome = verdict(final)
        assert outcome.graph.sorted_edges() == [(1, 2), (1, 3), (2, 3)]
