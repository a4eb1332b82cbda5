"""Capacitated-mode tests: group layout, round-robin broadcast coverage,
per-round capacity, scaled failover timing, staggered termination, and
equivalence with the uncapacitated model at G=1."""

import pytest

from cliquesim.adversary import (
    CrashEvent,
    CrashPlan,
    NoneAdversary,
    ScriptedAdversary,
    WorstCaseAdversary,
)
from cliquesim.engine import RoundEngine, SimConfig, run_simulation
from cliquesim.groups import GroupLayout, enforce_capacity, log2_ceil
from cliquesim.harness import check_execution, verify_exhaustive
from cliquesim.adversary import PlanSpace
from cliquesim.protocol import (
    AllOkay,
    FaultEntry,
    Phase1Tally,
    ProtocolNode,
    SMITE,
)
from cliquesim.trace import round_records


class TestGroupLayout:
    def test_eight_nodes_three_groups(self):
        layout = GroupLayout.for_clique(8)
        assert layout.group_size == 3 and layout.group_count == 3
        assert [list(layout.members(g)) for g in (1, 2, 3)] == [
            [1, 2, 3],
            [4, 5, 6],
            [7, 8],
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_partition_is_contiguous_and_bounded(self, n):
        layout = GroupLayout.for_clique(n)
        seen = []
        for g in range(1, layout.group_count + 1):
            members = list(layout.members(g))
            assert 0 < len(members) <= log2_ceil(n)
            seen.extend(members)
        assert seen == list(range(1, n + 1))
        for i in range(1, n + 1):
            assert layout.members(layout.group_of(i))[layout.place_in_group(i)] == i

    @pytest.mark.parametrize("n", range(1, 71))
    def test_member_lists_hold_each_node_once(self, n):
        """The ncc layout and the cc layout (one group of n) each list every
        node in exactly one group: the group count follows from n and the
        group size."""
        for layout in (GroupLayout.for_clique(n), GroupLayout(n, n)):
            assert len(layout.member_lists) == layout.group_count
            listed = [i for members in layout.member_lists for i in members]
            assert listed == list(range(1, n + 1)), layout

    def test_log2_ceil_floors_at_one(self):
        assert log2_ceil(1) == 1
        assert log2_ceil(2) == 1
        assert log2_ceil(3) == 2
        assert log2_ceil(8) == 3
        assert log2_ceil(9) == 4

    def test_log2_ceil_rejects_zero(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            log2_ceil(0)

    def test_phase1_schedule_covers_all_pairs_once_per_sweep(self):
        layout = GroupLayout.for_clique(8)
        g = layout.group_count
        hits = {}
        for rr in range(g):
            dests = set()
            for j in range(1, g + 1):
                dest = layout.phase1_dest(j, rr)
                assert dest not in dests  # one sender group per destination
                dests.add(dest)
                for a in layout.members(j):
                    for b in layout.members(dest):
                        if a != b:
                            hits[(a, b)] = hits.get((a, b), 0) + 1
        assert all(count == 1 for count in hits.values())
        assert len(hits) == 8 * 7

    def test_allokay_order_wraps_from_own_group(self):
        layout = GroupLayout.for_clique(8)
        assert layout.allokay_order(2) == [2, 3, 1]
        assert layout.allokay_order(1) == [1, 2, 3]


class TestEnforceCapacity:
    def test_under_limit_untouched(self):
        box = [AllOkay(3), AllOkay(1), AllOkay(2)]
        kept, dropped = enforce_capacity(box, 5)
        assert kept == box and dropped == []

    def test_overflow_keeps_lowest_sender_indexes(self):
        box = [AllOkay(s) for s in (7, 2, 5, 1, 6, 3, 4)]
        kept, dropped = enforce_capacity(box, 5)
        assert [m.sender for m in kept] == [1, 2, 3, 4, 5]
        assert sorted(m.sender for m in dropped) == [6, 7]


class TestNccExecution:
    def test_fault_free_round_count_and_messages(self):
        n = 8
        config = SimConfig(n=n, degrees=(2,) * n, model="ncc", strict=True)
        result = run_simulation(config, NoneAdversary())
        # phase 1 is 2G rounds; the first activation exits immediately and
        # staggers its termination signal over G rounds
        assert result.metrics.rounds_to_termination == 3 * 3
        assert result.metrics.messages_sent == 2 * n * (n - 1) + (n - 1)
        assert check_execution(result) == []

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_capacity_never_exceeded_fault_free(self, n):
        config = SimConfig(n=n, degrees=(1,) * n, model="ncc", strict=True)
        result = run_simulation(config, NoneAdversary())
        assert result.metrics.max_send_per_round <= log2_ceil(n)
        assert result.metrics.max_recv_per_round <= log2_ceil(n)
        assert result.metrics.dropped_messages == 0

    def test_entry_takes_two_passes_of_g_rounds(self):
        """One faulty entry at G=4 (n=16) is transmitted for 8 rounds."""
        n = 16
        config = SimConfig(n=n, degrees=(1,) * n, model="ncc")
        plan = CrashPlan((CrashEvent(2, 2, ()),))  # round-2 crash: faulty
        result = run_simulation(config, ScriptedAdversary(plan))
        layout = GroupLayout.for_clique(n)
        assert layout.group_count == 4
        fault_rounds = [
            r["round"]
            for r in round_records(result)
            if any(s["kind"] == "fault" and s["from"] == 1 for s in r["sends"])
        ]
        start = 2 * layout.group_count + 1
        assert fault_rounds == list(range(start, start + 8))
        assert check_execution(result) == []

    def test_scaled_activation_timeout(self):
        n = 16  # G = 4: successor gap of one waits 12 rounds
        layout = GroupLayout.for_clique(n)
        node = ProtocolNode(2, 1, layout)
        Phase1Tally(layout).close([node])
        node.receive(20, [FaultEntry(1, 3, SMITE, None)])
        assert node.next_emit == 20 + 3 * layout.group_count

    def test_staggered_allokay_order_and_termination(self):
        n = 8
        config = SimConfig(n=n, degrees=(1,) * n, model="ncc")
        result = run_simulation(config, NoneAdversary())
        allokay_sends = [
            (r["round"], s["to"])
            for r in round_records(result)
            for s in r["sends"]
            if s["kind"] == "allokay"
        ]
        # exiter u1 is in group 1: own group first, then 2, then 3
        assert allokay_sends == [
            (7, [2, 3]),
            (8, [4, 5, 6]),
            (9, [7, 8]),
        ]
        exit_rounds = {o.index: o.exit_round for o in result.nodes}
        assert exit_rounds == {1: 7, 2: 7, 3: 7, 4: 8, 5: 8, 6: 8, 7: 9, 8: 9}

    def test_exiter_in_second_group_staggers_from_own_group(self):
        """Crash group 1 in phase 1: the first active is u4 (group 2). After
        rebroadcasting the three smite entries it staggers its termination
        signal starting from its own group; the wrap-around round for group 1
        never runs because every live node has terminated by then."""
        n = 8
        config = SimConfig(n=n, degrees=(1,) * n, model="ncc", strict=True)
        plan = CrashPlan(
            (CrashEvent(1, 1, ()), CrashEvent(1, 2, ()), CrashEvent(1, 3, ()))
        )
        result = run_simulation(config, ScriptedAdversary(plan))
        allokay_sends = [
            s["to"]
            for r in round_records(result)
            for s in r["sends"]
            if s["kind"] == "allokay"
        ]
        assert allokay_sends == [[5, 6], [7, 8]]
        # the three dead peers were rebroadcast as smite: 3 entries x 2G rounds
        fault_rounds = [
            r["round"]
            for r in round_records(result)
            if any(s["kind"] == "fault" for s in r["sends"])
        ]
        assert len(fault_rounds) == 3 * 2 * 3
        for o in result.survivors():
            assert o.view == {j: 1 for j in range(4, 9)}
        assert check_execution(result) == []

    def test_node_alone_in_its_group_skips_its_own_slot(self):
        """n=9 has groups {1-4}, {5-8} and {9}. With nodes 1-8 dead in round
        1, node 9 rebroadcasts their smite entries to groups 1 and 2 and
        stays silent in its own group's slot, and its termination signal
        skips its own group too."""
        n = 9
        config = SimConfig(n=n, degrees=(1,) * n, model="ncc", strict=True)
        plan = CrashPlan(tuple(CrashEvent(1, i, ()) for i in range(1, 9)))
        result = run_simulation(config, ScriptedAdversary(plan))
        sends = [
            (r["round"], s["kind"], s["to"])
            for r in round_records(result)
            for s in r["sends"]
            if s["from"] == 9
        ]
        faults = [(rnd, to) for rnd, kind, to in sends if kind == "fault"]
        # 8 entries x 2G slots, one slot in three silent
        assert faults == [
            (rnd, [1, 2, 3, 4] if rnd % 3 == 1 else [5, 6, 7, 8])
            for rnd in range(79, 127)
            if rnd % 3 != 0
        ]
        allokay = [(rnd, to) for rnd, kind, to in sends if kind == "allokay"]
        assert allokay[0] == (127, [1, 2, 3, 4])
        assert check_execution(result) == []

    def test_worst_case_capacity_under_faults(self):
        for n in (8, 16):
            for f in (1, 4):
                config = SimConfig(n=n, degrees=(1,) * n, model="ncc", strict=True)
                result = run_simulation(config, WorstCaseAdversary(f))
                assert result.metrics.max_send_per_round <= log2_ceil(n)
                assert result.metrics.max_recv_per_round <= log2_ceil(n)
                assert result.metrics.dropped_messages == 0
                assert check_execution(result) == []

    def test_capacity_constant_scales_limits(self):
        config = SimConfig(n=8, degrees=(1,) * 8, model="ncc", capacity_c=2)
        engine = RoundEngine(config, NoneAdversary())
        assert engine.capacity == 2 * 3

    def test_watchdog_scales_with_group_count(self):
        """Legitimate capacitated executions stretch every timeout by G; a
        heavy random crash load at n=25 needs >510 rounds and must not trip
        the watchdog."""
        from cliquesim.adversary import RandomAdversary

        n = 25
        config = SimConfig(n=n, degrees=(2,) * n, model="ncc", strict=True)
        engine = RoundEngine(config, RandomAdversary(3287, 24, 0.25))
        assert engine.round_cap == (10 * (n + 24) + 20) * 5
        result = engine.run()
        assert result.metrics.rounds_to_termination > 500
        assert check_execution(result) == []


class TestModelEquivalence:
    def test_single_group_layout_reproduces_cc(self, monkeypatch):
        """With every node in one group, the capacitated schedules collapse
        to full broadcasts and both models produce identical executions."""
        n = 5
        degrees = (1, 2, 2, 1, 2)
        plan = CrashPlan((CrashEvent(1, 2, (3,)), CrashEvent(4, 1, (4,))))
        cc = run_simulation(SimConfig(n=n, degrees=degrees), ScriptedAdversary(plan))
        monkeypatch.setattr(
            GroupLayout, "for_clique", staticmethod(lambda n: GroupLayout(n, n))
        )
        ncc = run_simulation(
            SimConfig(n=n, degrees=degrees, model="ncc"), ScriptedAdversary(plan)
        )
        assert ncc.metrics.max_send_per_round == n - 1  # one group: full broadcasts
        assert [o.view for o in cc.nodes] == [o.view for o in ncc.nodes]
        assert cc.metrics.rounds_to_termination == ncc.metrics.rounds_to_termination
        assert cc.metrics.messages_sent == ncc.metrics.messages_sent
        assert round_records(cc) == round_records(ncc)
        assert cc.crashes == ncc.crashes
        assert cc.nodes == ncc.nodes


class TestNccAgreement:
    def test_enumerated_crashes_small_clique(self):
        """Every one-crash schedule within the horizon, in capacitated mode:
        survivors always agree (heard-once rules fire exactly as in the
        uncapacitated model)."""
        config = SimConfig(n=3, degrees=(1, 1, 2), model="ncc", strict=True)
        report = verify_exhaustive(config, f=1, horizon=14)
        assert report.ok, report.first_counterexample()
        assert report.executions_run == len(PlanSpace(3, 1, 14))
