"""Round-engine tests: delivery semantics, fault-free exactness, scripted
crash golden values, determinism, and the watchdog."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquesim.adversary import (
    CrashEvent,
    CrashPlan,
    NoneAdversary,
    ScriptedAdversary,
    WorstCaseAdversary,
)
from cliquesim.engine import (
    AdversaryError,
    ConfigError,
    RoundEngine,
    SimConfig,
    run_simulation,
)
from cliquesim.harness import check_execution, message_bound, verdict
from cliquesim.protocol import (
    SMITE,
    AllOkay,
    Announce,
    Entry,
    ProtocolNode,
    ProtocolViolation,
)
from cliquesim.trace import round_records


def fault_free_messages(n):
    return 2 * n * (n - 1) + (n - 1)


class TestFaultFree:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16])
    def test_three_rounds_and_exact_messages(self, n):
        config = SimConfig(n=n, degrees=(0,) * n)
        result = run_simulation(config, NoneAdversary())
        assert result.metrics.rounds_to_termination == 3
        assert result.metrics.messages_sent == fault_free_messages(n)

    def test_matching_overlay_for_unit_degrees(self):
        config = SimConfig(n=4, degrees=(1, 1, 1, 1))
        result = run_simulation(config, NoneAdversary())
        views = {tuple(sorted(o.view.items())) for o in result.nodes}
        assert views == {((1, 1), (2, 1), (3, 1), (4, 1))}
        assert verdict(result.nodes[0]).graph.sorted_edges() == [(1, 2), (3, 4)]

    def test_per_round_message_counts(self):
        n = 4
        config = SimConfig(n=n, degrees=(1, 1, 1, 1))
        result = run_simulation(config, NoneAdversary())
        assert result.metrics.per_round_counts == [12, 12, 3]

    def test_single_node_clique(self):
        config = SimConfig(n=1, degrees=(0,))
        result = run_simulation(config, NoneAdversary())
        assert result.metrics.rounds_to_termination == 3
        assert result.metrics.messages_sent == 0
        assert result.nodes[0].view == {1: 0}


class TestScriptedCrashes:
    def test_phase1_crash_partial_delivery(self):
        """u2 crashes in round 1 delivering only to u3: survivors agree on a
        view without u2, in 5 rounds and 28 messages (hand-stepped)."""
        config = SimConfig(n=4, degrees=(1, 2, 2, 1))
        plan = CrashPlan((CrashEvent(1, 2, (3,)),))
        result = run_simulation(config, ScriptedAdversary(plan))
        assert result.metrics.rounds_to_termination == 5
        assert result.metrics.messages_sent == 28
        survivors = result.survivors()
        assert len(survivors) == 3
        for o in survivors:
            assert o.view == {1: 1, 3: 2, 4: 1}
        assert check_execution(result) == []

    def test_round2_crash_yields_heard_once_and_degree_kept(self):
        """A round-2 crash follows a complete round-1 broadcast, so every
        node knows the degree and phase 2 re-includes it."""
        config = SimConfig(n=4, degrees=(1, 2, 2, 1))
        plan = CrashPlan((CrashEvent(2, 2, ()),))
        result = run_simulation(config, ScriptedAdversary(plan))
        for o in result.survivors():
            assert o.view == {1: 1, 2: 2, 3: 2, 4: 1}
        assert check_execution(result) == []

    def test_crash_with_full_delivery_is_indistinguishable_this_round(self):
        config = SimConfig(n=4, degrees=(1, 2, 2, 1))
        plan = CrashPlan((CrashEvent(1, 2, (1, 3, 4)),))
        result = run_simulation(config, ScriptedAdversary(plan))
        # round 1 fully delivered, round 2 silent: heard once everywhere
        for o in result.survivors():
            assert o.view == {1: 1, 2: 2, 3: 2, 4: 1}

    def test_crashed_node_never_delivers_later(self):
        config = SimConfig(n=3, degrees=(1, 1, 0))
        plan = CrashPlan((CrashEvent(1, 3, ()),))
        result = run_simulation(config, ScriptedAdversary(plan))
        for record in round_records(result):
            if record["round"] > 1:
                assert all(s["from"] != 3 for s in record["sends"])

    def test_active_crash_mid_transmission_failover(self):
        """u1 crashes on the second copy; u2 takes over three rounds after
        u1's last delivered send."""
        config = SimConfig(n=4, degrees=(1, 2, 2, 1))
        plan = CrashPlan((CrashEvent(1, 3, (1,)), CrashEvent(4, 1, ())))
        result = run_simulation(config, ScriptedAdversary(plan))
        assert check_execution(result) == []
        # u1 transmitted the entry for 3 in rounds 3 (all) and 4 (dropped):
        # listeners last heard round 3, so u2 activates at 3 + 3 = 6.
        activations = [
            (r["round"], t["node"])
            for r in round_records(result)
            for t in r["transitions"]
            if t["to"] == "active"
        ]
        assert (3, 1) in activations and (6, 2) in activations

    def test_message_accounting_counts_delivered_only_for_crashers(self):
        config = SimConfig(n=4, degrees=(0, 0, 0, 0))
        plan = CrashPlan((CrashEvent(3, 1, ()),))  # crash exiter mid-allokay
        result = run_simulation(config, ScriptedAdversary(plan))
        # u1's round-3 allokay is entirely undelivered (0 counted); u2 times
        # out at round 6 and pays its own 3-message broadcast.
        assert result.metrics.per_round_counts == [12, 12, 0, 0, 0, 3]
        assert result.metrics.allokay_broadcasters == 2
        assert result.metrics.messages_sent <= message_bound(4, 1, 2)

    def test_crash_of_silent_node_consumes_budget_only(self):
        config = SimConfig(n=4, degrees=(1, 1, 1, 1))
        plan = CrashPlan((CrashEvent(9, 4, (1, 2)),))
        result = run_simulation(config, ScriptedAdversary(plan))
        # by round 9 the run is long over; the event is recorded as a no-op
        assert result.metrics.rounds_to_termination == 3


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_agreement_and_validity_under_arbitrary_crash_plans(data):
    """Sizes just beyond the exhaustive-enumeration cap: any crash schedule
    the adversary can script must leave the terminated nodes in agreement
    and the views valid."""
    n = data.draw(st.integers(min_value=2, max_value=6), label="n")
    f = data.draw(st.integers(min_value=0, max_value=n - 1), label="f")
    crashers = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=n),
            max_size=f,
            unique=True,
        ),
        label="crashers",
    )
    events = []
    for node in crashers:
        rnd = data.draw(st.integers(min_value=1, max_value=20), label="round")
        delivered = data.draw(
            st.sets(st.integers(min_value=1, max_value=n)), label="delivered"
        )
        events.append(CrashEvent(rnd, node, tuple(sorted(delivered - {node}))))
    degrees = tuple(
        data.draw(st.integers(min_value=0, max_value=n), label="degree")
        for _ in range(n)
    )
    config = SimConfig(n=n, degrees=degrees)
    result = run_simulation(config, ScriptedAdversary(CrashPlan(tuple(events))))
    assert check_execution(result) == []


def test_views_keep_index_order_when_mail_completes_a_peer():
    """Node 3 crashes in round 2 reaching only nodes 1 and 4, so they hear it
    once from the shared round-1 broadcast and once by mail: it still lands
    in their views in index order, their own index last. Agreement issues
    print views in this order."""
    config = SimConfig(n=5, degrees=(1, 2, 2, 1, 2))
    plan = CrashPlan((CrashEvent(2, 3, (1, 4)),))
    result = run_simulation(config, ScriptedAdversary(plan))
    assert [list(o.view) for o in result.nodes] == [
        [2, 3, 4, 5, 1],
        [1, 4, 5, 2, 3],
        [],
        [1, 2, 3, 5, 4],
        [1, 2, 4, 5, 3],
    ]
    assert check_execution(result) == []


def test_failing_views_are_reported_node_by_node():
    """`check_execution` judges each distinct view once, but when one fails
    it reports every node, in node order."""
    result = run_simulation(SimConfig(n=4, degrees=(1, 1, 1, 1)), NoneAdversary())
    nodes = result.nodes
    nodes[1] = dataclasses.replace(nodes[1], view={1: 1, 2: 1, 3: 1})
    nodes[3] = dataclasses.replace(nodes[3], view={1: 1, 2: 1, 3: 1, 4: 9})
    assert check_execution(result) == [
        "agreement: view disagreement between nodes 1 and 2: "
        "{2: 1, 3: 1, 4: 1, 1: 1} vs {1: 1, 2: 1, 3: 1}",
        "agreement: verdict disagreement among exited nodes [1, 2, 3, 4]",
        "validity: node 2 has |D'|=3 < n-crashed=4",
        "validity: node 2 is missing degrees of non-crashed nodes [4]",
        "validity: node 2 holds None for surviving node 4, expected 1",
        "validity: node 4 holds 9 for surviving node 4, expected 1",
    ]


def test_large_cc_run_under_worst_adversary():
    """The benchmark's cc instance: n=1024 under the worst adversary with
    f=512, the one run that delivers broadcasts at scale."""
    config = SimConfig(n=1024, degrees=(256,) * 1024)
    result = run_simulation(config, WorstCaseAdversary(512))
    assert len(result.metrics.per_round_counts) == 1541
    assert result.metrics.messages_sent == 2_619_392
    assert check_execution(result) == []


class TestDeterminism:
    def test_identical_configs_produce_identical_traces(self):
        from cliquesim.adversary import RandomAdversary
        from cliquesim.trace import trace_lines

        config = SimConfig(n=6, degrees=(1, 2, 2, 1, 3, 1), seed=7)
        runs = [
            run_simulation(config, RandomAdversary(7, 3))
            for _ in range(2)
        ]
        lines = [trace_lines(r, "random:7") for r in runs]
        assert lines[0] == lines[1]


class TestEngineContracts:
    def test_budget_violation_rejected(self):
        config = SimConfig(n=3, degrees=(0, 0, 0))

        class Greedy:
            budget = 1

            def decide(self, engine, rnd):
                return {1: (), 2: ()} if rnd == 1 else None

        with pytest.raises(AdversaryError, match="budget"):
            run_simulation(config, Greedy())

    def test_double_crash_rejected(self):
        config = SimConfig(n=3, degrees=(0, 0, 0))

        class Doubler:
            budget = 2

            def decide(self, engine, rnd):
                return {1: ()} if rnd <= 2 else None

        with pytest.raises(AdversaryError, match="twice"):
            run_simulation(config, Doubler())

    def test_budget_must_be_below_n(self):
        config = SimConfig(n=2, degrees=(0, 0))
        for budget in (2, -1):
            with pytest.raises(ConfigError, match="budget"):
                RoundEngine(config, NoneAdversary(budget=budget))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(n=0, degrees=())
        with pytest.raises(ConfigError):
            SimConfig(n=2, degrees=(1,))
        with pytest.raises(ConfigError):
            SimConfig(n=2, degrees=(1, 1), model="mesh")

    def test_watchdog_cap_value(self):
        config = SimConfig(n=4, degrees=(1, 1, 1, 1))
        engine = RoundEngine(config, NoneAdversary(budget=2))
        assert engine.round_cap == 10 * (4 + 2) + 20

    def test_watchdog_overrun_carries_trace(self):
        from cliquesim.engine import RoundLimitExceeded

        config = SimConfig(n=4, degrees=(1, 1, 1, 1))
        engine = RoundEngine(config, NoneAdversary())
        engine.round_cap = 2  # force the cap below natural termination
        with pytest.raises(RoundLimitExceeded) as excinfo:
            engine.run()
        assert len(excinfo.value.round_log) == 2

    def test_unknown_node_in_plan_rejected(self):
        config = SimConfig(n=3, degrees=(0, 0, 0))
        plan = CrashPlan((CrashEvent(1, 7, ()),))
        with pytest.raises(AdversaryError, match="unknown"):
            run_simulation(config, ScriptedAdversary(plan))


class TestInvariantChecks:
    """Each engine invariant fires on a node forced to break it; the crash
    model itself never produces these states."""

    def run_with(self, monkeypatch, node_class, config, adversary):
        monkeypatch.setattr("cliquesim.engine.ProtocolNode", node_class)
        with pytest.raises(ProtocolViolation) as excinfo:
            run_simulation(config, adversary)
        return str(excinfo.value)

    def test_two_simultaneously_active_nodes(self, monkeypatch):
        class EagerTimer(ProtocolNode):
            def activation_due(self):
                return None if self.index < self.last_active else self.last_heard

        # Node 4 is never heard, so every list holds a smite entry for it
        # and the eager nodes 1-3 all go active right after phase 1.
        plan = CrashPlan((CrashEvent(1, 4, ()),))
        message = self.run_with(
            monkeypatch,
            EagerTimer,
            SimConfig(n=4, degrees=(1, 1, 1, 1)),
            ScriptedAdversary(plan),
        )
        assert message == "nodes 1 and 2 are simultaneously active in round 3"

    def test_phase1_subject_heard_twice_and_never(self, monkeypatch):
        class Narrowcaster(ProtocolNode):
            def _emit_phase1(self, rnd):
                send = super()._emit_phase1(rnd)
                return (send[0], [1]) if self.index == 3 else send

        message = self.run_with(
            monkeypatch,
            Narrowcaster,
            SimConfig(n=4, degrees=(1, 1, 1, 1)),
            NoneAdversary(),
        )
        assert message == (
            "phase-1 exclusion broken for node 3: heard twice by [1], "
            "never by [2, 4]"
        )

    def test_phase1_message_that_is_no_announcement(self, monkeypatch):
        class Impostor(ProtocolNode):
            def _emit_phase1(self, rnd):
                msg, recipients = super()._emit_phase1(rnd)
                if self.index == 2:
                    msg = AllOkay(2)
                return msg, recipients

        # Node 1 crashes silently, so node 3 is node 2's first live peer.
        message = self.run_with(
            monkeypatch,
            Impostor,
            SimConfig(n=4, degrees=(1, 1, 1, 1)),
            ScriptedAdversary(CrashPlan((CrashEvent(1, 1, ()),))),
        )
        assert message == "node 3 got AllOkay during phase 1"

    def test_phase1_degree_change(self, monkeypatch):
        class Fickle(ProtocolNode):
            def _emit_phase1(self, rnd):
                msg, recipients = super()._emit_phase1(rnd)
                if self.index == 1 and rnd == 2:
                    msg = Announce(1, self.degree + 1)
                return msg, recipients

        message = self.run_with(
            monkeypatch, Fickle, SimConfig(n=4, degrees=(1, 1, 1, 1)), NoneAdversary()
        )
        assert message == "node 2 heard degrees 1 and 2 from node 1"

    def test_phase1_degree_change_after_mail(self, monkeypatch):
        """Node 1's round-1 announcement travels as mail, since it names a
        copy of the peer list, and its round-2 broadcast names another
        degree: one degree check covers both delivery kinds."""

        class MailThenFickle(ProtocolNode):
            def _emit_phase1(self, rnd):
                msg, recipients = super()._emit_phase1(rnd)
                if self.index == 1 and rnd == 1:
                    recipients = list(recipients)
                elif self.index == 1:
                    msg = Announce(1, self.degree + 1)
                return msg, recipients

        message = self.run_with(
            monkeypatch,
            MailThenFickle,
            SimConfig(n=4, degrees=(1, 1, 1, 1)),
            NoneAdversary(),
        )
        assert message == "node 2 heard degrees 1 and 2 from node 1"

    @pytest.mark.parametrize(
        "sends, expected",
        [
            (
                {(1, 4): (AllOkay(4), None), (1, 2): (AllOkay(2), [3])},
                "node 1 got AllOkay during phase 1",
            ),
            (
                {(1, 4): (AllOkay(4), [2]), (1, 2): (AllOkay(2), [3])},
                "node 2 got AllOkay during phase 1",
            ),
            (
                {(2, 5): (Announce(5, 7), [3, 1])},
                "node 1 heard degrees 1 and 7 from node 5",
            ),
        ],
        ids=["broadcast-before-mail", "mail-by-receiver", "mailed-degree-change"],
    )
    def test_phase1_violation_reporter(self, monkeypatch, sends, expected):
        """A round's broadcasts are checked before its mail; a broadcast is
        reported by its sender's first live peer, mail by its receiver, the
        lowest receiver first. `sends` maps (round, node) to the message and
        recipients it sends instead, None meaning its whole peer list."""

        class Rogue(ProtocolNode):
            def _emit_phase1(self, rnd):
                msg, recipients = super()._emit_phase1(rnd)
                msg, to = sends.get((rnd, self.index), (msg, None))
                return msg, recipients if to is None else to

        message = self.run_with(
            monkeypatch, Rogue, SimConfig(n=5, degrees=(1,) * 5), NoneAdversary()
        )
        assert message == expected

    def test_broadcast_violation_names_the_lowest_listener(self, monkeypatch):
        class Tampered(ProtocolNode):
            def _classify(self):
                super()._classify()
                if self.index in (3, 5):
                    self.view[6] = 1

        # Node 6 crashes silently, so node 1 rebroadcasts a smite for it in
        # round 3, which both tampered listeners reject.
        message = self.run_with(
            monkeypatch,
            Tampered,
            SimConfig(n=6, degrees=(1,) * 6),
            ScriptedAdversary(CrashPlan((CrashEvent(1, 6, ()),))),
        )
        assert message == (
            "node 3 got a smite rebroadcast for 6 whose degree is already accepted"
        )

    def test_smite_rebroadcast_for_subject_heard_twice(self, monkeypatch):
        class Forgetful(ProtocolNode):
            def _classify(self):
                super()._classify()
                if self.index == 1:
                    del self.view[4]
                    self.flist[4] = Entry(SMITE, None)

        message = self.run_with(
            monkeypatch,
            Forgetful,
            SimConfig(n=4, degrees=(1, 1, 1, 1)),
            NoneAdversary(),
        )
        assert message == (
            "smite rebroadcast for node 4, which node 1 heard twice in phase 1"
        )
