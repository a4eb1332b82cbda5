"""Round-engine tests: delivery semantics, fault-free exactness, scripted
crash golden values, determinism, and the watchdog."""

import copy
import dataclasses
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquesim import harness
from cliquesim.adversary import (
    CrashEvent,
    CrashPlan,
    NoneAdversary,
    ScriptedAdversary,
    WorstCaseAdversary,
)
from cliquesim.engine import (
    AdversaryError,
    CapacityViolation,
    ConfigError,
    NodeOutcome,
    RoundEngine,
    SimConfig,
    run_simulation,
)
from cliquesim.harness import check_execution, message_bound, verdict, view_texts
from cliquesim.protocol import (
    SMITE,
    AllOkay,
    Announce,
    FaultEntry,
    ProtocolNode,
    ProtocolViolation,
)
from cliquesim.trace import round_records
from oracles import reference_verdicts_agree


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

    def test_last_node_to_settle_crashes_instead_of_exiting(self):
        """Node 3 never hears an AllOkay and crashes in round 5, so the run
        logs five rounds but terminates, by its last exit, in round 3."""
        config = SimConfig(n=3, degrees=(1, 1, 0))
        plan = CrashPlan((CrashEvent(3, 1, (2,)), CrashEvent(5, 3, ())))
        result = run_simulation(config, ScriptedAdversary(plan))
        assert result.crashes == [(3, 1, (2,)), (5, 3, ())]
        assert result.metrics.per_round_counts == [6, 6, 1, 0, 0]
        assert result.metrics.rounds_to_termination == 3
        assert check_execution(result) == []


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
    in their views in index order, their own index among the rest. Nodes 2
    and 5 heard it once and accept it later, after their phase-1 entries.
    Agreement issues print views in this order."""
    config = SimConfig(n=5, degrees=(1, 2, 2, 1, 2))
    plan = CrashPlan((CrashEvent(2, 3, (1, 4)),))
    result = run_simulation(config, ScriptedAdversary(plan))
    assert [list(o.view) for o in result.nodes] == [
        [1, 2, 3, 4, 5],
        [1, 2, 4, 5, 3],
        [],
        [1, 2, 3, 4, 5],
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
        "{1: 1, 2: 1, 3: 1, 4: 1} vs {1: 1, 2: 1, 3: 1}",
        "agreement: verdict disagreement among exited nodes [1, 2, 3, 4]",
        "validity: node 2 has |D'|=3 < n-crashed=4",
        "validity: node 2 is missing degrees of non-crashed nodes [4]",
        "validity: node 2 holds None for surviving node 4, expected 1",
        "validity: node 4 holds 9 for surviving node 4, expected 1",
    ]


def test_survivor_that_never_terminated_is_reported():
    result = run_simulation(SimConfig(n=4, degrees=(1, 1, 1, 1)), NoneAdversary())
    result.nodes[2] = dataclasses.replace(result.nodes[2], exit_round=None)
    assert check_execution(result) == ["termination: survivor 3 never terminated"]


def test_messages_over_the_bound_are_reported():
    result = run_simulation(SimConfig(n=4, degrees=(1, 1, 1, 1)), NoneAdversary())
    bound = message_bound(4, 0, result.metrics.allokay_broadcasters)
    assert result.metrics.messages_sent == bound == 27
    result.metrics = dataclasses.replace(result.metrics, messages_sent=bound + 1)
    assert check_execution(result) == ["messages: 28 exceed bound 27"]


def test_verdict_cache_is_bounded():
    """A long sweep realizes one view per row; only the last few stay
    cached, as realizations and as verdict keys."""
    harness._realize.cache_clear()
    harness._verdict_key.cache_clear()
    for d in range(40):
        view = {1: d, 2: d, 3: 0}
        assert verdict(NodeOutcome(1, "exited", None, 3, view)).realizable == (d < 2)
        key = harness._verdict_key(tuple(sorted(view.items())))
        assert key == (((1, d), (2, d)) if d == 1 else () if d == 0 else None)
    assert harness._realize.cache_info().currsize == 16
    assert harness._verdict_key.cache_info().currsize == 16


def test_view_texts_renders_each_pair_of_exit_and_view_once():
    """Nodes that share a view dict share its text; equal views in two
    dicts share one render call, unless one node exited and the other did
    not; and a view another node does not hold gets its own."""
    shared = {2: 1, 1: 1}
    nodes = [
        NodeOutcome(1, "exited", None, 3, shared),
        NodeOutcome(2, "exited", None, 3, shared),
        NodeOutcome(3, "exited", None, 4, {1: 1, 2: 1}),
        NodeOutcome(4, "listening", None, None, {1: 1, 2: 1}),
        NodeOutcome(5, "exited", None, 4, {1: 2, 2: 2}),
    ]
    calls = []

    def render(outcome, view):
        calls.append(view)
        return f"{'none' if outcome is None else outcome.realizable} {view}"

    one = "((1, 1), (2, 1))"
    assert view_texts(nodes, render) == [
        f"True {one}", f"True {one}", f"True {one}", f"none {one}",
        "False ((1, 2), (2, 2))",
    ]
    assert len(calls) == 3


def _with_view(degrees, node, view):
    """A fault-free run of `degrees` with node `node`'s final view replaced."""
    result = run_simulation(SimConfig(n=len(degrees), degrees=degrees), NoneAdversary())
    result.nodes[node - 1] = dataclasses.replace(result.nodes[node - 1], view=view)
    return result


def test_views_differing_by_a_zero_demand_agree_on_the_verdict():
    """Both views realize the one edge (1, 2): the view check reports
    them, the verdict check does not."""
    assert check_execution(_with_view((1, 1, 0, 0), 2, {1: 1, 2: 1, 3: 0})) == [
        "agreement: view disagreement between nodes 1 and 2: "
        "{1: 1, 2: 1, 3: 0, 4: 0} vs {1: 1, 2: 1, 3: 0}",
        "validity: node 2 has |D'|=3 < n-crashed=4",
        "validity: node 2 is missing degrees of non-crashed nodes [4]",
        "validity: node 2 holds None for surviving node 4, expected 0",
    ]


def test_two_unrealizable_views_agree_on_the_verdict():
    """Both degree sums are odd: two views, one verdict."""
    assert check_execution(_with_view((1, 1, 1, 0), 2, {1: 1, 2: 1, 3: 1, 4: 2})) == [
        "agreement: view disagreement between nodes 1 and 2: "
        "{1: 1, 2: 1, 3: 1, 4: 0} vs {1: 1, 2: 1, 3: 1, 4: 2}",
        "validity: node 2 holds 2 for surviving node 4, expected 0",
    ]


def test_realizable_and_unrealizable_views_disagree_on_the_verdict():
    assert check_execution(_with_view((1, 1, 0, 0), 2, {1: 1, 2: 1, 3: 1, 4: 0})) == [
        "agreement: view disagreement between nodes 1 and 2: "
        "{1: 1, 2: 1, 3: 0, 4: 0} vs {1: 1, 2: 1, 3: 1, 4: 0}",
        "agreement: verdict disagreement among exited nodes [1, 2, 3, 4]",
        "validity: node 2 holds 1 for surviving node 3, expected 0",
    ]


def _key_of(view):
    return harness._verdict_key(tuple(sorted(view.items())))


def test_verdict_key_classes_match_havel_hakimi_on_every_small_view():
    """Every view over ids in {1..4} with degrees in [0, 4], 1,296 in all,
    falls into the same 55 classes under the key as under the edge-set
    comparison of their Havel–Hakimi graphs."""
    views = [
        dict(zip(ids, degrees))
        for k in range(5)
        for ids in combinations(range(1, 5), k)
        for degrees in product(range(5), repeat=k)
    ]
    assert len(views) == 1296
    by_key: dict = {}
    reference: list[list[int]] = []  # classes, each a list of view indices
    for i, view in enumerate(views):
        by_key.setdefault(_key_of(view), []).append(i)
        for members in reference:
            if reference_verdicts_agree(views[members[0]], view):
                members.append(i)
                break
        else:
            reference.append([i])
    assert len(reference) == 55
    assert sorted(by_key.values()) == sorted(reference)


_ids = st.integers(min_value=1, max_value=40)
_demands = st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=14))


@settings(max_examples=300, deadline=None)
@given(
    a=st.dictionaries(_ids, _demands, max_size=12),
    b=st.dictionaries(_ids, _demands, max_size=12),
    zeros=st.lists(_ids, max_size=6),
    derived=st.booleans(),
)
def test_verdict_key_agrees_with_havel_hakimi_on_drawn_views(a, b, zeros, derived):
    """Views with sparse ids, zero demands and demands above n, up to 12
    entries: equal keys exactly when the Havel–Hakimi verdicts agree. A
    derived `b` is `a`'s nonzero demands and some zero demands, which
    agrees whenever `a` is realizable."""
    if derived:
        b = {i: d for i, d in a.items() if d}
        b.update((i, 0) for i in zeros[: 12 - len(b)] if i not in b)
    assert (_key_of(a) == _key_of(b)) == reference_verdicts_agree(a, b)


def test_large_cc_run_under_worst_adversary():
    """The benchmark's cc instance: n=1024 under the worst adversary with
    f=512, the one run that delivers broadcasts at scale."""
    config = SimConfig(n=1024, degrees=(256,) * 1024)
    result = run_simulation(config, WorstCaseAdversary(512))
    assert len(result.metrics.per_round_counts) == 1541
    assert result.metrics.messages_sent == 2_619_392
    assert check_execution(result) == []


def test_large_cc_check_builds_no_graph(monkeypatch):
    """The verdict check on the benchmark's cc run compares verdict keys:
    it calls no Havel–Hakimi, cached or not."""

    def tripwire(seq):
        raise AssertionError("check_execution called havel_hakimi")

    config = SimConfig(n=1024, degrees=(256,) * 1024)
    result = run_simulation(config, WorstCaseAdversary(512))
    harness._realize.cache_clear()
    monkeypatch.setattr(harness, "havel_hakimi", tripwire)
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


def _snapshot(engine: RoundEngine):
    """A deep copy of everything a round can change, each node's cohort
    record too."""
    nodes = [
        (n.view, n.flist, n._allokay_pending, n.next_emit, n.state, n._cohort)
        for n in engine.nodes
    ]
    return copy.deepcopy(
        (
            nodes,
            vars(engine.tally),
            engine.metrics,
            engine.round_log,
            engine.crashed_round,
            [[n.index for n in live] for live in engine._group_live],
        )
    )


def _scripted(*events: CrashEvent) -> ScriptedAdversary:
    return ScriptedAdversary(CrashPlan(events))


class TestFork:
    """A fork taken while a round waits at the adversary call steps on
    under its own, larger plan as a run of that plan from round 1 would,
    and leaves the engine it came from as it was: that engine also steps on
    as if never forked."""

    @pytest.mark.parametrize("model, n", [("cc", 5), ("ncc", 6)])
    @pytest.mark.parametrize("in_phase1", [True, False], ids=["phase1", "phase2"])
    def test_fork_leaves_its_origin_unchanged(self, model, n, in_phase1):
        config = SimConfig(n=n, degrees=(1, 2, 2, 1, 2, 1)[:n], model=model)
        phase1_len = RoundEngine(config, NoneAdversary()).nodes[0].phase1_len
        # Round 1's crash leaves mail in the tally.
        ours = (CrashEvent(1, 3, (1,)),)
        at = 1 if in_phase1 else phase1_len + 1
        theirs = ours + (
            CrashEvent(at + 1, 2, (1, 4)),
            CrashEvent(phase1_len + 3, 1, ()),
        )
        engine = RoundEngine(config, _scripted(*ours))
        while engine.round < at:
            engine.step()
        before = _snapshot(engine)
        live = [list(members) for members in engine._group_live]

        twin = engine.fork(_scripted(*theirs))
        assert (twin.tally is engine.tally) is not in_phase1
        assert twin.round_cap == RoundEngine(config, _scripted(*theirs)).round_cap
        assert twin.round_cap > engine.round_cap
        result = twin.run()

        assert _snapshot(engine) == before
        assert len(engine._group_live) == len(live)
        for members, kept in zip(engine._group_live, live):
            assert len(members) == len(kept)
            assert all(a is b for a, b in zip(members, kept))
        assert result == run_simulation(config, _scripted(*theirs))
        assert len(result.crashes) == 3
        assert engine.run() == run_simulation(config, _scripted(*ours))

    @pytest.mark.parametrize("model, n", [("cc", 5), ("ncc", 6)])
    @pytest.mark.parametrize("in_phase1", [True, False], ids=["phase1", "phase2"])
    def test_fork_crashes_a_node_in_its_waiting_round(self, model, n, in_phase1):
        """Round r's sends are made when the fork is taken, and its plan
        crashes round r's lowest sender, delivering to the first of that
        send's recipients. The last phase-1 round closes the tally, so a
        fork there must not share it."""
        config = SimConfig(n=n, degrees=(1, 2, 2, 1, 2, 1)[:n], model=model)
        phase1_len = RoundEngine(config, NoneAdversary()).nodes[0].phase1_len
        ours = (CrashEvent(1, 3, (1,)),)
        at = phase1_len if in_phase1 else phase1_len + 2
        engine = RoundEngine(config, _scripted(*ours))
        while engine.round < at:
            engine.step()
        assert len(engine.round_log) == at - 1
        sender, (_, sent) = min(engine.outboxes.items())
        theirs = ours + (CrashEvent(at, sender, (sent[0],)),)
        before = _snapshot(engine)

        twin = engine.fork(_scripted(*theirs))
        assert (twin.tally is engine.tally) is not in_phase1
        result = twin.run()

        assert _snapshot(engine) == before
        assert result == run_simulation(config, _scripted(*theirs))
        assert result.crashes[-1] == (at, sender, (sent[0],))
        assert engine.run() == run_simulation(config, _scripted(*ours))

    def test_step_on_a_finished_engine_changes_nothing(self):
        config = SimConfig(n=4, degrees=(1, 2, 2, 1))
        engine = RoundEngine(config, _scripted(CrashEvent(2, 1, (3,))))
        result = engine.run()
        before = (engine.round, list(engine.round_log), copy.deepcopy(engine.metrics))
        engine.step()
        assert (engine.round, engine.round_log, engine.metrics) == before
        assert engine.result() == result

    def test_fork_copies_every_mutable_attribute(self):
        """Whatever list, dict or set an engine, a node or an open tally
        holds, its fork holds a new one, but for the waiting round's sends
        and the recipient lists, which both share read-only."""
        config = SimConfig(n=5, degrees=(1, 2, 2, 1, 2))
        engine = RoundEngine(config, _scripted(CrashEvent(1, 3, (1,))))
        engine.step()
        twin = engine.fork(_scripted(CrashEvent(1, 3, (1,))))

        def fresh(new, old, shared=()):
            for name, value in vars(new).items():
                if isinstance(value, (list, dict, set)) and name not in shared:
                    assert value is not vars(old)[name], name

        assert twin.outboxes is engine.outboxes
        fresh(twin, engine, shared=("outboxes",))
        for new, old in zip(twin._group_live, engine._group_live, strict=True):
            assert new is not old
        fresh(twin.metrics, engine.metrics)
        fresh(twin.tally, engine.tally)
        assert twin.tally.mail[1] is not engine.tally.mail[1]
        for new, old in zip(twin.nodes, engine.nodes):
            assert new is not old
            fresh(new, old, shared=("_group_peers",))

        # After phase 1 each cohort record is copied once, the copies are
        # shared as the records are, and running the fork leaves the
        # records it came from as they were.
        while engine.round <= engine.nodes[0].phase1_len:
            engine.step()
        twin = engine.fork(_scripted(CrashEvent(1, 3, (1,))))
        records = {}
        for new, old in zip(twin.nodes, engine.nodes):
            if old._cohort is None:
                continue
            assert records.setdefault(id(old._cohort), new._cohort) is new._cohort
            assert new._cohort is not old._cohort
            for name in ("members", "view", "flist"):
                assert getattr(new._cohort, name) is not getattr(old._cohort, name), name
        assert len(records) < len(engine.nodes) - 1  # some record is shared
        before = _snapshot(engine)
        twin.run()
        assert _snapshot(engine) == before


class Forgetful(ProtocolNode):
    """Node 1 forgets, after phase 1, the degree of node 4, which it heard
    twice, and so rebroadcasts a smite for it in round 3."""

    def end_phase1(self, cohort):
        super().end_phase1(cohort)
        if self.index == 1:
            self.detach()
            del self._cohort.view[4]
            self.flist[4] = None


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
            def end_phase1(self, cohort):
                super().end_phase1(cohort)
                self.detach()
                self._cohort.heard, self._cohort.sender = self.phase1_len + 1, self.index

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

    def test_phase1_subject_heard_twice_and_never_in_ncc(self, monkeypatch):
        """In ncc every phase-1 copy is mail, so the exclusion check reads
        mail alone: node 3 mails node 1 in each of the four rounds."""

        class Narrowcaster(ProtocolNode):
            def _emit_phase1(self, rnd):
                send = super()._emit_phase1(rnd)
                return (self._announce, [1]) if self.index == 3 else send

        message = self.run_with(
            monkeypatch,
            Narrowcaster,
            SimConfig(n=4, degrees=(1, 1, 1, 1), model="ncc"),
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
        assert message == "node 2 heard degree 2 from node 1, which announced 1 before"

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
        assert message == "node 2 heard degree 2 from node 1, which announced 1 before"

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
                "node 1 heard degree 7 from node 5, which announced 1 before",
            ),
            (
                {(1, 1): (Announce(1, 1), [3]), (2, 1): (Announce(1, 2), [2])},
                "node 2 heard degree 2 from node 1, which announced 1 before",
            ),
        ],
        ids=[
            "broadcast-before-mail",
            "mail-by-receiver",
            "mailed-degree-change",
            "degree-its-reporter-heard",
        ],
    )
    def test_phase1_violation_reporter(self, monkeypatch, sends, expected):
        """A round's broadcasts are checked before its mail; a broadcast is
        reported by its sender's first live peer, mail by its receiver, the
        lowest receiver first, naming the degree that receiver heard. `sends`
        maps (round, node) to the message and recipients it sends instead,
        None meaning its whole peer list."""

        class Rogue(ProtocolNode):
            def _emit_phase1(self, rnd):
                msg, recipients = super()._emit_phase1(rnd)
                msg, to = sends.get((rnd, self.index), (msg, None))
                return msg, recipients if to is None else to

        message = self.run_with(
            monkeypatch, Rogue, SimConfig(n=5, degrees=(1,) * 5), NoneAdversary()
        )
        assert message == expected

    def test_phase1_violations_in_ncc_are_reported_in_receiver_order(
        self, monkeypatch
    ):
        """In round 1 of ncc n=9 node 1 sends to group 2 (nodes 5-8) and
        node 9 to group 1 (nodes 1-4), and both send a termination signal
        instead of their announcement: node 1 reads node 9's first."""

        class Impostor(ProtocolNode):
            def _emit_phase1(self, rnd):
                msg, recipients = super()._emit_phase1(rnd)
                if rnd == 1 and self.index in (1, 9):
                    msg = AllOkay(self.index)
                return msg, recipients

        message = self.run_with(
            monkeypatch,
            Impostor,
            SimConfig(n=9, degrees=(1,) * 9, model="ncc"),
            NoneAdversary(),
        )
        assert message == "node 1 got AllOkay during phase 1"

    def test_broadcast_violation_names_the_lowest_listener(self, monkeypatch):
        class Tampered(ProtocolNode):
            def end_phase1(self, cohort):
                super().end_phase1(cohort)
                if self.index in (3, 5):
                    self.detach()
                    self._cohort.view[6] = 1

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

    class Shouter(ProtocolNode):
        """In round 1 node 1 mails its announcement to all 8 peers. ncc n=9
        has groups of 4, so a node may send 4 messages a round."""

        def _emit_phase1(self, rnd):
            send = super()._emit_phase1(rnd)
            if self.index == 1 and rnd == 1:
                return send[0], list(range(2, 10))
            return send

    def test_send_over_capacity(self, monkeypatch):
        message = self.run_with(
            monkeypatch,
            self.Shouter,
            SimConfig(n=9, degrees=(1,) * 9, model="ncc"),
            NoneAdversary(),
        )
        assert message == "node 1 sent 8 messages in round 1, capacity 4"

    class Crowder(ProtocolNode):
        """In round 1 nodes 1-4 mail their announcement to node 9 instead of
        group 2 (nodes 5-8). In ncc n=9 (groups 1-4, 5-8 and 9, capacity 4)
        node 9 hears nodes 5-8 in that round as well, so eight copies meet a
        capacity of four."""

        def _emit_phase1(self, rnd):
            send = super()._emit_phase1(rnd)
            return (send[0], [9]) if rnd == 1 and self.index <= 4 else send

    def test_over_full_inbox_drops_the_highest_senders(self, monkeypatch):
        handed = {}

        class Recorder(self.Crowder):
            def end_phase1(self, cohort):
                super().end_phase1(cohort)
                handed[self.index] = (dict(self.view), dict(self.flist))

        monkeypatch.setattr("cliquesim.engine.ProtocolNode", Recorder)
        result = run_simulation(
            SimConfig(n=9, degrees=(1,) * 9, model="ncc"), NoneAdversary()
        )
        assert result.metrics.dropped_messages == 4
        assert result.metrics.max_recv_per_round == 8
        # Node 9 kept round 1's lowest senders, nodes 1-4, and heard them
        # again in both sweeps; it heard nodes 5-8 only in their second.
        assert handed[9] == ({1: 1, 2: 1, 3: 1, 4: 1, 9: 1}, {5: 1, 6: 1, 7: 1, 8: 1})

    def test_largest_inbox_adds_group_sends_and_partial_delivery(self):
        """In round 1 of strict ncc n=9 (groups 1-4, 5-8 and 9, capacity 4)
        node 1 crashes silently and node 6 crashes reaching node 9 alone.
        Node 9 then gets the sends of nodes 5, 7 and 8 to its group and
        node 6's partial delivery; no other node gets more than three
        messages in any round."""
        config = SimConfig(n=9, degrees=(1,) * 9, model="ncc", strict=True)
        plan = CrashPlan((CrashEvent(1, 1, ()), CrashEvent(1, 6, (9,))))
        result = run_simulation(config, ScriptedAdversary(plan))
        largest, crashed = 0, set()
        for log in result.round_log:
            delivered = dict(log.crashes)
            crashed.update(delivered)
            inbox_sizes: dict[int, int] = {}
            for sender, (_, recipients) in log.sends.items():
                for j in delivered.get(sender, recipients):
                    inbox_sizes[j] = inbox_sizes.get(j, 0) + 1
            live = [size for j, size in inbox_sizes.items() if j not in crashed]
            largest = max([largest, *live])
        assert result.metrics.max_recv_per_round == largest == 4
        assert result.metrics.dropped_messages == 0

    def test_strict_over_full_inbox_raises(self, monkeypatch):
        monkeypatch.setattr("cliquesim.engine.ProtocolNode", self.Crowder)
        config = SimConfig(n=9, degrees=(1,) * 9, model="ncc", strict=True)
        with pytest.raises(CapacityViolation) as excinfo:
            run_simulation(config, NoneAdversary())
        assert str(excinfo.value) == "node 9 dropped 4 messages in round 1"

    def test_violation_carries_the_round_log(self, monkeypatch):
        """The round that raised is logged too, with the send that broke the
        invariant."""
        monkeypatch.setattr("cliquesim.engine.ProtocolNode", Forgetful)
        config = SimConfig(n=4, degrees=(1, 1, 1, 1))
        with pytest.raises(ProtocolViolation) as excinfo:
            run_simulation(config, NoneAdversary())
        log = excinfo.value.round_log
        assert len(log) == 3
        assert log[-1].sends == {1: (FaultEntry(1, 4, SMITE, None), [2, 3, 4])}

    def test_raising_round_keeps_its_whole_crash_record(self, monkeypatch):
        """Node 1's send, the first of round 1, breaks capacity, and nodes
        5 and 7 crash in that round delivering nothing: the logged round
        holds both crashes all the same."""
        monkeypatch.setattr("cliquesim.engine.ProtocolNode", self.Shouter)
        config = SimConfig(n=9, degrees=(1,) * 9, model="ncc")
        plan = CrashPlan((CrashEvent(1, 5, ()), CrashEvent(1, 7, ())))
        with pytest.raises(ProtocolViolation, match="node 1 sent 8") as excinfo:
            run_simulation(config, ScriptedAdversary(plan))
        assert excinfo.value.round_log[-1].crashes == [(5, ()), (7, ())]

    @pytest.mark.parametrize(
        "shouter, expected",
        [
            (1, "node 2 got Announce after phase 1"),
            (2, "node 1 got Announce after phase 1"),
        ],
        ids=["lone-broadcast", "beside-another-send"],
    )
    def test_announcement_after_phase1(self, monkeypatch, shouter, expected):
        """In round 3 of a fault-free cc n=4 run, node `shouter` announces a
        degree instead of its own send. Node 1's announcement is the round's
        only send, a broadcast that one `hear` call applies to every live
        node; node 2's goes beside node 1's AllOkay, so both travel as mail
        to `receive`. Either way the first listener that is not the sender
        reports it."""

        class LateAnnouncer(ProtocolNode):
            def end_phase1(self, cohort):
                super().end_phase1(cohort)
                if self.index == shouter:
                    self.detach()
                    self._cohort.heard, self._cohort.sender = 3, self.index

            def emit(self, rnd):
                if self.index == shouter and rnd == 3:
                    return Announce(self.index, 9), self._group_peers[0]
                return super().emit(rnd)

        message = self.run_with(
            monkeypatch,
            LateAnnouncer,
            SimConfig(n=4, degrees=(1, 1, 1, 1)),
            NoneAdversary(),
        )
        assert message == expected

    def test_violations_after_phase1_in_ncc_are_reported_in_receiver_order(
        self, monkeypatch
    ):
        """In round 7 of ncc n=9 (groups 1-4, 5-8 and 9) node 1 announces a
        degree to group 2 and node 9 to group 1. A later round with two
        group sends goes per recipient, so node 1 reads node 9's
        announcement before nodes 5-8 read node 1's."""

        class LateAnnouncers(ProtocolNode):
            def end_phase1(self, cohort):
                super().end_phase1(cohort)
                if self.index in (1, 9):
                    self.detach()
                    self._cohort.heard, self._cohort.sender = 7, self.index

            def emit(self, rnd):
                if self.index in (1, 9) and rnd == 7:
                    group = 2 if self.index == 1 else 1
                    return Announce(self.index, 9), self._group_peers[group - 1]
                return super().emit(rnd)

        message = self.run_with(
            monkeypatch,
            LateAnnouncers,
            SimConfig(n=9, degrees=(1,) * 9, model="ncc"),
            NoneAdversary(),
        )
        assert message == "node 1 got Announce after phase 1"

    def test_smite_rebroadcast_for_subject_heard_twice(self, monkeypatch):
        message = self.run_with(
            monkeypatch,
            Forgetful,
            SimConfig(n=4, degrees=(1, 1, 1, 1)),
            NoneAdversary(),
        )
        assert message == (
            "smite rebroadcast for node 4, which node 1 heard twice in phase 1"
        )

    def test_smite_rebroadcast_witness_heard_twice_by_mail(self, monkeypatch):
        """Node 4 broadcasts in round 1 and mails nodes 3 and 2 in round 2,
        so mail completes its two copies at nodes 2 and 3: the witness is
        node 2, the first in index order. Node 1 heard it once, but then
        takes it for a smite and rebroadcasts that in round 3."""

        class MailedTwice(ProtocolNode):
            def _emit_phase1(self, rnd):
                send = super()._emit_phase1(rnd)
                return (self._announce, [3, 2]) if (rnd, self.index) == (2, 4) else send

            def end_phase1(self, cohort):
                super().end_phase1(cohort)
                if self.index == 1:
                    self.detach()
                    self.flist[4] = None

        message = self.run_with(
            monkeypatch,
            MailedTwice,
            SimConfig(n=4, degrees=(1, 1, 1, 1)),
            NoneAdversary(),
        )
        assert message == (
            "smite rebroadcast for node 4, which node 2 heard twice in phase 1"
        )

    @pytest.mark.parametrize(
        "plan, witness",
        [((), 1), ((CrashEvent(6, 4, (3,)),), 3)],
        ids=["fault-free", "partial-delivery"],
    )
    def test_smite_rebroadcast_witness_in_ncc(self, monkeypatch, plan, witness):
        """In ncc n=9 (groups 1-4, 5-8 and 9) node 1 takes node 4 for a
        smite after phase 1 and rebroadcasts it in round 7. Fault-free,
        node 1 heard node 4 twice itself. When node 4 crashes in round 6,
        its second send to its own group reaching only node 3, nodes 1 and
        2 heard it once, and node 3 completed its two copies by mail."""

        class ForgetsFour(ProtocolNode):
            def end_phase1(self, cohort):
                super().end_phase1(cohort)
                if self.index == 1:
                    self.detach()
                    self._cohort.view.pop(4, None)
                    self.flist[4] = None

        message = self.run_with(
            monkeypatch,
            ForgetsFour,
            SimConfig(n=9, degrees=(1,) * 9, model="ncc"),
            ScriptedAdversary(CrashPlan(plan)),
        )
        assert message == (
            f"smite rebroadcast for node 4, which node {witness} heard twice "
            "in phase 1"
        )
