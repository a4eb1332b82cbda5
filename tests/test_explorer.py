"""The schedule explorer against the brute-force oracle it replaced, one
run of every `PlanSpace` plan, and `verify_exhaustive`'s memo against the
explorer without it, `oracles.reference_verify_exhaustive`.

Each plan's effective crash log is what its run actually does: the crashes
in rounds the engine reached, each delivering to its mask cut down to the
recipients the crasher really had. The reference explorer runs each such
log once and weights it by the plans it stands for, so both sides must
agree on the set of logs, on the plan count, on the number of violating
plans and on the round and message maxima, with no mutation and with each
`MUTATE_*` rule. Each explored run resumes from a fork of its parent run;
each must equal a run of its crash log from round 1. Past the oracle's
reach, the reference is checked against itself: a horizon at the engine's
round cap already branches every run to its end, and the runs it explores
do not depend on the degree values.

`verify_exhaustive` steps each distinct state a child log reaches after its
crash round once and replays the subtree below it from a memo. Its report
must equal the reference's, serial, on 2 workers and with `stop_on_first`,
also where a tight message bound makes the memo refuse an entry. The key
must cover every field of `ProtocolNode`, its `Cohort` record and
`RoundEngine` that it does not say it leaves out.
"""

import dataclasses
import marshal
import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquesim import harness
from cliquesim.adversary import (
    CrashEvent,
    CrashPlan,
    NoneAdversary,
    PlanSpace,
    ScriptedAdversary,
)
from cliquesim.engine import AdversaryError, RoundEngine, SimConfig
from cliquesim.harness import run_plan, verify_exhaustive
from cliquesim.protocol import (
    MUTATE_BELOW_FOLD_DISCARDS,
    MUTATE_NO_HEARD_ONCE_UPDATE,
    Cohort,
    NodeState,
    ProtocolNode,
)

from oracles import reference_verify_exhaustive

HORIZON = 14
MUTATIONS = (None, MUTATE_BELOW_FOLD_DISCARDS, MUTATE_NO_HEARD_ONCE_UPDATE)
INSTANCES = [
    pytest.param(3, 2, (1, 1, 2), "cc", id="n3"),
    pytest.param(4, 2, (1, 2, 2, 1), "cc", id="n4", marks=pytest.mark.slow),
    pytest.param(3, 2, (1, 1, 2), "ncc", id="ncc-n3", marks=pytest.mark.slow),
    pytest.param(5, 1, (1, 2, 2, 1, 2), "cc", id="n5-f1"),
    pytest.param(5, 1, (1, 2, 2, 1, 2), "ncc", id="ncc-n5-f1"),
]


class EffectiveLog(ScriptedAdversary):
    """Plays a plan and writes down each crash the engine applies, with the
    recipients that really got the crasher's send that round."""

    def __init__(self, plan: CrashPlan):
        super().__init__(plan)
        self.log: list[CrashEvent] = []

    def decide(self, engine, rnd: int):
        decisions = super().decide(engine, rnd)
        for node, delivered in sorted((decisions or {}).items()):
            _, recipients = engine.outboxes.get(node, (None, ()))
            kept = tuple(j for j in recipients if j in delivered)
            self.log.append(CrashEvent(rnd, node, kept))
        return decisions


def brute_force(config: SimConfig, f: int):
    """(effective logs, violating plans, max rounds, max messages) over
    every plan of the space, its plans dealt out in turn to up to two
    processes and their parts merged."""
    workers = min(2, os.cpu_count() or 1)
    parts = [(config, f, start, workers) for start in range(workers)]
    if workers > 1:
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            parts = pool.starmap(brute_force_part, parts)
    else:
        parts = [brute_force_part(*part) for part in parts]
    logs, violating, max_rounds, max_messages = zip(*parts)
    return set().union(*logs), sum(violating), max(max_rounds), max(max_messages)


def brute_force_part(config: SimConfig, f: int, start: int, step: int):
    """`brute_force` over every `step`-th plan of the space from `start`."""
    logs = set()
    violating = max_rounds = max_messages = 0
    plans = PlanSpace(config.n, f, HORIZON)
    for index in range(start, len(plans), step):
        adversary = EffectiveLog(plans[index])
        issues, rounds, messages, _ = run_plan(config, adversary)
        logs.add(tuple(adversary.log))
        violating += bool(issues)
        max_rounds = max(max_rounds, rounds)
        max_messages = max(max_messages, messages)
    return logs, violating, max_rounds, max_messages


def spied(explore, monkeypatch):
    """`explore()`'s report and, for every run it made through `run_plan`,
    its crash log, rounds and messages."""
    runs = []

    def spy(config, adversary, engine=None):
        outcome = run_plan(config, adversary, engine)
        runs.append((adversary.plan.events, *outcome[1:3]))
        return outcome

    with monkeypatch.context() as patch:
        patch.setattr(harness, "run_plan", spy)
        report = explore()
    return report, runs


def explored(config: SimConfig, f: int, monkeypatch, horizon: int = HORIZON):
    """The reference explorer's report and, for every run it made, its
    crash log, rounds and messages."""
    return spied(lambda: reference_verify_exhaustive(config, f, horizon), monkeypatch)


def round_cap(config: SimConfig, f: int) -> int:
    """The engine's watchdog: no run with up to f crashes lasts longer."""
    return RoundEngine(config, NoneAdversary(f)).round_cap


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("n, f, degrees, model", INSTANCES)
def test_explorer_matches_brute_force(n, f, degrees, model, mutation, monkeypatch):
    mutations = frozenset({mutation}) if mutation else frozenset()
    config = SimConfig(n=n, degrees=degrees, model=model, mutations=mutations)
    logs, violating, max_rounds, max_messages = brute_force(config, f)
    report, runs = explored(config, f, monkeypatch)

    assert len(runs) == len(set(runs)) == report.runs
    assert {events for events, _, _ in runs} == logs
    assert report.plans_total == report.executions_run == len(PlanSpace(n, f, HORIZON))
    assert report.violating_plans == violating
    assert len(report.violations) == len({events for events, _ in report.violations})
    assert (report.max_rounds, report.max_messages) == (max_rounds, max_messages)
    for workers in (1, 2):
        assert verify_exhaustive(config, f=f, horizon=HORIZON, workers=workers) == report


def test_horizon_past_the_round_cap_adds_no_run(monkeypatch):
    """At ncc n=4, f<=2 runs last up to 27 rounds, so horizon 14 leaves
    crash logs untried. The round cap, 160 rounds, is as far as any run
    goes, so a horizon there branches every run to its end, and one of
    1,000 finds nothing more. The plan count stays exact throughout."""
    config = SimConfig(n=4, degrees=(1, 2, 2, 1), model="ncc")
    assert round_cap(config, 2) == 160
    reports = {}
    for horizon in (HORIZON, 160, 1000):
        report, runs = explored(config, 2, monkeypatch, horizon=horizon)
        assert report.ok and report.executions_run == report.plans_total
        reports[horizon] = report.runs, set(runs)
    assert reports[HORIZON][0] == 2437
    assert reports[160] == reports[1000] and reports[160][0] == 2605


@pytest.mark.parametrize(
    "model, n",
    [
        pytest.param("cc", 3, id="cc-n3"),
        pytest.param("ncc", 3, id="ncc-n3"),
        pytest.param("cc", 4, id="cc-n4", marks=pytest.mark.slow),
        pytest.param("ncc", 4, id="ncc-n4", marks=pytest.mark.slow),
    ],
)
def test_explored_runs_do_not_depend_on_degrees(model, n, monkeypatch):
    """No protocol branch tests a degree value, so explored to termination
    two degree lists give the same crash logs with the same rounds and
    messages: data independence (Wolper, POPL 1986)."""
    explorations = []
    for degrees in ((1, 2, 2, 1)[:n], tuple(range(n))):
        config = SimConfig(n=n, degrees=degrees, model=model)
        horizon = round_cap(config, 2)
        explorations.append(set(explored(config, 2, monkeypatch, horizon)[1]))
    assert explorations[0] == explorations[1]


@pytest.mark.parametrize("mutation", [None, MUTATE_NO_HEARD_ONCE_UPDATE])
@pytest.mark.parametrize("model", ["cc", "ncc"])
def test_forked_runs_match_runs_from_round_1(model, mutation, monkeypatch):
    """Every explored run but the first resumes from a fork of its parent.
    It must end as a run of the same crash log from round 1 does, with the
    same issues, rounds, messages and round log."""
    mutations = frozenset({mutation}) if mutation else frozenset()
    config = SimConfig(n=4, degrees=(1, 2, 2, 1), model=model, mutations=mutations)
    runs = []

    def spy(config, adversary, engine=None):
        outcome = run_plan(config, adversary, engine)
        runs.append((adversary.plan.events, engine is not None, outcome))
        return outcome

    with monkeypatch.context() as patch:
        patch.setattr(harness, "run_plan", spy)
        report = reference_verify_exhaustive(config, 2, HORIZON)
    assert len(runs) == report.runs
    assert sum(forked for _, forked, _ in runs) == report.runs - 1
    assert any(outcome[0] for _, _, outcome in runs) == bool(mutation)
    for events, _, outcome in runs:
        assert run_plan(config, ScriptedAdversary(CrashPlan(events))) == outcome


def test_a_run_that_trips_the_round_cap_branches_only_at_logged_rounds(
    monkeypatch,
):
    """With the round cap cut to 6, runs that last longer raise before
    round 7's sends, so round 7 never reaches the adversary call and no
    fork is kept for it: no child branches there."""
    set_adversary = RoundEngine._set_adversary

    def capped(engine, adversary):
        set_adversary(engine, adversary)
        engine.round_cap = 6

    monkeypatch.setattr(RoundEngine, "_set_adversary", capped)
    config = SimConfig(n=3, degrees=(1, 1, 2))
    report = verify_exhaustive(config, f=2, horizon=HORIZON)
    assert report.executions_run == 9577
    assert (report.runs, len(report.violations)) == (544, 372)
    assert report.violations[0][1][0].startswith("RoundLimitExceeded: ")


def test_children_do_not_re_emit_their_branch_round(monkeypatch):
    """A child resumes from its parent's fork at the adversary call of its
    branch round, whose sends are made. Forked before them instead, the
    3,530 children at cc n=4, f<=2 re-emitted 7,340 sends: 17,479 calls.
    Without the memo, which steps on only from distinct states, the same
    3,531 logs made 10,139 calls."""
    calls = []
    emit = ProtocolNode.emit

    def counted(node, rnd):
        calls.append(rnd)
        return emit(node, rnd)

    monkeypatch.setattr(ProtocolNode, "emit", counted)
    config = SimConfig(n=4, degrees=(1, 2, 2, 1))
    report = verify_exhaustive(config, f=2, horizon=HORIZON)
    assert report.ok and report.runs == 3531
    assert len(calls) == 3881


@pytest.mark.parametrize("mutation", MUTATIONS[1:])
def test_reported_violations_reproduce(mutation):
    config = SimConfig(n=4, degrees=(1, 2, 2, 1), mutations=frozenset({mutation}))
    report = verify_exhaustive(config, f=2, horizon=HORIZON)
    assert report.violations
    for events, issues in report.violations:
        assert run_plan(config, ScriptedAdversary(CrashPlan(events)))[0] == issues
    stopped = verify_exhaustive(config, f=2, horizon=HORIZON, stop_on_first=True)
    assert stopped.violations and stopped.executions_run < report.executions_run


def test_stop_on_first_ends_at_a_violating_root_run(monkeypatch):
    """With a message bound of 0 the crash-free run already violates it, so
    the search stops there."""
    monkeypatch.setattr(harness, "message_bound", lambda *counts: 0)
    config = SimConfig(n=4, degrees=(1, 2, 2, 1))
    report = verify_exhaustive(config, f=2, horizon=HORIZON, stop_on_first=True)
    assert report.runs == 1
    [(events, issues)] = report.violations
    assert events == () and issues[0].startswith("messages: ")


def test_run_plan_raises_a_plan_the_engine_rejects():
    """A plan that crashes an unknown node is the caller's error: `run_plan`
    raises it instead of reporting it as one of the run's issues."""
    config = SimConfig(n=4, degrees=(1, 2, 2, 1))
    plan = CrashPlan((CrashEvent(1, 9, ()),))
    with pytest.raises(AdversaryError, match="crash of unknown node 9"):
        run_plan(config, ScriptedAdversary(plan))


# -- the memo against the reference explorer -----------------------------------


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("n, f, degrees, model", INSTANCES)
def test_stop_on_first_stops_where_the_reference_stops(n, f, degrees, model, mutation):
    """The brute-force test compares the full reports. With `stop_on_first`
    the search ends at its first violating run, so no entry holding a
    violation is made or replayed, and the search must stop at the
    reference's first violating log with the same counts."""
    mutations = frozenset({mutation}) if mutation else frozenset()
    config = SimConfig(n=n, degrees=degrees, model=model, mutations=mutations)
    expected = reference_verify_exhaustive(config, f, HORIZON, stop_on_first=True)
    for workers in (1, 2):
        report = verify_exhaustive(
            config, f=f, horizon=HORIZON, workers=workers, stop_on_first=True
        )
        assert report == expected, workers


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_memo_gives_the_reference_report_on_drawn_instances(data):
    n = data.draw(st.integers(1, 4), label="n")
    degrees = tuple(data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n), label="degrees"))
    model = data.draw(st.sampled_from(["cc", "ncc"]), label="model")
    mutation = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    f = data.draw(st.integers(0, min(n - 1, 2)), label="f")
    horizon = data.draw(st.integers(1, 30), label="horizon")
    stop_on_first = data.draw(st.booleans(), label="stop_on_first")
    config = SimConfig(
        n=n,
        degrees=degrees,
        model=model,
        strict=data.draw(st.booleans(), label="strict"),
        mutations=frozenset({mutation}) if mutation else frozenset(),
    )
    report = verify_exhaustive(config, f=f, horizon=horizon, stop_on_first=stop_on_first)
    assert report == reference_verify_exhaustive(config, f, horizon, stop_on_first)


def test_distinct_states_are_stepped_once(monkeypatch):
    """At cc n=4, f<=2 the 3,530 child logs reach 1,047 distinct states at
    the end of their crash rounds. Only the root run and those go through
    `run_plan`; the other 2,483 logs replay a memo entry."""
    config = SimConfig(n=4, degrees=(1, 2, 2, 1))
    report, runs = spied(lambda: verify_exhaustive(config, f=2, horizon=HORIZON), monkeypatch)
    assert (report.runs, len(runs)) == (3531, 1048)


@pytest.mark.parametrize("tighter", [3, 6])
def test_a_prefix_that_breaks_the_message_bound_is_stepped(tighter, monkeypatch):
    """Message counts stay out of the key, so a state can be reached again
    with more messages sent. With the bound cut by a few messages, some of
    the runs below such a state break it only after the later prefix: the
    memo must refuse that entry and step the subtree, as the reference
    runs it. Replayed instead, those runs would count as good."""
    bound = harness.message_bound
    monkeypatch.setattr(harness, "message_bound", lambda *counts: bound(*counts) - tighter)
    config = SimConfig(n=3, degrees=(1, 1, 2))
    expected = reference_verify_exhaustive(config, 2, HORIZON)
    assert 0 < expected.violating_plans < expected.executions_run
    assert verify_exhaustive(config, f=2, horizon=HORIZON) == expected


@pytest.mark.parametrize("mutation", MUTATIONS[1:])
def test_entries_holding_violations_are_replayed(mutation, monkeypatch):
    """Under each mutation the full search replays entries that hold
    violations: it lists more violating logs than its runs found. So
    `stop_on_first` would cut such an entry short, had one been made."""
    config = SimConfig(n=4, degrees=(1, 2, 2, 1), mutations=frozenset({mutation}))
    full, runs = spied(lambda: verify_exhaustive(config, f=2, horizon=HORIZON), monkeypatch)
    found = {events for events, _, _ in runs} & {events for events, _ in full.violations}
    assert len(found) < len(full.violations)


# -- the key covers every field -------------------------------------------------

# A field `ProtocolNode.key` reads of a live node, and a value no fresh node
# holds.
NODE_KEYED = {
    "state": NodeState.EXIT,
    "_timer": 99,
    "exit_round": 99,
    "current_subject": 9,
    "sends_done": 9,
    "allokay_broadcast": True,
    "_allokay_pending": [[1]],
}
# A field it reads of a crashed node, and a value no exited node holds.
NODE_CRASH_KEYED = {
    "exit_round": 99,
    "allokay_broadcast": True,
    "_frozen": ({9: 9}, {}),
}
# A field it leaves out, and why.
NODE_LEFT_OUT = {
    "index": "the node's place in the run",
    "degree": "fixed by the config",
    "layout": "fixed by the config",
    "mutations": "fixed by the config",
    "phase1_len": "fixed by the layout",
    "gap": "fixed by the layout",
    "copies_per_entry": "fixed by the layout",
    "_group": "fixed by the layout and index",
    "_group_peers": "fixed by the layout and index",
    "_announce": "fixed by the index and degree",
    "_cohort": "read through the fields of COHORT_KEYED",
}
# A field of a listener's `Cohort` record that its key reads, and a value
# no record of node 2 holds after a fault-free phase 1 of n=4.
COHORT_KEYED = {
    "view": {2: 2, 9: 9},
    "flist": {9: None},
    "heard": 99,
    "sender": 2,
    "window": (9, 9),
    "window_count": 2,
}
COHORT_LEFT_OUT = {
    "members": "which live nodes share the record, not what any of them holds",
}
# A field `RoundEngine.key` reads, and a change to a fork at round 1.
ENGINE_KEYED = {
    "round": lambda e: setattr(e, "round", 2),
    "crashed_round": lambda e: e.crashed_round.update({4: 1}),
    "outboxes": lambda e: setattr(e, "outboxes", {}),
    "_moved": lambda e: e._moved.update({1: "exit"}),
    "_due": lambda e: e._due.pop(),
    "nodes": lambda e: setattr(e.nodes[0], "next_emit", 99),
    "tally": lambda e: e.tally.count[0].__setitem__(1, 1),
    "_unsettled": lambda e: e._unsettled.discard(1),
}
ENGINE_LEFT_OUT = {
    "config": "the same for every run of a verify call",
    "layout": "fixed by the config",
    "capacity": "fixed by the config",
    "_phase1_len": "fixed by the config",
    "adversary": "each run's own; the crashes it makes are in the key",
    "budget": "fixed by the verify call",
    "round_cap": "fixed by the config and budget",
    "_group_live": "the live nodes, fixed by the crashed set",
    "_cohorts": "the records the nodes hold, which their keys read",
    "_gap": "fixed by the config",
    "metrics": "nothing later reads them; message counts are handled apart",
    "round_log": "nothing later reads it",
}


def test_node_key_covers_every_field():
    engine = RoundEngine(SimConfig(n=4, degrees=(1, 2, 2, 1)), NoneAdversary())
    node = engine.nodes[1]
    keyed = NODE_KEYED.keys() | NODE_CRASH_KEYED.keys()
    assert set(vars(node)) == keyed | NODE_LEFT_OUT.keys()
    for name, value in NODE_KEYED.items():
        twin = node.fork()
        setattr(twin, name, value)
        assert twin.key() != node.key(), name
    # A crashed node keeps only what the run's check reads of it: its view
    # only if it exited.
    exited = node.fork()
    exited.exit_round = 3
    for name, value in NODE_CRASH_KEYED.items():
        twin = exited.fork()
        setattr(twin, name, value)
        assert twin.key(crashed=True) != exited.key(crashed=True), name
    twin = node.fork()
    twin._frozen, twin._timer = NODE_CRASH_KEYED["_frozen"], 99
    assert twin.key(crashed=True) == node.key(crashed=True)
    # After phase 1 a listener's view, list, window and timer are its record's.
    while engine.round <= engine._phase1_len:
        engine.step()
    node = engine.nodes[1]
    fields = {f.name for f in dataclasses.fields(Cohort)}
    assert fields == COHORT_KEYED.keys() | COHORT_LEFT_OUT.keys()
    for name, value in COHORT_KEYED.items():
        twin = node.fork()
        setattr(twin._cohort, name, value)
        # As `RoundEngine.key` packs it: the view's order counts too.
        assert marshal.dumps(twin.key(), 2) != marshal.dumps(node.key(), 2), name
    # A crash keeps the node's view as its own, and it leaves its record.
    frozen = node.fork()
    record = frozen._cohort
    frozen.freeze()
    assert frozen._cohort is None and frozen.view == node.view
    assert frozen.index not in record.members


def test_engine_key_covers_every_field():
    config = SimConfig(n=4, degrees=(1, 2, 2, 1))
    engine = RoundEngine(config, NoneAdversary(2))
    assert set(vars(engine)) == ENGINE_KEYED.keys() | ENGINE_LEFT_OUT.keys()
    for name, change in ENGINE_KEYED.items():
        twin = engine.fork(NoneAdversary(2))
        change(twin)
        assert twin.key() != engine.key(), name
    twin = engine.fork(NoneAdversary(2))
    twin.metrics.messages_sent += 5
    assert twin.key() == engine.key()
    # Once phase 1 closes, the tally's `heard_twice` is what later rounds read.
    while engine.round <= engine._phase1_len:
        engine.step()
    twin = engine.fork(NoneAdversary(2))
    twin.tally = engine.tally.fork()  # a fork shares the closed tally
    twin.tally.heard_twice[9] = 9
    assert twin.key() != engine.key()


@pytest.mark.parametrize("cpus, asked, started", [(2, 5000, 2), (4, 3, 3), (1, 8, None)])
def test_the_pool_never_outgrows_the_cpu_count(cpus, asked, started, monkeypatch):
    """The report does not depend on the worker count, so `verify` starts
    at most one process per CPU, and none on a machine of one. The pool is
    a stand-in that covers each task in this process."""
    sizes = []

    class InProcessPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks, chunksize=1):
            return map(func, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(harness, "_worker", None)
    config = SimConfig(n=3, degrees=(1, 1, 2))
    report = verify_exhaustive(config, f=1, horizon=HORIZON, workers=asked)
    assert sizes == ([] if started is None else [started])
    assert report == verify_exhaustive(config, f=1, horizon=HORIZON)
