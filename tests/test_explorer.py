"""The schedule explorer in `verify_exhaustive` against the brute-force
oracle it replaced: one run of every `PlanSpace` plan.

Each plan's effective crash log is what its run actually does: the crashes
in rounds the engine reached, each delivering to its mask cut down to the
recipients the crasher really had. The explorer runs each such log once and
weights it by the plans it stands for, so both sides must agree on the set
of logs, on the plan count, on the number of violating plans and on the
round and message maxima, with no mutation and with each `MUTATE_*` rule.
The workers=2 report must equal the serial one.

Each explored run resumes from a fork of its parent run; each must equal
a run of its crash log from round 1.

Past the oracle's reach, the explorer is checked against itself: a horizon
at the engine's round cap already branches every run to its end, and the
runs it explores do not depend on the degree values.
"""

import pytest

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
    ProtocolNode,
)

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
    every plan of the space."""
    logs = set()
    violating = max_rounds = max_messages = 0
    for plan in PlanSpace(config.n, f, HORIZON):
        adversary = EffectiveLog(plan)
        issues, rounds, messages, _ = run_plan(config, adversary)
        logs.add(tuple(adversary.log))
        violating += bool(issues)
        max_rounds = max(max_rounds, rounds)
        max_messages = max(max_messages, messages)
    return logs, violating, max_rounds, max_messages


def explored(config: SimConfig, f: int, monkeypatch, horizon: int = HORIZON):
    """The explorer's report and, for every run it made, its crash log,
    rounds and messages."""
    runs = []

    def spy(config, adversary, engine=None):
        outcome = run_plan(config, adversary, engine)
        runs.append((adversary.plan.events, *outcome[1:3]))
        return outcome

    with monkeypatch.context() as patch:
        patch.setattr(harness, "run_plan", spy)
        report = verify_exhaustive(config, f=f, horizon=horizon, workers=1)
    return report, runs


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
    assert verify_exhaustive(config, f=f, horizon=HORIZON, workers=2) == report


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
        report = verify_exhaustive(config, f=2, horizon=HORIZON)
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
    3,530 children at cc n=4, f<=2 re-emitted 7,340 sends: 17,479 calls."""
    calls = []
    emit = ProtocolNode.emit

    def counted(node, rnd):
        calls.append(rnd)
        return emit(node, rnd)

    monkeypatch.setattr(ProtocolNode, "emit", counted)
    config = SimConfig(n=4, degrees=(1, 2, 2, 1))
    report = verify_exhaustive(config, f=2, horizon=HORIZON)
    assert report.ok and report.runs == 3531
    assert len(calls) == 10139


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
