"""The schedule explorer in `verify_exhaustive` against the brute-force
oracle it replaced: one run of every `PlanSpace` plan.

Each plan's effective crash log is what its run actually does: the crashes
in rounds the engine reached, each delivering to its mask cut down to the
recipients the crasher really had. The explorer runs each such log once and
weights it by the plans it stands for, so both sides must agree on the set
of logs, on the number of violating plans and on the round and message
maxima, with no mutation and with each `MUTATE_*` rule. The workers=2
report must equal the serial one.
"""

import pytest

from cliquesim import harness
from cliquesim.adversary import CrashEvent, CrashPlan, PlanSpace, ScriptedAdversary
from cliquesim.engine import AdversaryError, SimConfig
from cliquesim.harness import run_plan, verify_exhaustive
from cliquesim.protocol import MUTATE_BELOW_FOLD_DISCARDS, MUTATE_NO_HEARD_ONCE_UPDATE

HORIZON = 14
MUTATIONS = (None, MUTATE_BELOW_FOLD_DISCARDS, MUTATE_NO_HEARD_ONCE_UPDATE)
INSTANCES = [
    pytest.param(3, (1, 1, 2), "cc", id="n3"),
    pytest.param(4, (1, 2, 2, 1), "cc", id="n4", marks=pytest.mark.slow),
    pytest.param(3, (1, 1, 2), "ncc", id="ncc-n3", marks=pytest.mark.slow),
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


def explored(config: SimConfig, f: int, monkeypatch):
    """The explorer's report and the crash log of every run it made."""
    logs = []

    def spy(config, adversary):
        logs.append(adversary.plan.events)
        return run_plan(config, adversary)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "run_plan", spy)
        report = verify_exhaustive(config, f=f, horizon=HORIZON, workers=1)
    return report, logs


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("n, degrees, model", INSTANCES)
def test_explorer_matches_brute_force(n, degrees, model, mutation, monkeypatch):
    mutations = frozenset({mutation}) if mutation else frozenset()
    config = SimConfig(n=n, degrees=degrees, model=model, mutations=mutations)
    f = 2
    logs, violating, max_rounds, max_messages = brute_force(config, f)
    report, runs = explored(config, f, monkeypatch)

    assert len(runs) == len(set(runs)) == report.runs
    assert set(runs) == logs
    assert report.plans_total == report.executions_run == len(PlanSpace(n, f, HORIZON))
    assert report.violating_plans == violating
    assert len(report.violations) == len({events for events, _ in report.violations})
    assert (report.max_rounds, report.max_messages) == (max_rounds, max_messages)
    assert verify_exhaustive(config, f=f, horizon=HORIZON, workers=2) == report


@pytest.mark.parametrize("mutation", MUTATIONS[1:])
def test_reported_violations_reproduce(mutation):
    config = SimConfig(n=4, degrees=(1, 2, 2, 1), mutations=frozenset({mutation}))
    report = verify_exhaustive(config, f=2, horizon=HORIZON)
    assert report.violations
    for events, issues in report.violations:
        assert run_plan(config, ScriptedAdversary(CrashPlan(events)))[0] == issues
    stopped = verify_exhaustive(config, f=2, horizon=HORIZON, stop_on_first=True)
    assert stopped.violations and stopped.executions_run < report.executions_run


def test_run_plan_raises_a_plan_the_engine_rejects():
    """A plan that crashes an unknown node is the caller's error: `run_plan`
    raises it instead of reporting it as one of the run's issues."""
    config = SimConfig(n=4, degrees=(1, 2, 2, 1))
    plan = CrashPlan((CrashEvent(1, 9, ()),))
    with pytest.raises(AdversaryError, match="crash of unknown node 9"):
        run_plan(config, ScriptedAdversary(plan))
