"""The engine's shared delivery against its per-recipient path.

`RoundEngine` keeps each group send once, counts it once in phase 1
(`Phase1Tally.add`) and applies it later with one `ProtocolNode.hear` call:
an entry once per listener cohort of its group, a termination signal to the
group's live list. When `_share` says no, `_deliver` copies every
send into per-recipient mailboxes instead, which phase 1 counts through
`Phase1Tally.add_mail` and later rounds apply through each receiver's
`receive`. `NeverShare` takes that path in every round, so a run must end
the same on both engines: the same round records, node outcomes, metrics
and `check_execution` issues, or the same error after as many rounds.
Under each rule mutation, runs raise; the explored runs at n=4 check that
both paths raise the same error, from the same listener.

This is a check of one fast path, not an independent reference engine: both
sides share the stepping, the tally's `close` and forks.

It is also the check of listener cohorts. After phase 1 listeners of a
group in the same state share one `Cohort` record, which a group send
updates once. Mail reaches one node, so a node that gets mail leaves its
cohort first, as a node that activates or crashes does. On `NeverShare`
every later delivery is mail, so every listener leaves its cohort the
first time it hears anything, and its runs are the cohort-free reference.
Scripted small runs make each event that splits a cohort happen (mail from
a crasher's partial delivery, in phase 1 and after it; activation; a
listener's crash; a partial termination signal), one makes a shared
cohort reject an entry, which must name its lowest member, and larger runs
check that cohorts stay few where nothing splits them.

Two more checks keep the fast path honest. A `_share` that refuses more
than it should changes no result, so the grid's small sizes and the
explored runs at n=4 must share every round they make: after phase 1 a
round carries one group send, and a rule that needs more (a relay, say)
shows here first. And ncc's `max_send_per_round` and `max_recv_per_round`,
which the shared path records only in phase 1, are recounted from each
grid run's round log.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliquesim.engine
from cliquesim.adversary import (
    CrashEvent,
    CrashPlan,
    NoneAdversary,
    ScriptedAdversary,
    WorstCaseAdversary,
)
from cliquesim.engine import RoundEngine, SimConfig, SimulationError
from cliquesim.harness import check_execution, verify_exhaustive
from cliquesim.protocol import FAULTY, FaultEntry, ProtocolNode, ProtocolViolation
from cliquesim.trace import round_records

from test_engine_grid import LARGE_SIZES, SIZES, grid_cases, verify_cases


class NeverShare(RoundEngine):
    """Hands every round's sends over as per-recipient mail."""

    def _share(self, sends, mailboxes, in_phase1):
        return False


def ending(engine_class, config, adversary):
    engine = engine_class(config, adversary)
    try:
        result = engine.run()
    except (ProtocolViolation, SimulationError) as exc:
        return type(exc), str(exc), len(exc.round_log)
    return (
        round_records(result),
        [dataclasses.asdict(o) for o in result.nodes],
        result.metrics,
        check_execution(result),
    )


def assert_same_ending(config, adversary, twin, label="") -> None:
    """`adversary` and `twin` are two fresh copies of one adversary."""
    expected = ending(RoundEngine, config, adversary)
    assert ending(NeverShare, config, twin) == expected, label


def assert_grid_agrees(sizes) -> None:
    pairs = zip(grid_cases(sizes=sizes), grid_cases(sizes=sizes), strict=True)
    for (label, config, adversary), (_, _, twin) in pairs:
        assert_same_ending(config, adversary, twin, label)


def test_small_grid_runs_end_as_without_sharing():
    assert_grid_agrees(SIZES)


@pytest.mark.slow
def test_large_grid_runs_end_as_without_sharing():
    assert_grid_agrees(LARGE_SIZES)


@pytest.mark.parametrize("model, max_n", [("cc", 9), ("ncc", 20)])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_drawn_crash_plans_end_as_without_sharing(model, max_n, data):
    """Crashes fall from round 1 to three failover gaps past phase 1, each
    reaching a drawn set of the crasher's recipients."""
    n = data.draw(st.integers(min_value=2, max_value=max_n), label="n")
    config = SimConfig(
        n=n,
        degrees=tuple(
            data.draw(st.integers(min_value=0, max_value=n - 1), label="degree")
            for _ in range(n)
        ),
        model=model,
        strict=data.draw(st.booleans(), label="strict"),
    )
    first = RoundEngine(config, NoneAdversary()).nodes[0]
    last = first.phase1_len + 1 + 3 * first.gap
    crashers = data.draw(
        st.lists(st.integers(min_value=1, max_value=n), max_size=n - 1, unique=True),
        label="crashers",
    )
    events = []
    for node in crashers:
        rnd = data.draw(st.integers(min_value=1, max_value=last), label="round")
        delivered = data.draw(
            st.sets(st.integers(min_value=1, max_value=n)), label="delivered"
        )
        events.append(CrashEvent(rnd, node, tuple(sorted(delivered - {node}))))
    plan = CrashPlan(tuple(events))
    assert_same_ending(config, ScriptedAdversary(plan), ScriptedAdversary(plan))


@pytest.mark.slow
@pytest.mark.parametrize(
    "config",
    [c for _, c in verify_cases() if c.n == 4],
    ids=lambda c: "-".join([c.model, *c.mutations]),
)
def test_explored_runs_end_as_without_sharing(config, monkeypatch):
    """Every run of the exhaustive verification at n=4, f<=2: `run_simulation`
    builds the root run from the engine module's `RoundEngine`, and forks
    keep its type."""
    expected = repr(verify_exhaustive(config, f=2, horizon=14))
    monkeypatch.setattr(cliquesim.engine, "RoundEngine", NeverShare)
    assert repr(verify_exhaustive(config, f=2, horizon=14)) == expected


def counting_engine():
    """A `RoundEngine` subclass and the (phase, shared) counts of its
    `_share` calls over every run it makes, forks included."""
    counts = Counter()

    class CountingShare(RoundEngine):
        def _share(self, sends, mailboxes, in_phase1):
            shared = super()._share(sends, mailboxes, in_phase1)
            counts["phase 1" if in_phase1 else "later", shared] += 1
            return shared

    return CountingShare, counts


def assert_every_round_shared(counts) -> None:
    refused = {phase: k for (phase, shared), k in counts.items() if not shared}
    assert not refused, f"refused rounds: {refused}"
    assert counts["later", True] > 0


def test_small_grid_runs_share_every_round():
    engine_class, counts = counting_engine()
    for _, config, adversary in grid_cases(sizes=SIZES):
        engine_class(config, adversary).run()
    assert_every_round_shared(counts)


@pytest.mark.slow
@pytest.mark.parametrize(
    "config",
    [c for _, c in verify_cases() if c.n == 4],
    ids=lambda c: "-".join([c.model, *c.mutations]),
)
def test_explored_runs_share_every_round(config, monkeypatch):
    engine_class, counts = counting_engine()
    monkeypatch.setattr(cliquesim.engine, "RoundEngine", engine_class)
    verify_exhaustive(config, f=2, horizon=14)
    assert_every_round_shared(counts)


def recounted_maxima(result) -> tuple[int, int]:
    """The widest send, and the most copies delivered in one round to a node
    that had not crashed by that round, read off the round log; a crasher
    delivers only its crash's set."""
    widest = most = 0
    crashed = set()
    for log in result.round_log:
        delivered = dict(log.crashes)
        crashed.update(delivered)
        copies = Counter()
        for sender, (_, recipients) in log.sends.items():
            widest = max(widest, len(recipients))
            copies.update(delivered.get(sender, recipients))
        most = max([most, *(k for j, k in copies.items() if j not in crashed)])
    return widest, most


@pytest.mark.parametrize(
    "sizes",
    [SIZES, pytest.param(LARGE_SIZES, marks=pytest.mark.slow)],
    ids=["small", "large"],
)
def test_ncc_send_and_receive_maxima_match_the_round_log(sizes):
    for label, config, adversary in grid_cases(models=("ncc",), sizes=sizes):
        result = RoundEngine(config, adversary).run()
        metrics = result.metrics
        recorded = (metrics.max_send_per_round, metrics.max_recv_per_round)
        assert recounted_maxima(result) == recorded, label


def partition(engine) -> list[list[int]]:
    """The live nodes grouped by the record they hold, in index order."""
    held = {}
    for node in engine.nodes:
        if node.index not in engine.crashed_round and node._cohort is not None:
            held.setdefault(id(node._cohort), []).append(node.index)
    return sorted(held.values())


# (label, config, crash events, a round, and the live nodes grouped by the
# record they hold once that round is over and the next one's sends are
# made, on the sharing engine). cc n=5 closes phase 1 in round 2; node 1
# is due in round 3, and each later index one failover gap (3 rounds) after
# the last entry it heard.
CC5 = SimConfig(n=5, degrees=(1, 2, 2, 1, 2))
SPLITS = [
    # Node 2 crashes in round 1 reaching nodes 1 and 3, which hear it once by
    # mail, and nodes 4 and 5 never hear it: two cohorts at close. Node 1
    # then activates in round 3.
    ("phase-1 mail", CC5, (CrashEvent(1, 2, (1, 3)),), 2, [[1], [3], [4, 5]]),
    # Node 5 is silent, so node 1 activates in round 3 to rebroadcast a
    # smite for it, leaving the cohort of nodes 2-4.
    ("activation", CC5, (CrashEvent(1, 5, ()),), 2, [[1], [2, 3, 4]]),
    # Node 1 crashes on its second copy, reaching node 3 alone, which leaves
    # its cohort through `receive`.
    ("later mail", CC5, (CrashEvent(1, 5, ()), CrashEvent(4, 1, (3,))), 4, [[2, 4], [3]]),
    # Listener 3 crashes in round 4 while nodes 2 and 4 hear on.
    ("listener crash", CC5, (CrashEvent(1, 5, ()), CrashEvent(4, 3, ())), 4, [[1], [2, 4]]),
    # Node 1 exits at once in round 3 and crashes with its termination
    # signal reaching nodes 2 and 3, which exit on it; nodes 4 and 5 wait.
    ("partial signal", CC5, (CrashEvent(3, 1, (2, 3)),), 3, [[2], [3], [4, 5]]),
]


@pytest.mark.parametrize(
    "config, events, at, held",
    [case[1:] for case in SPLITS],
    ids=[case[0] for case in SPLITS],
)
def test_each_split_ends_as_without_sharing(config, events, at, held):
    plan = CrashPlan(events)
    engine = RoundEngine(config, ScriptedAdversary(plan))
    while len(engine.round_log) < at:
        engine.step()
    assert partition(engine) == held
    assert_same_ending(config, ScriptedAdversary(plan), ScriptedAdversary(plan))


def test_ncc_splits_end_as_without_sharing():
    """ncc n=9 (groups 1-4, 5-8 and 9): node 6 crashes in round 2 reaching
    nodes 1 and 2 of group 1, and node 1 crashes in its first active round
    reaching node 3 alone."""
    config = SimConfig(n=9, degrees=(1, 2, 2, 1, 2, 1, 1, 2, 1), model="ncc")
    plan = CrashPlan((CrashEvent(2, 6, (1, 2)), CrashEvent(7, 1, (3,))))
    assert_same_ending(config, ScriptedAdversary(plan), ScriptedAdversary(plan))


def test_a_violation_in_a_shared_cohort_names_its_lowest_member(monkeypatch):
    """In a fault-free cc n=5 run node 1 rebroadcasts, in round 3, a faulty
    entry without a degree to its whole group. Nodes 2-5 share one record,
    which the entry reaches once, through node 2: the listener that the
    per-recipient path names too."""

    class Degreeless(ProtocolNode):
        def emit(self, rnd):
            send = super().emit(rnd)
            if (rnd, self.index) == (3, 1):
                return FaultEntry(1, 4, FAULTY, None), self._group_peers[0]
            return send

    monkeypatch.setattr(cliquesim.engine, "ProtocolNode", Degreeless)
    engine = RoundEngine(CC5, NoneAdversary())
    while engine.round < 3:
        engine.step()
    assert partition(engine) == [[1], [2, 3, 4, 5]]
    with pytest.raises(ProtocolViolation, match="^node 2 got a faulty rebroadcast"):
        engine.step()
    assert_same_ending(CC5, NoneAdversary(), NoneAdversary())


def spied_hears(monkeypatch) -> tuple[list[int], list[int]]:
    """Per group-send entry `hear` call, how many listeners it got, which
    is how many cohorts it updated; and the count of `receive` calls."""
    widths, received = [], [0]
    hear, receive = ProtocolNode.hear, ProtocolNode.receive

    def counting_hear(rnd, msg, listeners):
        if isinstance(msg, FaultEntry) and len(listeners) > 0:
            widths.append(len({id(node._cohort) for node in listeners}))
        return hear(rnd, msg, listeners)

    def counting_receive(self, rnd, inbox):
        received[0] += 1
        return receive(self, rnd, inbox)

    monkeypatch.setattr(ProtocolNode, "hear", staticmethod(counting_hear))
    monkeypatch.setattr(ProtocolNode, "receive", counting_receive)
    return widths, received


def test_cohorts_stay_few_in_cc_under_the_worst_adversary(monkeypatch):
    """cc n=256, f=128: node 2's partial round-1 copy splits the listeners
    into two cohorts at close, and nothing splits them again, so each entry
    updates at most two records and the survivors end holding at most two
    views. (A result still holds one view per node: each orders its own
    entry apart.)"""
    widths, received = spied_hears(monkeypatch)
    engine = RoundEngine(SimConfig(n=256, degrees=(64,) * 256), WorstCaseAdversary(128))
    engine.run()
    assert widths and max(widths) <= 2
    assert received == [0]
    survivors = [node for node in engine.nodes if node.index not in engine.crashed_round]
    assert len({id(node._cohort.view) for node in survivors}) <= 2


def test_cohorts_stay_few_in_ncc_under_the_worst_adversary(monkeypatch):
    """ncc strict n=128, f=4: each group holds at most two cohorts after
    phase 1."""
    widths, received = spied_hears(monkeypatch)
    config = SimConfig(n=128, degrees=(32,) * 128, model="ncc", strict=True)
    engine = RoundEngine(config, WorstCaseAdversary(4))
    while engine.round <= engine._phase1_len:
        engine.step()
    for live in engine._group_live:
        assert len({id(node._cohort) for node in live}) <= 2
    engine.run()
    assert widths and max(widths) <= 2
    assert received == [0]
