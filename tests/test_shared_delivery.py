"""The engine's shared delivery against its per-recipient path.

`RoundEngine` keeps each group send once, counts it once in phase 1
(`Phase1Tally.add`) and applies it later with one `ProtocolNode.hear` call
to its group's live list. When `_share` says no, `_deliver` copies every
send into per-recipient mailboxes instead, which phase 1 counts through
`Phase1Tally.add_mail` and later rounds apply through each receiver's
`receive`. `NeverShare` takes that path in every round, so a run must end
the same on both engines: the same round records, node outcomes, metrics
and `check_execution` issues, or the same error after as many rounds.
Under each rule mutation, runs raise; the explored runs at n=4 check that
both paths raise the same error, from the same listener.

This is a check of one fast path, not an independent reference engine: both
sides share the stepping, the tally's `close` and forks.

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
from cliquesim.adversary import CrashEvent, CrashPlan, NoneAdversary, ScriptedAdversary
from cliquesim.engine import RoundEngine, SimConfig, SimulationError
from cliquesim.harness import check_execution, verify_exhaustive
from cliquesim.protocol import ProtocolViolation
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
