"""Phase 1 against a brute-force recount: the view and list that
`Phase1Tally.close` hands each node's cohort through `end_phase1`, and each subject's
heard-twice witness, must equal what counting every copy from the round log
gives (`oracles.phase1_classification`). Crash plans are drawn at small n in
both models; the engine grid's large ncc runs add many groups and crashes
with partial delivery."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquesim.adversary import CrashEvent, CrashPlan, NoneAdversary, ScriptedAdversary
from cliquesim.engine import RoundEngine, SimConfig
from cliquesim.protocol import ProtocolNode

from oracles import phase1_classification
from test_engine_grid import LARGE_SIZES, grid_cases


def assert_phase1_agrees(config: SimConfig, adversary) -> None:
    handed = {}

    class Recorder(ProtocolNode):
        def end_phase1(self, cohort):
            super().end_phase1(cohort)
            handed[self.index] = (list(self.view.items()), list(self.flist.items()))

    with mock.patch("cliquesim.engine.ProtocolNode", Recorder):
        engine = RoundEngine(config, adversary)
        result = engine.run()
    assert result.metrics.dropped_messages == 0
    classified, witness = phase1_classification(result)
    expected = {
        j: (list(view.items()), list(flist.items()))
        for j, (view, flist) in classified.items()
    }
    assert handed == expected
    assert engine.tally.heard_twice == witness


@pytest.mark.parametrize("model, max_n", [("cc", 9), ("ncc", 20)])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_phase1_matches_a_recount_under_drawn_crash_plans(model, max_n, data):
    """Crashes fall in phase 1 or just after it, each reaching a drawn set
    of the crasher's recipients."""
    n = data.draw(st.integers(min_value=2, max_value=max_n), label="n")
    config = SimConfig(
        n=n,
        degrees=tuple(
            data.draw(st.integers(min_value=0, max_value=n - 1), label="degree")
            for _ in range(n)
        ),
        model=model,
    )
    last = RoundEngine(config, NoneAdversary()).nodes[0].phase1_len + 1
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
    assert_phase1_agrees(config, ScriptedAdversary(CrashPlan(tuple(events))))


def test_phase1_matches_a_recount_on_the_large_ncc_grid():
    for _, config, adversary in grid_cases(models=("ncc",), sizes=LARGE_SIZES):
        assert_phase1_agrees(config, adversary)
