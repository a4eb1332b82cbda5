"""Trace serialization, golden-trace stability, and replay fidelity."""

import json

import pytest

from cliquesim.adversary import (
    CrashEvent,
    CrashPlan,
    NoneAdversary,
    RandomAdversary,
    ScriptedAdversary,
)
from cliquesim.engine import SimConfig, run_simulation
from cliquesim.trace import (
    TraceError,
    read_trace,
    replay_trace,
    trace_lines,
    write_trace,
)


def run_traced(config, adversary, desc):
    result = run_simulation(config, adversary)
    return trace_lines(result, desc), result


class TestSerialization:
    def test_record_structure(self):
        config = SimConfig(n=3, degrees=(1, 1, 2))
        lines, _ = run_traced(config, NoneAdversary(), "none")
        records = [json.loads(ln) for ln in lines]
        assert records[0]["record"] == "header"
        assert records[-1]["record"] == "end"
        assert [r["round"] for r in records[1:-1]] == [1, 2, 3]
        assert records[-1]["rounds"] == 3

    def test_sends_and_crashes_recorded(self):
        config = SimConfig(n=4, degrees=(1, 2, 2, 1))
        plan = CrashPlan((CrashEvent(1, 2, (3,)),))
        lines, _ = run_traced(config, ScriptedAdversary(plan), "scripted")
        round1 = json.loads(lines[1])
        assert round1["crashes"] == [{"node": 2, "delivered": [3]}]
        from_two = [s for s in round1["sends"] if s["from"] == 2]
        assert from_two[0]["to"] == [1, 3, 4]  # intended recipients

    def test_byte_stability_across_runs(self):
        config = SimConfig(n=5, degrees=(2, 2, 2, 2, 2), seed=9)
        first, _ = run_traced(config, RandomAdversary(9, 2), "random:9")
        second, _ = run_traced(config, RandomAdversary(9, 2), "random:9")
        assert first == second

    def test_write_and_read_round_trip(self, tmp_path):
        config = SimConfig(n=3, degrees=(1, 1, 2))
        result = run_simulation(config, NoneAdversary())
        path = tmp_path / "run.jsonl"
        write_trace(path, result, "none")
        parsed = read_trace(path)
        assert parsed.header["n"] == 3
        assert parsed.config() == config
        assert parsed.end["rounds"] == 3

    def test_checked_in_golden_trace(self, tmp_path):
        """Regenerating the golden scenario must reproduce the checked-in
        file byte for byte (schema and execution stability)."""
        from pathlib import Path

        golden = Path(__file__).parent / "data" / "golden_scripted_n4.jsonl"
        config = SimConfig(n=4, degrees=(1, 2, 2, 1), seed=0)
        plan = CrashPlan((CrashEvent(1, 2, (3,)),))
        result = run_simulation(config, ScriptedAdversary(plan))
        lines = trace_lines(result, "scripted:u2-round1-to-u3")
        assert "\n".join(lines) + "\n" == golden.read_text()


class TestReplay:
    def test_fresh_trace_replays_identically(self, tmp_path):
        config = SimConfig(n=6, degrees=(1, 2, 2, 1, 3, 1), seed=4)
        result = run_simulation(config, RandomAdversary(4, 3))
        path = tmp_path / "run.jsonl"
        write_trace(path, result, "random:4")
        outcome = replay_trace(read_trace(path))
        assert outcome.identical

    def test_corrupted_trace_reports_divergence(self, tmp_path):
        config = SimConfig(n=4, degrees=(1, 1, 1, 1))
        result = run_simulation(config, NoneAdversary())
        path = tmp_path / "run.jsonl"
        write_trace(path, result, "none")
        text = path.read_text().replace('"degree":1', '"degree":3', 1)
        path.write_text(text)
        outcome = replay_trace(read_trace(path))
        assert not outcome.identical
        assert "round 1" in outcome.divergence

    def test_model_mismatch_rejected(self, tmp_path):
        config = SimConfig(n=8, degrees=(1,) * 8, model="ncc")
        result = run_simulation(config, NoneAdversary())
        path = tmp_path / "run.jsonl"
        write_trace(path, result, "none")
        with pytest.raises(TraceError, match="model"):
            replay_trace(read_trace(path), expect_model="cc")

    def test_version_mismatch_rejected(self, tmp_path):
        config = SimConfig(n=3, degrees=(1, 1, 2))
        result = run_simulation(config, NoneAdversary())
        path = tmp_path / "run.jsonl"
        write_trace(path, result, "none")
        text = path.read_text().replace('"version":1', '"version":99', 1)
        path.write_text(text)
        with pytest.raises(TraceError, match="version"):
            read_trace(path)

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"record":"header","version":1}\n[1]\n{"record":"end"}\n')
        with pytest.raises(TraceError, match="JSON object"):
            read_trace(path)

    def test_non_integer_header_rejected(self, tmp_path):
        config = SimConfig(n=3, degrees=(1, 1, 2))
        result = run_simulation(config, NoneAdversary())
        path = tmp_path / "run.jsonl"
        write_trace(path, result, "none")
        path.write_text(path.read_text().replace('"n":3', '"n":3.0', 1))
        with pytest.raises(TraceError, match="integers"):
            replay_trace(read_trace(path))

    def test_plain_run_replays_identically(self, tmp_path):
        """Every result carries its round log, so any run can be written as
        a trace and replayed."""
        config = SimConfig(n=5, degrees=(2, 2, 2, 2, 2), seed=3)
        result = run_simulation(config, RandomAdversary(3, 2))
        path = tmp_path / "run.jsonl"
        write_trace(path, result, "random:3")
        assert replay_trace(read_trace(path)).identical
