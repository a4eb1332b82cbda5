"""Trace serialization, golden-trace stability, and replay fidelity."""

import gc
import hashlib
import json
import random
from pathlib import Path

import pytest

from cliquesim.adversary import (
    CrashEvent,
    CrashPlan,
    NoneAdversary,
    RandomAdversary,
    ScriptedAdversary,
    WorstCaseAdversary,
)
from cliquesim.cli import _summary_lines, main, random_graphic_degrees
from cliquesim.engine import SimConfig, run_simulation
from cliquesim.harness import check_execution
from cliquesim.protocol import MUTATE_BELOW_FOLD_DISCARDS, ProtocolNode
from cliquesim.trace import (
    TraceError,
    read_trace,
    replay_trace,
    round_records,
    trace_lines,
    write_trace,
)
from oracles import dumps, plain_end, plain_round_lines, plain_summary_lines


GOLDEN = Path(__file__).parent / "data" / "golden_scripted_n4.jsonl"


def end_kinds(nodes) -> set[str]:
    """Which kinds of node record an end record holds."""
    kinds = set()
    exited_views = [o["view"] for o in nodes if o["verdict"] is not None]
    if any(view != exited_views[0] for view in exited_views):
        kinds.add("disagreement")
    for o in nodes:
        if o["verdict"] is None:
            kinds.add("never exited")
            if exited_views and o["view"] != exited_views[0]:
                kinds.add("own view")
        else:
            kinds.add("realizable" if o["verdict"]["realizable"] else "unrealizable")
    return kinds


def round_kinds(records) -> set[str]:
    """Which kinds of send, crash and round a run's round records hold."""
    kinds = set()
    for record in records:
        sends = {s["from"]: s for s in record["sends"]}
        if not (sends or record["crashes"] or record["transitions"]):
            kinds.add("empty round")
        for s in sends.values():
            if s["kind"] == "fault":
                kinds.add("fault" if s["degree"] is not None else "smite")
            else:
                kinds.add(s["kind"])
        for c in record["crashes"]:
            if 0 < len(c["delivered"]) < len(sends[c["node"]]["to"]):
                kinds.add("partial delivery")
    return kinds


class Copier(ProtocolNode):
    """Sends each round's recipients as a list of its own, never a shared
    peer list."""

    def emit(self, rnd):
        send = super().emit(rnd)
        return send and (send[0], list(send[1]))


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

    def test_checked_in_golden_trace(self, tmp_path):
        """Regenerating the golden scenario must reproduce the checked-in
        file byte for byte (schema and execution stability)."""
        config = SimConfig(n=4, degrees=(1, 2, 2, 1), seed=0)
        plan = CrashPlan((CrashEvent(1, 2, (3,)),))
        result = run_simulation(config, ScriptedAdversary(plan))
        lines = trace_lines(result, "scripted:u2-round1-to-u3")
        assert "\n".join(lines) + "\n" == GOLDEN.read_text()

    def test_end_record_matches_the_plain_encoding(self, monkeypatch):
        """cc and ncc, worst and seeded random crashes, realizable and
        unrealizable degrees, a node class whose recipient lists are never
        shared, and a rule mutation whose survivors disagree: every round
        line, the end line and the summary equal their plain encodings, and the grid holds each kind of send, crash,
        round and node the writers share text for."""
        seen = set()
        grid = []
        for model in ("cc", "ncc"):
            for n in (2, 3, 7, 16, 40):
                realizable = random_graphic_degrees(n, random.Random(n))
                unrealizable = (n - 1,) * (n - 1) + (0,)
                for degrees in (realizable, unrealizable):
                    config = SimConfig(n=n, degrees=degrees, model=model, seed=n)
                    for adversary in (
                        WorstCaseAdversary(n // 3),
                        RandomAdversary(n, n // 2, 0.3),
                        RandomAdversary(n + 1, n - 1, 0.5),
                    ):
                        grid.append((config, adversary, ProtocolNode))
        config = SimConfig(n=16, degrees=(3,) * 16, model="ncc", seed=5)
        grid.append((config, RandomAdversary(5, 5, 0.4), Copier))
        # A rule mutation whose survivors disagree, so the summary shows
        # two views and its issues.
        config = SimConfig(
            n=7, degrees=(2,) * 7, seed=5, mutations=frozenset({MUTATE_BELOW_FOLD_DISCARDS})
        )
        grid.append((config, RandomAdversary(5, 3, 0.5), ProtocolNode))
        for config, adversary, node_class in grid:
            monkeypatch.setattr("cliquesim.engine.ProtocolNode", node_class)
            result = run_simulation(config, adversary)
            case = (config, adversary, node_class)
            lines = trace_lines(result, "grid")
            assert lines[1:-1] == plain_round_lines(result), case
            end = plain_end(result)
            assert lines[-1] == dumps(end), case
            issues = check_execution(result)
            assert _summary_lines(result, issues) == plain_summary_lines(result, issues), case
            seen |= end_kinds(end["nodes"]) | round_kinds(round_records(result))
        assert seen == {
            "realizable", "unrealizable", "never exited", "own view",
            "announce", "fault", "smite", "allokay",
            "partial delivery", "empty round", "disagreement",
        }


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

    def test_version_mismatch_rejected(self, tmp_path, capsys):
        """Only the JSON integer 1 is version 1: `true` and `1.0` equal 1 in
        Python but name no version. The rejected value is quoted as JSON."""
        config = SimConfig(n=3, degrees=(1, 1, 2))
        result = run_simulation(config, NoneAdversary())
        path = tmp_path / "run.jsonl"
        write_trace(path, result, "none")
        text = path.read_text()
        for version in ("99", "true", "1.0", '"2"'):
            path.write_text(text.replace('"version":1', f'"version":{version}', 1))
            with pytest.raises(TraceError, match="version"):
                read_trace(path)
            assert main(["replay", "--trace", str(path)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: trace version {version} unsupported (expected 1)\n"

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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("strict", "yes", "strict must be true or false"),
            ("strict", 1, "strict must be true or false"),
            ("seed", "abc", "must be integers"),
            ("seed", [1], "must be integers"),
            ("capacity_c", True, "must be integers"),
            ("n", True, "must be integers"),
            ("degrees", [1, True, 2, 1], "must be integers"),
            ("adversary", 5, "adversary must be a string"),
            ("model", "x", 'model must be "cc" or "ncc"'),
            ("model", 5, 'model must be "cc" or "ncc"'),
        ],
    )
    def test_wrongly_typed_header_status_two(
        self, tmp_path, capsys, field, value, message
    ):
        """A wrongly typed header field is a one-line error. Written in
        canonical form, most such traces would otherwise replay as
        identical."""
        header, *rest = GOLDEN.read_text().splitlines()
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([dumps({**json.loads(header), field: value}), *rest]))
        assert main(["replay", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace header: ") and err.count("\n") == 1
        assert message in err

    def test_boolean_round_number_status_two(self, tmp_path, capsys):
        lines = GOLDEN.read_text().splitlines()
        lines[1] = lines[1].replace('"round":1,', '"round":true,', 1)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["replay", "--trace", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 2: malformed round record\n"

    def test_crash_delivering_to_a_non_peer_status_two(self, tmp_path, capsys):
        lines = GOLDEN.read_text().splitlines()
        lines[1] = lines[1].replace('"delivered":[3]', '"delivered":[3,9]', 1)
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        assert main(["replay", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: crash of node 2 delivers to 9, not a peer\n"

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("\n  \n")
        with pytest.raises(TraceError, match="^empty trace file$"):
            read_trace(path)

    def test_trace_without_end_record_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(GOLDEN.read_text().splitlines()[:-1]) + "\n")
        with pytest.raises(TraceError, match="^trace has no end record$"):
            replay_trace(read_trace(path))

    @pytest.mark.parametrize(
        "edit, status, expected",
        [
            (lambda ls: [*ls[:-1], ls[-1].replace('"rounds":5', '"rounds":6')], 1,
             "divergence: first divergence at the end record"),
            (lambda ls: [*ls[:-1], ls[-1][:-1]], 2, "error: line 7: not valid JSON ("),
            (lambda ls: [*ls[:-1], "[1]"], 2,
             "error: every record must be a JSON object"),
            (lambda ls: ls[:-1], 2, "error: trace has no end record"),
            (lambda ls: ls[:1], 2, "error: trace has no end record"),
            (lambda ls: [ls[0].replace(",", ", ", 1), *ls[1:]], 1,
             "divergence: first divergence at the header record"),
            (lambda ls: [*ls[:3], ls[3].replace('"to":[', '"to":[ ', 1), *ls[4:]], 1,
             "divergence: first divergence at round 3"),
            (lambda ls: [*ls[:2], *ls[3:]], 1,
             "divergence: trace length differs: 6 recorded vs 7 replayed"),
            (lambda ls: [*ls[:3], "", *ls[3:]], 2, "error: line 4: not valid JSON ("),
            (lambda ls: [*ls[:3], "  ", *ls[3:]], 2, "error: line 4: not valid JSON ("),
            (lambda ls: [*ls, ""], 2, "error: line 7: malformed round record"),
        ],
    )
    def test_edited_golden_trace_replays_to_one_line(
        self, tmp_path, capsys, edit, status, expected
    ):
        """A divergence is printed on stdout and exits 1; a trace that is
        not one exits 2 with one `error:` line on stderr."""
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join(edit(GOLDEN.read_text().splitlines())) + "\n")
        assert main(["replay", "--trace", str(path)]) == status
        out, err = capsys.readouterr()
        shown, silent = (out, err) if status == 1 else (err, out)
        assert shown.startswith(expected) and shown.count("\n") == 1
        assert silent == ""

    def test_truncated_end_line_is_rejected_by_replay(self, tmp_path):
        """`read_trace` leaves the end record to `replay_trace`, which
        compares it with the end line it rebuilds and parses it only when
        they differ."""
        lines = GOLDEN.read_text().splitlines()
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join([*lines[:-1], lines[-1][:-1]]) + "\n")
        parsed = read_trace(path)
        with pytest.raises(TraceError, match="^line 7: not valid JSON"):
            replay_trace(parsed)

    def test_lost_round_record_reports_the_length(self, tmp_path):
        """The golden run's last round holds no crash, so a trace without
        it still replays the same five rounds, one line more."""
        *head, _, end = GOLDEN.read_text().splitlines()
        path = tmp_path / "run.jsonl"
        path.write_text("\n".join([*head, end]) + "\n")
        outcome = replay_trace(read_trace(path))
        assert not outcome.identical
        assert outcome.divergence == "trace length differs: 6 recorded vs 7 replayed"

    def test_plain_run_replays_identically(self, tmp_path):
        """Every result carries its round log, so any run can be written as
        a trace and replayed."""
        config = SimConfig(n=5, degrees=(2, 2, 2, 2, 2), seed=3)
        result = run_simulation(config, RandomAdversary(3, 2))
        path = tmp_path / "run.jsonl"
        write_trace(path, result, "random:3")
        assert replay_trace(read_trace(path)).identical


class TestCollector:
    """`read_trace` leaves the cyclic collector as it found it."""

    def write(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = run_simulation(SimConfig(n=3, degrees=(1, 1, 2)), NoneAdversary())
        write_trace(path, result, "none")
        return path

    def test_enabled_collector_stays_enabled(self, tmp_path):
        path = self.write(tmp_path)
        assert gc.isenabled()
        read_trace(path)
        assert gc.isenabled()
        path.write_text(path.read_text().replace('"record":"round"', "{", 1))
        with pytest.raises(TraceError, match="line 2: not valid JSON"):
            read_trace(path)
        assert gc.isenabled()

    def test_disabled_collector_stays_disabled(self, tmp_path):
        path = self.write(tmp_path)
        gc.disable()
        try:
            read_trace(path)
            assert not gc.isenabled()
        finally:
            gc.enable()


def test_large_ncc_trace_is_pinned(tmp_path, capsys):
    """An ncc n=128 trace, whose end record repeats one verdict and view for
    most nodes, hashes to the value the benchmark pins and replays. Its
    summary, which prints no seed, is pinned too."""
    path = tmp_path / "run.jsonl"
    out = tmp_path / "summary.txt"
    args = ["simulate", "--n", "128", "--model", "ncc", "--strict"]
    args += ["--adversary", "worst", "--f", "4", "--degree-uniform", "64"]
    assert main([*args, "--seed", "0", "--trace", str(path), "--out", str(out)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "f69172673ecd5196f4c952600595ccd9195f7f643f41a031a1567185651fc86e"
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "e017443f60435bebeaddc32640221924c38507edef5dacd5421b7797475d872e"
    capsys.readouterr()
    assert main(["replay", "--trace", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "identical"
