"""Command-line contract tests: exit statuses, output formats, and the CSV
report schema."""

import contextlib
import csv
import functools
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquesim import cli
from cliquesim.cli import REPORT_COLUMNS, main
from cliquesim.engine import CapacityViolation, RoundLimitExceeded
from cliquesim.protocol import MUTATE_BELOW_FOLD_DISCARDS, ProtocolViolation

DATA = Path(__file__).parent / "data"
GOLDEN_LINES = (DATA / "golden_scripted_n4.jsonl").read_text().splitlines()


class TestRealize:
    def test_realizable_prints_edges_status_zero(self, capsys):
        assert main(["realize", "2", "2", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["1 2", "1 3", "2 3"]

    def test_unrealizable_status_one(self, capsys):
        assert main(["realize", "3", "3", "3", "1"]) == 1
        assert capsys.readouterr().out.strip() == "unrealizable"

    def test_parse_error_status_two(self, capsys):
        assert main(["realize", "2", "2", "x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_negative_degree_status_two(self):
        assert main(["realize", "2", "-2"]) == 2

    def test_comma_separated_also_accepted(self, capsys):
        assert main(["realize", "1,1"]) == 0
        assert capsys.readouterr().out.strip() == "1 2"

    @pytest.mark.parametrize(
        "degrees",
        [["1,2,1"], ["1 2 1"], ["1, 2, 1"], ["1,2,1\n"], ["1", "2", "1"], ["1,", "2,1"]],
    )
    def test_degree_list_forms(self, degrees, capsys):
        assert main(["realize", *degrees]) == 0
        assert capsys.readouterr().out.splitlines() == ["1 2", "2 3"]


class TestSimulate:
    def test_fault_free_summary(self, capsys):
        rc = main(
            ["simulate", "--n", "4", "--degrees", "1,1,1,1", "--adversary", "none"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rounds=3 messages=27" in out
        assert out.count("exit round=3") == 4
        assert "checks=ok" in out

    def test_summary_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "summary.txt"
        rc = main(
            [
                "simulate",
                "--n",
                "4",
                "--degrees",
                "1,1,1,1",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        assert "rounds=3" in out_path.read_text()

    def test_trace_flag_writes_jsonl(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        rc = main(
            [
                "simulate",
                "--n",
                "4",
                "--degrees",
                "1,1,1,1",
                "--trace",
                str(trace_path),
            ]
        )
        assert rc == 0
        lines = trace_path.read_text().splitlines()
        assert json.loads(lines[0])["record"] == "header"

    def test_scripted_adversary_from_plan_file(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("1 2 3\n")
        rc = main(
            [
                "simulate",
                "--n",
                "4",
                "--degrees",
                "1,2,2,1",
                "--adversary",
                "scripted",
                "--plan-file",
                str(plan_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rounds=5 messages=28" in out
        assert "node 2: crashed (round 1)" in out

    def test_scripted_without_plan_file_is_config_error(self, capsys):
        rc = main(
            ["simulate", "--n", "4", "--degrees", "1,1,1,1", "--adversary", "scripted"]
        )
        assert rc == 2

    def test_plan_crashing_unknown_node_status_two(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text("1 9 -\n")
        rc = main(
            [
                "simulate",
                "--n",
                "4",
                "--degrees",
                "1,2,2,1",
                "--adversary",
                "scripted",
                "--plan-file",
                str(plan_path),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: crash of unknown node 9\n"

    @pytest.mark.parametrize("recipient", [9, 2])
    def test_plan_delivering_to_a_non_peer_status_two(
        self, tmp_path, capsys, recipient
    ):
        """A crash that names a recipient outside 1..n, or the crasher
        itself, is refused instead of dropping that recipient."""
        plan_path = tmp_path / "plan.txt"
        plan_path.write_text(f"1 2 {recipient}\n")
        argv = ["simulate", "--n", "3", "--degrees", "1,1,2"]
        argv += ["--adversary", "scripted", "--plan-file", str(plan_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: crash of node 2 delivers to {recipient}, not a peer\n"
        )

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["--n", "5", "--degrees", "1,2,2,1,2", "--adversary", "worst",
                 "--f", "2"],
                """\
model=cc n=5 degrees=1,2,2,1,2
rounds=11 messages=50 crashes=2 allokay_broadcasters=1
crash round=1 node=2 delivered=1,3
crash round=4 node=1 delivered=-
node 1: crashed (round 4)
node 2: crashed (round 1)
node 3: exit round=11 D'=[1:1 2:2 3:2 4:1 5:2] edges 1-3 2-3 2-5 4-5
node 4: exit round=11 D'=[1:1 2:2 3:2 4:1 5:2] edges 1-3 2-3 2-5 4-5
node 5: exit round=11 D'=[1:1 2:2 3:2 4:1 5:2] edges 1-3 2-3 2-5 4-5
checks=ok
""",
            ),
            (
                ["--n", "6", "--model", "ncc", "--degrees", "1,2,2,1,3,1",
                 "--adversary", "worst", "--f", "1"],
                """\
model=ncc n=6 degrees=1,2,2,1,3,1
rounds=10 messages=67 crashes=1 allokay_broadcasters=1
max_send_per_round=3 max_recv_per_round=3 dropped_messages=0
crash round=1 node=2 delivered=4,5
node 1: exit round=9 D'=[1:1 3:2 4:1 5:3 6:1] edges 1-5 3-5 3-6 4-5
node 2: crashed (round 1)
node 3: exit round=9 D'=[1:1 3:2 4:1 5:3 6:1] edges 1-5 3-5 3-6 4-5
node 4: exit round=10 D'=[1:1 3:2 4:1 5:3 6:1] edges 1-5 3-5 3-6 4-5
node 5: exit round=10 D'=[1:1 3:2 4:1 5:3 6:1] edges 1-5 3-5 3-6 4-5
node 6: exit round=10 D'=[1:1 3:2 4:1 5:3 6:1] edges 1-5 3-5 3-6 4-5
checks=ok
""",
            ),
        ],
        ids=["cc", "ncc"],
    )
    def test_full_summary_text(self, tmp_path, argv, expected):
        out_path = tmp_path / "summary.txt"
        assert main(["simulate", *argv, "--out", str(out_path)]) == 0
        assert out_path.read_text() == expected

    def test_failed_checks_status_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "check_execution", lambda result: ["messages: x"])
        assert main(["simulate", "--n", "4", "--degrees", "1,1,1,1"]) == 1
        assert "checks=FAILED\n  issue: messages: x\n" in capsys.readouterr().out

    def test_degree_length_mismatch_is_config_error(self):
        assert main(["simulate", "--n", "4", "--degrees", "1,1"]) == 2

    def test_degree_file(self, tmp_path, capsys):
        degree_path = tmp_path / "degrees.txt"
        degree_path.write_text("1 1 1 1\n")
        rc = main(
            ["simulate", "--n", "4", "--degree-file", str(degree_path)]
        )
        assert rc == 0
        assert "rounds=3 messages=27" in capsys.readouterr().out

    def test_ncc_reports_capacity_columns(self, capsys):
        rc = main(
            [
                "simulate",
                "--n",
                "8",
                "--degree-uniform",
                "2",
                "--model",
                "ncc",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "max_recv_per_round=3" in out
        assert "dropped_messages=0" in out


class TestSweep:
    def test_csv_schema_and_content(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        rc = main(
            [
                "sweep",
                "--n",
                "8",
                "--f",
                "0,2",
                "--adversary",
                "worst,random",
                "--seeds",
                "3",
                "--out",
                str(out_path),
            ]
        )
        assert rc == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == REPORT_COLUMNS
        # one worst row and three random rows per f value
        assert len(rows) == 2 * (1 + 3)
        assert all(row["agreement_ok"] == "True" for row in rows)
        f0 = [row for row in rows if row["f"] == "0"]
        assert all(row["rounds"] == "3" for row in f0)

    def test_summary_statistics_on_stderr(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--n",
                "8",
                "--f",
                "0,1,2",
                "--adversary",
                "worst",
                "--out",
                str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "max rounds per f" in err
        assert "slope=" in err

    def test_golden_csv(self, tmp_path):
        out_path = tmp_path / "report.csv"
        argv = ["sweep", "--n", "8", "--f", "0,2,4,7", "--adversary", "worst,random"]
        assert main(argv + ["--seeds", "5", "--out", str(out_path)]) == 0
        golden = (DATA / "golden_sweep_n8.csv").read_bytes()
        assert out_path.read_bytes() == golden

    def test_message_bound_holds_per_row(self, tmp_path):
        out_path = tmp_path / "report.csv"
        main(
            [
                "sweep",
                "--n",
                "8",
                "--f",
                "0,2,4",
                "--adversary",
                "random",
                "--seeds",
                "10",
                "--out",
                str(out_path),
            ]
        )
        n = 8
        with open(out_path, newline="") as fh:
            for row in csv.DictReader(fh):
                f = int(row["f"])
                bound = 2 * n * (n - 1) + 2 * f * (n - 1) + (n - 1)
                assert int(row["messages"]) <= bound

    def test_degree_options_reach_every_row(self, capsys):
        argv = ["sweep", "--n", "4", "--f", "0,1", "--adversary", "none,worst"]
        assert main(argv + ["--degrees", "3,3,3,1"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 4
        assert {row["verdict"] for row in rows} == {"unrealizable"}

    def test_disagreeing_row(self, monkeypatch, capsys):
        """Under a mutated fold rule one random run ends with two views."""
        mutated = functools.partial(
            cli.SimConfig, mutations=frozenset({MUTATE_BELOW_FOLD_DISCARDS})
        )
        monkeypatch.setattr(cli, "SimConfig", mutated)
        argv = ["sweep", "--n", "6", "--f", "2", "--adversary", "random"]
        argv += ["--seeds", "3", "--crash-prob", "0.3", "--degrees", "1,2,2,1,2,2"]
        assert main(argv) == 1
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(r["seed"], r["agreement_ok"], r["verdict"]) for r in rows] == [
            ("0", "True", "unrealizable"),
            ("1", "True", "realizable"),
            ("2", "False", "disagree"),
        ]

    def test_bad_degree_options_status_two(self, tmp_path, capsys):
        argv = ["sweep", "--n", "4", "--f", "0", "--adversary", "none"]
        empty_field = tmp_path / "degrees.txt"
        empty_field.write_text("1,,1\n")
        for extra, expected in [
            (["--degrees", "1,1,1"], "degree list has 3 entries for n=4"),
            (["--degree-file", str(tmp_path / "missing")], "No such file"),
            (["--degree-file", str(empty_field)], "empty field in degree list"),
        ]:
            assert main(argv + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert expected in captured.err


class TestVerify:
    def test_small_pass(self, capsys):
        rc = main(["verify", "--n", "3", "--f", "1", "--degrees", "1,1,2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "violations=0" in out

    def test_report_to_file(self, tmp_path, capsys):
        """`--out` writes exactly the report printed on stdout and leaves the
        exit status as it is without it."""
        argv = ["verify", "--n", "3", "--f", "1", "--degrees", "1,1,2"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out_path = tmp_path / "report.txt"
        assert main(argv + ["--out", str(out_path)]) == 0
        assert capsys.readouterr().out == printed
        assert out_path.read_text() == printed

    def test_unwritable_out_keeps_the_printed_report(self, tmp_path, capsys):
        """A report whose `--out` file cannot be opened is still printed
        before the one error line, and the exit status is 2."""
        argv = ["verify", "--n", "3", "--f", "1", "--degrees", "1,1,2"]
        assert main(argv + ["--out", str(tmp_path / "missing" / "x")]) == 2
        captured = capsys.readouterr()
        printed = captured.out.splitlines()
        assert len(printed) == 2
        assert printed[0].startswith("plans=") and printed[1] == "PASS"
        [error] = captured.err.splitlines()
        assert error.startswith("error: [Errno 2] ")

    def test_n5_pass(self, capsys):
        rc = main(["verify", "--n", "5", "--f", "1", "--degree-uniform", "1"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "plans=1121 executions=1121 runs=181 violations=0 max_rounds=15",
            "PASS",
        ]

    def test_report_line_counts_plans_and_runs(self, capsys):
        rc = main(["verify", "--n", "4", "--f", "2", "--degrees", "1,2,2,1"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "plans=75713 executions=75713 runs=3531 violations=0 max_rounds=14",
            "PASS",
        ]

    def test_model_capacity_and_strict_reach_the_verifier(self, monkeypatch, capsys):
        seen = []
        real_verify = cli.verify_exhaustive

        def spy(config, f, horizon, workers):
            seen.append((config, f, horizon, workers))
            return real_verify(config, f=f, horizon=horizon, workers=workers)

        monkeypatch.setattr(cli, "verify_exhaustive", spy)
        argv = ["verify", "--n", "3", "--f", "1", "--degrees", "1,1,2"]
        argv += ["--model", "ncc", "--strict", "--capacity-c", "2"]
        assert main(argv) == 0
        [(config, f, horizon, workers)] = seen
        assert (config.model, config.strict, config.capacity_c) == ("ncc", True, 2)
        assert (config.n, config.degrees, f, horizon, workers) == (3, (1, 1, 2), 1, 14, 1)

    def test_counterexample_reproduces_in_simulate(self, monkeypatch, capsys, tmp_path):
        mutated = functools.partial(
            cli.SimConfig, mutations=frozenset({MUTATE_BELOW_FOLD_DISCARDS})
        )
        monkeypatch.setattr(cli, "SimConfig", mutated)
        rc = main(["verify", "--n", "4", "--f", "2", "--degrees", "1,2,2,1"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert out[:2] == [
            "plans=75713 executions=75713 runs=3531 violations=144 max_rounds=14",
            "FAIL",
        ]
        plan = [ln.strip() for ln in out[3:] if not ln.strip().startswith("issue:")]
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text("\n".join(plan) + "\n")
        argv = ["simulate", "--n", "4", "--degrees", "1,2,2,1", "--adversary"]
        argv += ["scripted", "--plan-file", str(plan_file)]
        assert main(argv) == 1
        assert "checks=FAILED" in capsys.readouterr().out


SIMULATE_N4 = ["simulate", "--n", "4", "--degrees", "1,1,1,1"]
VERIFY_N4 = ["verify", "--n", "4", "--degrees", "1,2,2,1"]
SWEEP_N4 = ["sweep", "--n", "4", "--f", "1", "--adversary", "random"]
SIMULATE_N3 = ["simulate", "--n", "3", "--degrees", "1,1,2"]
SWEEP_N3 = ["sweep", "--n", "3", "--degrees", "1,1,2"]
PLAN = "<plan file>"  # stands for a valid one-crash plan file
SCRIPTED_N3 = SIMULATE_N3 + ["--adversary", "scripted", "--plan-file", PLAN]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (VERIFY_N4 + ["--f", "-1"], "0<=f<n"),
        (VERIFY_N4 + ["--f", "1", "--horizon", "-1"], "1<=horizon"),
        (VERIFY_N4 + ["--f", "1", "--horizon", "0"], "1<=horizon"),
        (SIMULATE_N4 + ["--adversary", "random", "--f", "-2"], "fault budget -2"),
        (SIMULATE_N4 + ["--adversary", "worst", "--f", "-1"], "fault budget -1"),
        (SIMULATE_N4 + ["--adversary", "random", "--crash-prob", "1.5"], "probability"),
        (SIMULATE_N4 + ["--adversary", "random", "--crash-prob", "-1"], "probability"),
        (SIMULATE_N4 + ["--adversary", "random", "--crash-prob", "nan"], "probability"),
        (["simulate", "--n=--"], "'--'"),
        (["simulate", "--n", "4", "--degrees=--"], "'--'"),
        (VERIFY_N4 + ["--f", "1", "--workers", "0"], "workers 0 must be >= 1"),
        (VERIFY_N4 + ["--f", "1", "--workers", "-3"], "workers -3 must be >= 1"),
        (SWEEP_N4 + ["--seeds", "0"], "--seeds 0 must be >= 1"),
        (SWEEP_N4 + ["--seeds", "-1"], "--seeds -1 must be >= 1"),
        (
            ["verify", "--n", "3", "--f", "1", "--degrees", "1,1,2", "--capacity-c", "0"],
            "capacity constant must be >= 1",
        ),
        (
            ["sweep", "--n", "4", "--f", "0,2", "--adversary", "none,scripted"],
            "sweep adversary 'scripted' is not none, random or worst",
        ),
        (["simulate", "--n", "x"], "argument --n: invalid int value: 'x'"),
        (SIMULATE_N4 + ["--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (SIMULATE_N4 + ["--adversary", "none", "--f", "-3"], "fault budget -3"),
        (["sweep", "--n", "4", "--f", "4", "--adversary", "none"], "fault budget 4"),
        (
            ["simulate", "--n", "3", "--degree-uniform", "-1"],
            "degrees must be non-negative",
        ),
        (
            ["simulate", "--n", "3", "--degrees", "1,-1,0"],
            "degrees must be non-negative",
        ),
        (["simulate", "--n", "2", "--degrees", "1,,1"], "empty field in degree list"),
        (["simulate", "--n", "2", "--degrees", ",1,1"], "empty field in degree list"),
        (["simulate", "--n", "2", "--degrees", "1,1, "], "empty field in degree list"),
        (["realize", "1,,1"], "empty field in degree list"),
        # Checked whether or not the adversary reads the option.
        (SCRIPTED_N3 + ["--f", "7"], "fault budget 7"),
        (SCRIPTED_N3 + ["--f", "-1"], "fault budget -1"),
        (SIMULATE_N3 + ["--crash-prob", "5"], "probability"),
        (SWEEP_N3 + ["--adversary", "worst", "--crash-prob", "7"], "probability"),
        (SIMULATE_N3 + ["--plan-file", PLAN], "--plan-file"),
        (SIMULATE_N3 + ["--adversary", "random", "--plan-file", PLAN], "--plan-file"),
        (SIMULATE_N3 + ["--adversary", "worst", "--plan-file", PLAN], "--plan-file"),
    ],
)
def test_bad_option_value_status_two(argv, expected, capsys, tmp_path):
    plan = tmp_path / "plan.txt"
    plan.write_text("1 2 -\n")
    argv = [str(plan) if arg == PLAN else arg for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert expected in captured.err


@pytest.mark.parametrize("option", ["--degree-uniform", "--degree-file"])
@pytest.mark.parametrize("command", ["simulate", "sweep", "verify"])
def test_contradictory_degree_options_status_two(command, option, capsys):
    """Two of --degrees, --degree-file and --degree-uniform cannot both
    hold, so neither silently wins."""
    argv = [command, "--n", "4", "--degrees", "1,1,1,1", "--f", "1", option, "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: argument {option}: not allowed with argument --degrees\n"
    )


def test_uniform_degree_with_degree_file_status_two(tmp_path, capsys):
    degree_file = tmp_path / "d.txt"
    degree_file.write_text("1 1 1 1\n")
    argv = ["simulate", "--n", "4", "--degree-file", str(degree_file)]
    assert main(argv + ["--degree-uniform", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: argument --degree-uniform: not allowed with argument --degree-file\n"
    )


@pytest.mark.parametrize(
    "argv, target, error",
    [
        (SIMULATE_N4, "cliquesim.cli.run_simulation", RoundLimitExceeded),
        (SWEEP_N4, "cliquesim.cli.run_simulation", CapacityViolation),
        (
            ["replay", "--trace", str(DATA / "golden_scripted_n4.jsonl")],
            "cliquesim.trace.run_simulation",
            ProtocolViolation,
        ),
    ],
    ids=["simulate", "sweep", "replay"],
)
def test_run_that_raises_status_one(argv, target, error, monkeypatch, capsys):
    """A run that raises is a failed run: one `error:` line naming the
    error's type, exit 1, no traceback."""

    def fail(config, adversary):
        raise error("the run broke")

    monkeypatch.setattr(target, fail)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error.__name__}: the run broke\n"


def test_sweep_keeps_the_rows_run_before_a_run_that_raises(monkeypatch, capsys):
    """A sweep writes each row as its run ends: when the third run raises,
    the header and the first two rows are out before the `error:` line."""
    calls = []
    run_simulation = cli.run_simulation

    def third_raises(config, adversary):
        calls.append(config.seed)
        if len(calls) == 3:
            raise RoundLimitExceeded("the run broke")
        return run_simulation(config, adversary)

    monkeypatch.setattr(cli, "run_simulation", third_raises)
    assert main(SWEEP_N4 + ["--seeds", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: RoundLimitExceeded: the run broke\n"
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [row["seed"] for row in rows] == ["0", "1"]
    assert captured.out.startswith(",".join(REPORT_COLUMNS) + "\r\n")


def test_sweep_bad_later_budget_writes_no_csv(tmp_path, capsys):
    """Every grid point is checked before the first run: a fault budget
    that only a later point names still exits 2 with no CSV written."""
    out_path = tmp_path / "report.csv"
    argv = ["sweep", "--n", "4", "--f", "1,4", "--adversary", "none"]
    assert main(argv + ["--out", str(out_path)]) == 2
    assert not out_path.exists()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: fault budget 4")


def test_import_loads_only_the_standard_library():
    """The package has no runtime dependency: importing every `cliquesim`
    module loads no module outside the standard library (numpy, which the
    tests' oracle needs, included)."""
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import cliquesim\n"
        "for info in pkgutil.iter_modules(cliquesim.__path__, 'cliquesim.'):\n"
        "    importlib.import_module(info.name)\n"
        "tops = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        # multiprocessing registers __main__ again as __mp_main__.
        "ours = {'cliquesim', '__mp_main__'}\n"
        "print(sorted(tops - sys.stdlib_module_names - ours))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_command_only_modules_unloaded():
    """`multiprocessing` (verify on several workers) and `statistics` (the
    sweep summary) are imported by the commands that use them, so a
    fresh `import cliquesim.cli` loads neither."""
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import cliquesim.cli\n"
        "print(sorted({'multiprocessing', 'statistics'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestReplayCommand:
    def make_trace(self, tmp_path, model="cc"):
        trace_path = tmp_path / "run.jsonl"
        args = [
            "simulate",
            "--n",
            "4",
            "--degrees",
            "1,2,2,1",
            "--model",
            model,
            "--adversary",
            "random",
            "--f",
            "2",
            "--seed",
            "5",
            "--trace",
            str(trace_path),
        ]
        assert main(args) == 0
        return trace_path

    def test_fresh_trace_identical(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        assert main(["replay", "--trace", str(path)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_corrupted_trace_divergence(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        path.write_text(path.read_text().replace('"degree":1', '"degree":9', 1))
        assert main(["replay", "--trace", str(path)]) == 1
        assert "divergence" in capsys.readouterr().out

    def test_model_mismatch_rejected(self, tmp_path, capsys):
        path = self.make_trace(tmp_path, model="ncc")
        assert main(["replay", "--trace", str(path), "--model", "cc"]) == 2
        assert "model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "crashes", [[{"node": "x", "delivered": []}], [{"node": 2}], "nope"]
    )
    def test_malformed_round_record_status_two(self, tmp_path, capsys, crashes):
        header, first, *rest = GOLDEN_LINES
        record = {**json.loads(first), "crashes": crashes}
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join([header, json.dumps(record), *rest]) + "\n")
        assert main(["replay", "--trace", str(path)]) == 2
        assert capsys.readouterr().err == "error: line 2: malformed round record\n"

    def test_header_without_n_status_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record":"header","version":1}\n{"record":"end"}\n')
        assert main(["replay", "--trace", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: trace header lacks n")


# -- fuzzed inputs: every outcome is an exit status, never a traceback --------


def run_quietly(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def format_event(event) -> str:
    rnd, node, recipients = event
    shown = ",".join(map(str, recipients)) if recipients is not None else "-"
    return f"{rnd} {node} {shown}"


plan_events = st.tuples(
    st.integers(0, 5),
    st.integers(0, 6),
    st.one_of(st.none(), st.lists(st.integers(-1, 5), max_size=4)),
)
plan_text = st.one_of(
    st.lists(plan_events.map(format_event), max_size=3).map("\n".join),
    st.text(alphabet="0123456789 ,-#x\n", max_size=30),
)


@settings(max_examples=60, deadline=None)
@given(text=plan_text, n=st.integers(1, 4))
def test_fuzz_plan_file(text, n):
    with tempfile.TemporaryDirectory() as tmp:
        plan_path = Path(tmp) / "plan.txt"
        plan_path.write_text(text)
        run_quietly(
            ["simulate", "--n", str(n), "--degree-uniform", "1"]
            + ["--adversary", "scripted", "--plan-file", str(plan_path)]
        )


json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.sampled_from(["cc", "ncc"]),
    st.lists(st.integers(-1, 5), max_size=5),
)
header_keys = st.sampled_from(sorted(json.loads(GOLDEN_LINES[0])))


@settings(max_examples=60, deadline=None)
@given(
    changes=st.dictionaries(header_keys, json_values, max_size=3),
    dropped=st.sets(header_keys, max_size=2),
)
def test_fuzz_trace_header(changes, dropped):
    header = {**json.loads(GOLDEN_LINES[0]), **changes}
    for key in dropped:
        header.pop(key)
    replay_quietly([json.dumps(header), *GOLDEN_LINES[1:]])


def replay_quietly(lines) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        run_quietly(["replay", "--trace", str(path)])


crash_records = st.fixed_dictionaries(
    {}, optional={"node": json_values, "delivered": json_values}
)
round_changes = st.dictionaries(
    st.sampled_from(["record", "round", "crashes"]),
    st.one_of(json_values, st.lists(crash_records, max_size=2)),
    max_size=2,
)


@settings(max_examples=40, deadline=None)
@given(
    line=st.integers(1, len(GOLDEN_LINES) - 2),
    changes=round_changes,
    dropped=st.sets(st.sampled_from(["round", "crashes"]), max_size=1),
)
def test_fuzz_round_record(line, changes, dropped):
    record = {**json.loads(GOLDEN_LINES[line]), **changes}
    for key in dropped:
        record.pop(key)
    lines = list(GOLDEN_LINES)
    lines[line] = json.dumps(record)
    replay_quietly(lines)


degree_text = st.one_of(
    st.lists(st.integers(-2, 6), max_size=5).map(lambda ds: ",".join(map(str, ds))),
    st.text(alphabet="0123456789 ,-x", max_size=12),
)


@settings(max_examples=60, deadline=None)
@given(texts=st.lists(degree_text, min_size=1, max_size=3))
def test_fuzz_realize_degrees(texts):
    run_quietly(["realize", "--", *texts])


@settings(max_examples=40, deadline=None)
@given(text=degree_text, n=st.integers(1, 4))
def test_fuzz_simulate_degrees(text, n):
    run_quietly(["simulate", "--n", str(n), f"--degrees={text}"])


END_KEYS = ["record", "rounds", "messages", "nodes"]
end_changes = st.dictionaries(
    st.sampled_from(END_KEYS),
    st.one_of(json_values, st.lists(json_values, max_size=2)),
    max_size=2,
)


@settings(max_examples=40, deadline=None)
@given(
    changes=end_changes,
    dropped=st.sets(st.sampled_from(END_KEYS), max_size=2),
)
def test_fuzz_end_record(changes, dropped):
    record = {**json.loads(GOLDEN_LINES[-1]), **changes}
    for key in dropped:
        record.pop(key)
    end = json.dumps(record, sort_keys=True, separators=(",", ":"))
    replay_quietly([*GOLDEN_LINES[:-1], end])
