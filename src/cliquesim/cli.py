"""Command-line front end: one-shot realization, single simulations with
trace capture, parameter sweeps with CSV reports, exhaustive small-instance
verification, and trace replay.

Exit codes: 0 success (realizable / identical / verified), 1 for a negative
result (unrealizable, divergence, violations found, a run that raised), 2
for bad input or configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import random
import sys
from pathlib import Path

from .adversary import (
    CrashPlan,
    NoneAdversary,
    RandomAdversary,
    ScriptedAdversary,
    WorstCaseAdversary,
    format_plan,
    parse_plan_file,
)
from .degseq import DegreeSequence, erdos_gallai, havel_hakimi
from .engine import (
    AdversaryError,
    ConfigError,
    SimConfig,
    SimulationError,
    run_simulation,
)
from .harness import check_execution, verify_exhaustive, view_texts
from .protocol import ProtocolViolation
from .trace import TraceError, read_trace, replay_trace, write_trace

REPORT_COLUMNS = [
    "n",
    "f",
    "model",
    "adversary",
    "seed",
    "rounds",
    "messages",
    "agreement_ok",
    "validity_ok",
    "verdict",
]


def random_graphic_degrees(n: int, rng: random.Random) -> tuple[int, ...]:
    """Sample degrees uniformly from [0, n-1] until the sequence is graphic."""
    while True:
        degrees = tuple(rng.randrange(n) for _ in range(n))
        if erdos_gallai(degrees):
            return degrees


def _parse_degree_list(text: str) -> tuple[int, ...]:
    """Degrees separated by commas, whitespace or both; each comma needs a
    degree on either side."""
    fields = text.split(",")
    if len(fields) > 1 and not all(f.strip() for f in fields):
        raise ValueError("empty field in degree list: a comma needs a degree each side")
    return tuple(int(p) for p in " ".join(fields).split())


def _resolve_degrees(args, seed: int) -> tuple[int, ...]:
    """The degrees the options give, else random ones drawn from `seed`."""
    if args.degrees is not None:
        return _parse_degree_list(args.degrees)
    if args.degree_file is not None:
        return _parse_degree_list(Path(args.degree_file).read_text())
    if args.degree_uniform is not None:
        return (args.degree_uniform,) * args.n
    return random_graphic_degrees(args.n, random.Random(f"{seed}-degrees"))


def _sim_config(args, degrees: tuple[int, ...], seed: int) -> SimConfig:
    return SimConfig(
        n=args.n,
        degrees=degrees,
        model=args.model,
        capacity_c=args.capacity_c,
        strict=args.strict,
        seed=seed,
    )


def _probability(text: str) -> float:
    """The value of a `--crash-prob` option: a number in [0, 1]."""
    try:
        p = float(text)
    except ValueError:
        p = float("nan")
    if not 0 <= p <= 1:
        raise argparse.ArgumentTypeError(f"crash probability {text} not in [0, 1]")
    return p


def _build_adversary(name: str, f: int, seed: int, args) -> tuple[object, str]:
    """Return the adversary and the description a trace header records."""
    if name == "none":
        return NoneAdversary(f), "none"
    if name == "random":
        return (
            RandomAdversary(seed, f, args.crash_prob),
            f"random:f={f}:seed={seed}:p={args.crash_prob}",
        )
    if name == "worst":
        return WorstCaseAdversary(f), f"worst:f={f}"
    if name == "scripted":
        if args.plan_file is None:
            raise ConfigError("--adversary scripted requires --plan-file")
        plan = parse_plan_file(Path(args.plan_file).read_text())
        return ScriptedAdversary(plan), f"scripted:{args.plan_file}"


# -- commands ---------------------------------------------------------------


def cmd_realize(args) -> int:
    degrees = _parse_degree_list(" ".join(args.degree))
    if not degrees:
        raise ValueError("no degrees given")
    outcome = havel_hakimi(DegreeSequence.from_degrees(degrees))
    if outcome.graph is None:
        print("unrealizable")
        return 1
    for u, v in outcome.graph.sorted_edges():
        print(f"{u} {v}")
    return 0


def cmd_simulate(args) -> int:
    if args.plan_file is not None and args.adversary != "scripted":
        raise ConfigError("--plan-file is read only by --adversary scripted")
    config = _sim_config(args, _resolve_degrees(args, args.seed), args.seed)
    config.check_budget(args.f)  # a scripted run ignores --f, which must still be valid
    adversary, desc = _build_adversary(args.adversary, args.f, args.seed, args)
    result = run_simulation(config, adversary)
    if args.trace is not None:
        write_trace(args.trace, result, desc)
    issues = check_execution(result)
    lines = _summary_lines(result, issues)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if issues else 0


def _summary_lines(result, issues) -> list[str]:
    m = result.metrics
    lines = [
        f"model={result.config.model} n={result.config.n} "
        f"degrees={','.join(str(d) for d in result.config.degrees)}",
        f"rounds={m.rounds_to_termination} messages={m.messages_sent} "
        f"crashes={len(result.crashes)} allokay_broadcasters={m.allokay_broadcasters}",
    ]
    if result.config.model == "ncc":
        lines.append(
            f"max_send_per_round={m.max_send_per_round} "
            f"max_recv_per_round={m.max_recv_per_round} "
            f"dropped_messages={m.dropped_messages}"
        )
    for rnd, node, delivered in result.crashes:
        shown = ",".join(str(j) for j in delivered) or "-"
        lines.append(f"crash round={rnd} node={node} delivered={shown}")
    texts = iter(view_texts(result.survivors(), _view_text))
    for o in result.nodes:
        if o.crashed_round is not None:
            lines.append(f"node {o.index}: crashed (round {o.crashed_round})")
        else:
            lines.append(f"node {o.index}: exit round={o.exit_round} {next(texts)}")
    lines.append("checks=ok" if not issues else "checks=FAILED")
    lines.extend(f"  issue: {msg}" for msg in issues)
    return lines


def _view_text(outcome, view) -> str:
    if outcome is None:
        shown = "none"
    elif outcome.graph is None:
        shown = "unrealizable"
    else:
        shown = "edges " + " ".join(f"{u}-{v}" for u, v in outcome.graph.sorted_edges())
    return f"D'=[{' '.join(f'{i}:{d}' for i, d in view)}] {shown}"


def cmd_sweep(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds {args.seeds} must be >= 1")
    f_values = [int(x) for x in args.f_list.split(",")]
    adversaries = args.adversary.split(",")
    # A scripted plan fixes its own crashes, so it cannot follow --f.
    for name in adversaries:
        if name not in ("none", "random", "worst"):
            raise ConfigError(f"sweep adversary {name!r} is not none, random or worst")
    # Every run is set up before the first starts, so a bad input exits 2
    # with no CSV written.
    grid = []
    for f in f_values:
        for name in adversaries:
            seeds = range(args.seeds) if name == "random" else [args.seed]
            for seed in seeds:
                config = _sim_config(args, _resolve_degrees(args, seed), seed)
                config.check_budget(f)
                adversary, _ = _build_adversary(name, f, seed, args)
                grid.append((f, name, seed, config, adversary))
    rows = []
    failed = False
    with contextlib.ExitStack() as stack:
        out = sys.stdout
        if args.out:
            out = stack.enter_context(open(args.out, "w", newline=""))
        writer = csv.DictWriter(out, fieldnames=REPORT_COLUMNS)
        # Each row is written as its run ends, the header with the first, so
        # a run that raises keeps the rows before it.
        for point in grid:
            row, issues = _sweep_row(args, *point)
            if not rows:
                writer.writeheader()
            writer.writerow(row)
            rows.append(row)
            failed = failed or bool(issues)
    _print_sweep_summary(rows)
    return 1 if failed else 0


def _sweep_row(
    args, f: int, name: str, seed: int, config: SimConfig, adversary
) -> tuple[dict, list[str]]:
    """One CSV row of the sweep and the run's `check_execution` issues."""
    result = run_simulation(config, adversary)
    issues = check_execution(result)
    agreement_ok = not any(i.startswith("agreement:") for i in issues)
    validity_ok = not any(i.startswith("validity:") for i in issues)
    exited = result.exited()
    if not agreement_ok:
        shown = "disagree"
    elif exited and erdos_gallai(exited[0].view.values()):
        shown = "realizable"
    else:
        shown = "unrealizable"
    return {
        "n": args.n,
        "f": f,
        "model": args.model,
        "adversary": name,
        "seed": seed,
        "rounds": result.metrics.rounds_to_termination,
        "messages": result.metrics.messages_sent,
        "agreement_ok": agreement_ok,
        "validity_ok": validity_ok,
        "verdict": shown,
    }, issues


def _print_sweep_summary(rows: list[dict]) -> None:
    import statistics  # here, so that only a sweep pays for its import

    by_f: dict[int, int] = {}
    for row in rows:
        by_f[row["f"]] = max(by_f.get(row["f"], 0), row["rounds"])
    print("# max rounds per f:", file=sys.stderr)
    for f in sorted(by_f):
        print(f"#   f={f}: {by_f[f]}", file=sys.stderr)
    if len(by_f) >= 2:
        fs = sorted(by_f)
        slope, intercept = statistics.linear_regression(fs, [by_f[f] for f in fs])
        print(
            f"# linear fit of max rounds vs f: slope={slope:.3f} "
            f"intercept={intercept:.3f}",
            file=sys.stderr,
        )


def cmd_verify(args) -> int:
    config = _sim_config(args, _resolve_degrees(args, args.seed), args.seed)
    report = verify_exhaustive(
        config, f=args.f, horizon=args.horizon, workers=args.workers
    )
    lines = [
        f"plans={report.plans_total} executions={report.executions_run} "
        f"runs={report.runs} violations={report.violating_plans} "
        f"max_rounds={report.max_rounds}"
    ]
    if report.ok:
        lines.append("PASS")
    else:
        events, issues = report.first_counterexample()
        lines.append("FAIL")
        lines.append("first counterexample (re-run with --adversary scripted):")
        lines.extend("  " + ln for ln in format_plan(CrashPlan(events)).splitlines())
        lines.extend(f"  issue: {msg}" for msg in issues)
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)  # before `--out`, which may fail to open
    if args.out:
        Path(args.out).write_text(text)
    return 0 if report.ok else 1


def cmd_replay(args) -> int:
    parsed = read_trace(args.trace)
    outcome = replay_trace(parsed, expect_model=args.model)
    if outcome.identical:
        print("identical")
        return 0
    print(f"divergence: {outcome.divergence}")
    return 1


# -- parser -------------------------------------------------------------------


def _add_common_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="clique size")
    degrees = p.add_mutually_exclusive_group()
    degrees.add_argument("--degrees", help="comma- or space-separated degree list")
    degrees.add_argument("--degree-file", help="file containing the degree list")
    degrees.add_argument(
        "--degree-uniform", type=int, help="assign every node this degree"
    )
    p.add_argument(
        "--model", choices=("cc", "ncc"), default="cc", help="communication model"
    )
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.add_argument(
        "--capacity-c",
        type=int,
        default=1,
        help="capacity multiplier c (limits are c*ceil(log2 n), ncc only)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail the run if any message is dropped (ncc)",
    )


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ConfigError, which `main` prints as
    one `error:` line; argparse would print its usage block first."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cliquesim",
        description="Fault-tolerant degree-sequence realization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("realize", help="realize a degree sequence directly")
    p.add_argument("degree", nargs="+", help="degree demands")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("simulate", help="run one execution")
    _add_common_sim_args(p)
    p.add_argument(
        "--adversary",
        choices=("none", "random", "worst", "scripted"),
        default="none",
    )
    p.add_argument("--f", type=int, default=0, help="fault budget")
    p.add_argument("--crash-prob", type=_probability, default=0.05)
    p.add_argument("--plan-file", help="crash plan for --adversary scripted")
    p.add_argument("--trace", help="write the execution trace to this file")
    p.add_argument("--out", help="write the summary here instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a (f, adversary, seed) grid")
    _add_common_sim_args(p)
    p.add_argument(
        "--f", dest="f_list", default="0", help="comma-separated fault budgets"
    )
    p.add_argument(
        "--adversary",
        default="random",
        help="comma-separated adversaries (none,random,worst)",
    )
    p.add_argument(
        "--seeds", type=int, default=1, help="seeds per point for random runs"
    )
    p.add_argument("--crash-prob", type=_probability, default=0.05)
    p.add_argument("--out", help="CSV report path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="exhaustively enumerate crash schedules")
    _add_common_sim_args(p)
    p.add_argument("--f", type=int, required=True, help="max crashes to enumerate")
    p.add_argument("--horizon", type=int, default=14, help="last crash round")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="re-execute a trace and compare")
    p.add_argument("--trace", required=True, help="trace file to replay")
    p.add_argument(
        "--model", choices=("cc", "ncc"), help="require the trace to use this model"
    )
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if [] in vars(args).values():  # argparse reads `--opt=--` as []
            raise ConfigError("'--' is not an option value")
        return args.func(args)
    except (AdversaryError, ConfigError, TraceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProtocolViolation, SimulationError) as exc:  # a failed run
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
