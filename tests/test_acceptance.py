"""Acceptance gate: each release criterion at its stated tolerance, one
printed pass/fail line per criterion (run with -s to see them live).

The expensive execution sets (the exhaustive crash enumeration, the n=64
scaling sweep, the capacitated-mode grid) are produced once per session and
shared by the criteria that assert different properties over them.
"""

import numpy as np
import pytest

from cliquesim.adversary import (
    NoneAdversary,
    RandomAdversary,
    WorstCaseAdversary,
)
from cliquesim.degseq import (
    DegreeSequence,
    erdos_gallai,
    havel_hakimi,
    verify_degrees,
)
from cliquesim.engine import SimConfig, run_simulation
from cliquesim.groups import GroupLayout, log2_ceil
from cliquesim.harness import check_execution, verify_exhaustive
from cliquesim.protocol import (
    MUTATE_BELOW_FOLD_DISCARDS,
    MUTATE_NO_HEARD_ONCE_UPDATE,
)
from cliquesim.trace import read_trace, replay_trace, write_trace
from oracles import brute_force_realizable
from test_engine_grid import PINNED_ENUMS, assert_golden, enum_line

pytestmark = pytest.mark.slow

WORKERS = 2
ENUM_HORIZON = 14

# Round-bound constants. Uncapacitated: 3 setup rounds plus at most 5 rounds
# per crash (2 retransmit + 3 failover). Capacitated: every term scales by
# the group count G; phase 1 (2G) + activation + failover (3G per budgeted
# crash, telescoped) + retransmissions (2G per crash) + exit stagger fit
# under 5*G*(f+1), frozen here as the regression bound.
NCC_ROUND_BOUND_A = 5
NCC_ROUND_BOUND_B = 0


def cc_round_bound(f: int) -> int:
    return 3 + 5 * f


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# -- shared execution sets ----------------------------------------------------


@pytest.fixture(scope="module")
def enum_reports():
    """Criterion 1/2/5/9 oracle: every crash plan at cc n=3 (f<=2) and n=4
    (f<=3), all crash rounds up to the horizon, all delivery subsets; and,
    explored to termination (the horizon is the engine's round cap), cc
    n=5 (f<=2), ncc n=4 (f<=2) and ncc n=6 (f<=1). The ncc runs are strict,
    so a dropped message is a violation: capacity is judged exhaustively.
    All but n=3 are the engine grid's `PINNED_ENUMS`."""
    reports = {}
    cases = [("cc", 3, 2, (1, 1, 2), ENUM_HORIZON), *PINNED_ENUMS.values()]
    for model, n, f, degrees, horizon in cases:
        config = SimConfig(n=n, degrees=degrees, model=model, strict=model == "ncc")
        reports[(model, n, f)] = verify_exhaustive(
            config, f=f, horizon=horizon, workers=WORKERS
        )
    return reports


@pytest.fixture(scope="module")
def scaling_runs():
    """Criterion 4/5/9 set: n=64, the round-stretching adversary plus 100
    random seeds per fault budget."""
    n = 64
    runs = []
    for f in (0, 8, 16, 32, 63):
        config = SimConfig(n=n, degrees=(2,) * n)
        adversaries = [("worst", WorstCaseAdversary(f))]
        adversaries += [
            (f"random:{seed}", RandomAdversary(seed, f)) for seed in range(100)
        ]
        for label, adversary in adversaries:
            result = run_simulation(config, adversary)
            runs.append(
                {
                    "f": f,
                    "label": label,
                    "rounds": result.metrics.rounds_to_termination,
                    "messages": result.metrics.messages_sent,
                    "issues": check_execution(result),
                }
            )
    return runs


@pytest.fixture(scope="module")
def ncc_runs():
    """Criterion 8/9 set: strict capacitated mode across the size/fault grid
    under the deterministic round-stretching adversary."""
    runs = []
    for n in (8, 16, 32):
        g = GroupLayout.for_clique(n).group_count
        for f in (0, 1, 4):
            config = SimConfig(n=n, degrees=(1,) * n, model="ncc", strict=True)
            result = run_simulation(config, WorstCaseAdversary(f))
            runs.append(
                {
                    "n": n,
                    "f": f,
                    "g": g,
                    "rounds": result.metrics.rounds_to_termination,
                    "max_send": result.metrics.max_send_per_round,
                    "max_recv": result.metrics.max_recv_per_round,
                    "drops": result.metrics.dropped_messages,
                    "issues": check_execution(result),
                }
            )
    return runs


# -- criteria -----------------------------------------------------------------


def test_criterion_01_agreement_oracle(enum_reports):
    details = []
    ok = True
    for (model, n, f), rep in enum_reports.items():
        ok &= rep.executions_run == rep.plans_total and not rep.violations
        details.append(
            f"{model} n={n},f<={f}: {rep.executions_run} executions, "
            f"{len(rep.violations)} violations"
        )
        if rep.violations:
            details.append(f"first: {rep.first_counterexample()}")
    report("criterion 1 (agreement oracle)", ok, "; ".join(details))


def test_enumeration_report_matches_golden_digest(enum_reports):
    """The cc n=4, f<=3 report and the three explored to termination,
    pinned in the engine grid's data file."""
    assert_golden(
        [enum_line(enum_reports[case[:3]], label) for label, case in PINNED_ENUMS.items()]
    )


def test_criterion_02_validity(enum_reports, scaling_runs):
    enum_validity = [
        v
        for rep in enum_reports.values()
        for v in rep.violations
        if any(msg.startswith("validity:") for msg in v[1])
    ]
    sweep_validity = [
        r
        for r in scaling_runs
        if any(msg.startswith("validity:") for msg in r["issues"])
    ]
    ok = not enum_validity and not sweep_validity
    report(
        "criterion 2 (validity)",
        ok,
        f"{len(enum_validity)} enumerated + {len(sweep_validity)} sweep violations",
    )


def test_criterion_03_fault_free_exactness():
    ok = True
    details = []
    for n in (2, 8, 64):
        config = SimConfig(n=n, degrees=(1,) * n)
        result = run_simulation(config, NoneAdversary())
        rounds = result.metrics.rounds_to_termination
        messages = result.metrics.messages_sent
        expected = 2 * n * (n - 1) + (n - 1)
        ok &= rounds == 3 and messages == expected
        details.append(f"n={n}: rounds={rounds}, messages={messages}/{expected}")
    report("criterion 3 (fault-free exactness)", ok, "; ".join(details))


def test_criterion_04_round_scaling(scaling_runs):
    max_rounds = {}
    for r in scaling_runs:
        max_rounds[r["f"]] = max(max_rounds.get(r["f"], 0), r["rounds"])
    bound_ok = all(max_rounds[f] <= cc_round_bound(f) for f in max_rounds)
    fs = sorted(max_rounds)
    slope, _ = np.polyfit(fs, [max_rounds[f] for f in fs], 1)
    slope_ok = 1.0 <= slope <= 5.0
    report(
        "criterion 4 (round scaling)",
        bound_ok and slope_ok,
        f"max rounds {[(f, max_rounds[f]) for f in fs]}, slope={slope:.2f}",
    )


def test_criterion_05_message_bound(enum_reports, scaling_runs):
    # per-execution accounting bound is asserted inside check_execution for
    # every run in both sets; here surviving violations and the absolute
    # quadratic ceiling are checked.
    bound_violations = [
        v
        for rep in enum_reports.values()
        for v in rep.violations
        if any(msg.startswith("messages:") for msg in v[1])
    ] + [
        r
        for r in scaling_runs
        if any(m.startswith("messages:") for m in r["issues"])
    ]
    enum_ceiling_ok = all(
        rep.max_messages <= 5 * n * n for (_, n, _), rep in enum_reports.items()
    )
    sweep_ceiling_ok = all(r["messages"] <= 5 * 64 * 64 for r in scaling_runs)
    ok = not bound_violations and enum_ceiling_ok and sweep_ceiling_ok
    report(
        "criterion 5 (message bound)",
        ok,
        f"{len(bound_violations)} bound violations; ceilings "
        f"enum={enum_ceiling_ok} sweep={sweep_ceiling_ok}",
    )


def test_criterion_06_lower_bound_probes():
    n = 32
    ok = True
    details = []
    for f in (4, 8, 16):
        config = SimConfig(n=n, degrees=(1,) * n)
        result = run_simulation(config, WorstCaseAdversary(f))
        rounds = result.metrics.rounds_to_termination
        messages = result.metrics.messages_sent
        ok &= rounds >= f and messages >= n * (n - 1)
        details.append(f"f={f}: rounds={rounds}, messages={messages}")
    report(
        "criterion 6 (lower-bound probes)",
        ok,
        f"n(n-1)={n * (n - 1)}; " + "; ".join(details),
    )


def test_criterion_07_degseq_triple_agreement():
    from itertools import combinations_with_replacement

    checked = 0
    for n in range(1, 8):
        for degrees in combinations_with_replacement(range(n + 1), n):
            eg = erdos_gallai(degrees)
            brute = brute_force_realizable(degrees)
            outcome = havel_hakimi(degrees)
            assert eg == brute == outcome.realizable, degrees
            if outcome.realizable:
                assert verify_degrees(
                    outcome.graph, DegreeSequence.from_degrees(degrees)
                ), degrees
            checked += 1
    report(
        "criterion 7 (degree-sequence triple agreement)",
        True,
        f"{checked} multisets of length <= 7 checked",
    )


def test_criterion_08_ncc_capacity_and_scaling(ncc_runs):
    ok = True
    details = []
    for r in ncc_runs:
        limit = log2_ceil(r["n"])
        bound = NCC_ROUND_BOUND_A * r["g"] * (r["f"] + 1) + NCC_ROUND_BOUND_B
        good = (
            r["max_send"] <= limit
            and r["max_recv"] <= limit
            and r["drops"] == 0
            and r["rounds"] <= bound
            and not r["issues"]
        )
        ok &= good
        if not good:
            details.append(f"n={r['n']} f={r['f']}: {r}")
    report(
        "criterion 8 (capacitated capacity and scaling)",
        ok,
        "; ".join(details) if details else f"{len(ncc_runs)} grid points clean",
    )


def test_criterion_09_single_active(enum_reports, scaling_runs, ncc_runs):
    # a double-active round raises inside the engine, so it would surface as
    # a recorded violation or issue in any of the three execution sets
    hits = [
        v
        for rep in enum_reports.values()
        for v in rep.violations
        if any("simultaneously active" in msg for msg in v[1])
    ]
    hits += [
        r
        for r in list(scaling_runs) + list(ncc_runs)
        if any("simultaneously active" in m for m in r["issues"])
    ]
    report(
        "criterion 9 (single active transmitter)",
        not hits,
        f"{len(hits)} double-active rounds across all execution sets",
    )


def test_criterion_10_replay_fidelity(tmp_path):
    cases = []
    for seed in range(10):
        cases.append(("cc", 6 + seed % 3, 2, seed))
    for seed in range(10):
        cases.append(("ncc", 8 + (seed % 2) * 8, 2, 100 + seed))
    identical = 0
    for model, n, f, seed in cases:
        config = SimConfig(n=n, degrees=(2,) * n, model=model, seed=seed)
        result = run_simulation(config, RandomAdversary(seed, f))
        path = tmp_path / f"run-{model}-{seed}.jsonl"
        write_trace(path, result, f"random:{seed}")
        outcome = replay_trace(read_trace(path))
        identical += outcome.identical
    report(
        "criterion 10 (replay fidelity)",
        identical == len(cases),
        f"{identical}/{len(cases)} traces replay byte-identically",
    )


def test_criterion_11_mutation_sensitivity():
    caught = {}
    for mutation in (MUTATE_NO_HEARD_ONCE_UPDATE, MUTATE_BELOW_FOLD_DISCARDS):
        config = SimConfig(
            n=4, degrees=(1, 2, 2, 1), mutations=frozenset({mutation})
        )
        rep = verify_exhaustive(
            config, f=3, horizon=ENUM_HORIZON, stop_on_first=True
        )
        caught[mutation] = not rep.ok
    report(
        "criterion 11 (mutation sensitivity)",
        all(caught.values()),
        "; ".join(f"{m}: {'caught' if c else 'MISSED'}" for m, c in caught.items()),
    )
