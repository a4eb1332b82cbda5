"""Pins whole executions, not just their verdicts: every run of a fixed grid
(both models, small and odd clique sizes, seeded random crashes and the
worst-case adversary) and the exhaustive n=3 verification, with and without
each rule mutation, must hash to the digests in
`tests/data/golden_engine_grid.sha256`. So must the exhaustive
verification at n=4 in both models, where both mutations are caught, and
the acceptance suite's enumerations in `PINNED_ENUMS`, checked there from
its own runs.

Each run's digest covers the trace rounds, every node outcome, the crash
log, the metrics and `check_execution`'s issues, so a change to how the
engine schedules its nodes that alters any observable step shows here.
The grid holds the cases such a change gets wrong first: a node that exits
inside `emit` (n=1, and every terminator whose list is empty) and an ncc
node that is active in a round with no recipients (at n=2 and n=3, a node
sending to its own one-member group). A block per model at n=64 and n=128
adds many crashes with partial delivery in phase 1, where the small sizes
have few: in both models the group sends, each kept once for its group, mix
with per-recipient mail, and ncc adds many groups.

Regenerate the data file, only for an intended behaviour change, with

    PYTHONPATH=src python tests/test_engine_grid.py > tests/data/golden_engine_grid.sha256
"""

import dataclasses
import hashlib
import json
import random
from pathlib import Path

from cliquesim.adversary import RandomAdversary, WorstCaseAdversary
from cliquesim.engine import SimConfig, run_simulation
from cliquesim.harness import VerifyReport, check_execution, verify_exhaustive
from cliquesim.protocol import MUTATE_BELOW_FOLD_DISCARDS, MUTATE_NO_HEARD_ONCE_UPDATE
from cliquesim.trace import round_records

GOLDEN = Path(__file__).parent / "data" / "golden_engine_grid.sha256"
SIZES = (1, 2, 3, 5, 9, 17, 40)
LARGE_SIZES = (64, 128)
RANDOM_SEEDS = range(25)
MUTATIONS = (None, MUTATE_BELOW_FOLD_DISCARDS, MUTATE_NO_HEARD_ONCE_UPDATE)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_digest(config: SimConfig, adversary) -> str:
    result = run_simulation(config, adversary)
    return _digest(
        {
            "trace": round_records(result),
            "nodes": [dataclasses.asdict(o) for o in result.nodes],
            "crashes": result.crashes,
            "metrics": dataclasses.asdict(result.metrics),
            "issues": check_execution(result),
        }
    )


def grid_cases(models=("cc", "ncc"), sizes=SIZES):
    """(label, config, adversary) for every run of the grid."""
    for model in models:
        for n in sizes:
            for seed in RANDOM_SEEDS:
                rng = random.Random(f"grid-{model}-{n}-{seed}")
                degrees = tuple(rng.randrange(n) for _ in range(n))
                config = SimConfig(n=n, degrees=degrees, model=model, seed=seed)
                f = seed % n
                yield (
                    f"{model} n={n} random:{seed} f={f}",
                    config,
                    RandomAdversary(seed, f, crash_probability=0.25),
                )
            degrees = tuple(random.Random(f"grid-{model}-{n}").randrange(n) for _ in range(n))
            config = SimConfig(n=n, degrees=degrees, model=model)
            yield f"{model} n={n} worst f={n // 2}", config, WorstCaseAdversary(n // 2)


def report_digest(report: VerifyReport) -> str:
    return _digest(
        {
            "plans": report.plans_total,
            "executions": report.executions_run,
            "violations": report.violations,
            "max_rounds": report.max_rounds,
            "max_messages": report.max_messages,
            "first": report.first_counterexample(),
        }
    )


def verify_digest(config: SimConfig) -> str:
    return report_digest(verify_exhaustive(config, f=2, horizon=14, workers=1))


def verify_cases():
    """(label, config) of each exhaustive verification pinned at f=2, with
    and without each rule mutation: cc at n=3, cc and ncc at n=4."""
    bases = [("verify", SimConfig(n=3, degrees=(1, 1, 2)))]
    for model in ("cc", "ncc"):
        bases.append((f"verify {model}", SimConfig(n=4, degrees=(1, 2, 2, 1), model=model)))
    for prefix, base in bases:
        for mutation in MUTATIONS:
            mutations = frozenset({mutation}) if mutation else frozenset()
            config = dataclasses.replace(base, mutations=mutations)
            yield f"{prefix} n={base.n} f=2 mutation={mutation}", config


# The acceptance suite's enumerations pinned here, by label: (model, n, f,
# degrees, horizon). Crashes at cc n=4 stop at round 14; the others are
# explored to termination (the horizon is the engine's round cap). The ncc
# runs are strict.
PINNED_ENUMS = {
    "verify cc n=4 f=3 mutation=None": ("cc", 4, 3, (1, 2, 2, 1), 14),
    "verify cc n=5 f=2 horizon=90": ("cc", 5, 2, (1, 2, 2, 1, 2), 90),
    "verify ncc strict n=4 f=2 horizon=160": ("ncc", 4, 2, (1, 2, 2, 1), 160),
    "verify ncc strict n=6 f=1 horizon=180": ("ncc", 6, 1, (1, 2, 2, 1, 2, 2), 180),
}


def enum_line(report: VerifyReport, label: str) -> str:
    """The golden line of one of `PINNED_ENUMS`."""
    return f"{report_digest(report)}  {label}"


def digest_lines(cases) -> list[str]:
    return [f"{run_digest(c, a)}  {label}" for label, c, a in cases]


def grid_lines() -> list[str]:
    return digest_lines(grid_cases())


def large_lines(model: str) -> list[str]:
    return digest_lines(grid_cases(models=(model,), sizes=LARGE_SIZES))


def verify_lines(n: int) -> list[str]:
    return [f"{verify_digest(c)}  {label}" for label, c in verify_cases() if c.n == n]


def _by_label(lines: list[str]) -> dict[str, str]:
    return {label: digest for digest, label in (ln.split("  ", 1) for ln in lines)}


def assert_golden(actual: list[str]) -> None:
    expected = _by_label(GOLDEN.read_text().splitlines())
    changed = [
        label for label, digest in _by_label(actual).items() if expected.get(label) != digest
    ]
    assert not changed, f"{len(changed)} of {len(actual)} digests changed: {changed[:3]}"


def test_grid_runs_match_golden_digests():
    assert_golden(grid_lines())


def test_large_cc_runs_match_golden_digests():
    assert_golden(large_lines("cc"))


def test_large_ncc_runs_match_golden_digests():
    assert_golden(large_lines("ncc"))


def test_exhaustive_n3_matches_golden_digests():
    """At n=3 neither mutation is caught, so the three reports agree; the
    digests still pin every count and the (empty) violation lists."""
    assert_golden(verify_lines(3))


def test_exhaustive_n4_matches_golden_digests():
    """At n=4 both mutations are caught, so the violations and first
    counterexamples of both models are pinned too."""
    assert_golden(verify_lines(4))


if __name__ == "__main__":
    lines = grid_lines() + verify_lines(3) + verify_lines(4)
    for label, (model, n, f, degrees, horizon) in PINNED_ENUMS.items():
        config = SimConfig(n=n, degrees=degrees, model=model, strict=model == "ncc")
        enum = verify_exhaustive(config, f=f, horizon=horizon, workers=2)
        lines.append(enum_line(enum, label))
    lines += large_lines("cc") + large_lines("ncc")
    print("\n".join(lines))
