"""Pins whole executions, not just their verdicts: every run of a fixed grid
(both models, small and odd clique sizes, seeded random crashes and the
worst-case adversary) and the exhaustive n=3 verification, with and without
each rule mutation, must hash to the digests in
`tests/data/golden_engine_grid.sha256`.

Each run's digest covers the trace rounds, every node outcome, the crash
log, the metrics and `check_execution`'s issues, so a change to how the
engine schedules its nodes that alters any observable step shows here.
The grid holds the cases such a change gets wrong first: a node that exits
inside `emit` (n=1, and every terminator whose list is empty) and an ncc
node that is active in a round with no recipients (at n=2 and n=3, a node
sending to its own one-member group). A block per model at n=64 and n=128
adds many crashes with partial delivery in phase 1, where the small sizes
have few: in cc the broadcasts that reach every peer mix with per-recipient
mail, and in ncc all of phase 1 is per-recipient mail.

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
from cliquesim.harness import check_execution, verify_exhaustive
from cliquesim.protocol import MUTATE_BELOW_FOLD_DISCARDS, MUTATE_NO_HEARD_ONCE_UPDATE
from cliquesim.trace import round_records

GOLDEN = Path(__file__).parent / "data" / "golden_engine_grid.sha256"
SIZES = (1, 2, 3, 5, 9, 17, 40)
LARGE_SIZES = (64, 128)
RANDOM_SEEDS = range(25)


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


def verify_digest(mutations: frozenset[str]) -> str:
    config = SimConfig(n=3, degrees=(1, 1, 2), mutations=mutations)
    report = verify_exhaustive(config, f=2, horizon=14, workers=1)
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


def digest_lines(cases) -> list[str]:
    return [f"{run_digest(c, a)}  {label}" for label, c, a in cases]


def grid_lines() -> list[str]:
    return digest_lines(grid_cases())


def large_lines(model: str) -> list[str]:
    return digest_lines(grid_cases(models=(model,), sizes=LARGE_SIZES))


def verify_lines() -> list[str]:
    lines = []
    for mutation in (None, MUTATE_BELOW_FOLD_DISCARDS, MUTATE_NO_HEARD_ONCE_UPDATE):
        mutations = frozenset({mutation}) if mutation else frozenset()
        lines.append(f"{verify_digest(mutations)}  verify n=3 f=2 mutation={mutation}")
    return lines


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
    assert_golden(verify_lines())


if __name__ == "__main__":
    lines = grid_lines() + verify_lines() + large_lines("cc") + large_lines("ncc")
    print("\n".join(lines))
