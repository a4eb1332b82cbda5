"""The benchmark's workloads: inputs built from the seed, one timed operation
each, and the checks on that operation's outputs.

Every workload is deterministic: the chosen adversaries and the simulator
use no randomness, so the seed only reaches the program as `--seed` /
`SimConfig.seed` (and, for trace-ncc128, the trace header). `cliquesim` is
imported inside `setup`, so set-up time covers the import.

The expected values below were recorded at the commit that introduced the
benchmark; a performance-only change must reproduce them exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re

# Layers, named after the cliquesim modules, that each workload must reach.
# The traced run fails its self-check if one of them records no span.
EXERCISES = {
    "verify-n4": ("cli", "harness", "adversary", "engine", "protocol", "degseq"),
    "cc-n1024": ("harness", "adversary", "engine", "protocol", "degseq"),
    "trace-ncc128": (
        "cli", "harness", "adversary", "engine", "protocol", "groups", "degseq",
        "trace",
    ),
}


def _cli(cs, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cs.cli.main(argv)
    return rc, out.getvalue()


class VerifyN4:
    """Exhaustive crash-schedule verification of a 4-node clique, f <= 2."""

    name = "verify-n4"
    argv = [
        "verify", "--n", "4", "--f", "2", "--degrees", "1,2,2,1",
        "--horizon", "14", "--workers", "1",
    ]
    # Size of the schedule space; fixed by the instance, not by how many
    # executions the verifier chooses to run.
    schedules = 75_713
    # Rounds stepped over one execution of every schedule in that space.
    space_rounds = 291_276

    def setup(self, seed: int, workdir: str) -> None:
        import cliquesim
        import cliquesim.cli
        from cliquesim.protocol import (
            MUTATE_BELOW_FOLD_DISCARDS,
            MUTATE_NO_HEARD_ONCE_UPDATE,
        )

        self.cs = cliquesim
        self.args = self.argv + ["--seed", str(seed)]
        self.mutated = {
            m: cliquesim.SimConfig(
                n=4, degrees=(1, 2, 2, 1), seed=seed, mutations=frozenset({m})
            )
            for m in (MUTATE_BELOW_FOLD_DISCARDS, MUTATE_NO_HEARD_ONCE_UPDATE)
        }

    def run(self) -> dict:
        rc, stdout = _cli(self.cs, self.args)
        return {"rc": rc, "stdout": stdout}

    def check(self, out: dict) -> list[str]:
        lines = out["stdout"].splitlines()
        fields = lines[0].split() if lines else []
        bad = []
        for want in ("violations=0", "max_rounds=14"):
            if want not in fields:
                bad.append(f"verify printed {lines[:1]}, expected {want}")
        if "PASS" not in lines or out["rc"] != 0:
            bad.append(f"verify exited {out['rc']} without PASS")
        return bad

    def extra_checks(self) -> list[str]:
        """Untimed: the verifier must catch both protocol mutations."""
        bad = []
        for mutation, config in self.mutated.items():
            report = self.cs.verify_exhaustive(
                config, f=2, horizon=14, workers=1, stop_on_first=True
            )
            if report.ok:
                bad.append(f"mutation {mutation} was not caught")
        return bad

    def rounds(self, out: dict) -> int:
        return self.space_rounds

    def engine_counts(self, out: dict | None) -> tuple[int, int] | None:
        """(rounds, deliveries) the untraced outputs show; the verifier's
        report does not show them."""
        return None


class CcN1024:
    """One cc run at n=1024 under the `worst` adversary with f=512, then
    `check_execution`, through the library."""

    name = "cc-n1024"
    n = 1024
    expected_rounds = 1541
    expected_deliveries = 2_619_392
    schedules = 1

    def setup(self, seed: int, workdir: str) -> None:
        import cliquesim
        from cliquesim.adversary import WorstCaseAdversary

        self.cs = cliquesim
        self.config = cliquesim.SimConfig(
            n=self.n, degrees=(256,) * self.n, model="cc", seed=seed
        )
        self.adversary = WorstCaseAdversary(512)

    def run(self) -> dict:
        result = self.cs.run_simulation(self.config, self.adversary)
        issues = self.cs.check_execution(result)
        return {
            "issues": issues,
            "rounds": len(result.metrics.per_round_counts),
            "deliveries": result.metrics.messages_sent,
        }

    def check(self, out: dict) -> list[str]:
        bad = [f"check_execution: {issue}" for issue in out["issues"]]
        if out["rounds"] != self.expected_rounds:
            bad.append(f"rounds {out['rounds']} != {self.expected_rounds}")
        if out["deliveries"] != self.expected_deliveries:
            bad.append(
                f"deliveries {out['deliveries']} != {self.expected_deliveries}"
            )
        return bad

    def extra_checks(self) -> list[str]:
        return []

    def rounds(self, out: dict) -> int:
        return out["rounds"]

    def engine_counts(self, out: dict | None) -> tuple[int, int] | None:
        return (out["rounds"], out["deliveries"]) if out else None


class TraceNcc128:
    """`simulate --trace` of an ncc run at n=128, then `replay` of the trace,
    through the CLI."""

    name = "trace-ncc128"
    # sha256 of the trace with the header's seed written as 0.
    expected_sha256 = (
        "f69172673ecd5196f4c952600595ccd9195f7f643f41a031a1567185651fc86e"
    )
    schedules = 1

    def setup(self, seed: int, workdir: str) -> None:
        import cliquesim
        import cliquesim.cli

        self.cs = cliquesim
        self.seed = seed
        self.trace_path = f"{workdir}/run.jsonl"
        self.summary_path = f"{workdir}/summary.txt"
        self.simulate = [
            "simulate", "--n", "128", "--model", "ncc", "--strict",
            "--adversary", "worst", "--f", "4", "--degree-uniform", "64",
            "--seed", str(seed), "--trace", self.trace_path,
            "--out", self.summary_path,
        ]
        self.replay = ["replay", "--trace", self.trace_path]

    def run(self) -> dict:
        sim_rc, _ = _cli(self.cs, self.simulate)
        replay_rc, replay_out = _cli(self.cs, self.replay)
        with open(self.summary_path) as fh:
            summary = fh.read()
        with open(self.trace_path, "rb") as fh:
            trace = fh.read()
        header, _, rest = trace.partition(b"\n")
        seed_field = b'"seed":%d,' % self.seed
        normalized = header.replace(seed_field, b'"seed":0,') + b"\n" + rest
        counts = re.search(r"^rounds=(\d+) messages=(\d+) ", summary, re.M)
        return {
            "simulate_rc": sim_rc,
            "checks": summary.splitlines()[-1] if summary else "",
            "rounds": int(counts[1]) if counts else 0,
            "messages": int(counts[2]) if counts else 0,
            "replay_rc": replay_rc,
            "replay": replay_out.strip(),
            "seed_in_header": header.count(seed_field),
            "sha256": hashlib.sha256(normalized).hexdigest(),
        }

    def check(self, out: dict) -> list[str]:
        bad = []
        if out["simulate_rc"] != 0 or out["checks"] != "checks=ok":
            bad.append(f"simulate exited {out['simulate_rc']}: {out['checks']}")
        if out["replay_rc"] != 0 or out["replay"] != "identical":
            bad.append(f"replay exited {out['replay_rc']}: {out['replay']}")
        if out["seed_in_header"] != 1:
            bad.append("trace header does not record the seed")
        if out["sha256"] != self.expected_sha256:
            bad.append(f"trace sha256 {out['sha256']} differs")
        return bad

    def extra_checks(self) -> list[str]:
        return []

    def rounds(self, out: dict) -> int:
        # The recorded run and its replay each simulate every round.
        return 2 * out["rounds"]

    def engine_counts(self, out: dict | None) -> tuple[int, int] | None:
        return (2 * out["rounds"], 2 * out["messages"]) if out else None


WORKLOADS = {w.name: w for w in (VerifyN4, CcN1024, TraceNcc128)}
