"""cliquesim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cliquesim is imported from its
`src/` directory. Each sample is a fresh interpreter (worker.py), started
one after another, never in parallel.

--trace 0 runs the workload's operation at least MIN_OPS times and as
often as fits in --seconds, plus SETUP_ONLY set-up-only samples, and reports
the medians of the end-to-end metrics. --trace 1 runs the operation once
untraced and once with every layer wrapped, and reports the per-layer
metrics, after checking that the traced run reached every layer the
workload exercises and produced the same outputs.

Workloads, metrics and their intended links are described in NOTES.md.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import EXERCISES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 3
SETUP_ONLY = 9
# Every run must end within 180 s: no operation sample starts after
# LAST_START_S, and any sample still running at DEADLINE_S is killed.
LAST_START_S = 120
DEADLINE_S = 170


class WorkerFailed(Exception):
    pass


def sample(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its report."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), repr(spawned_at), mode]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}")
    report = json.loads(lines[-1])
    if report.get("failures"):
        for failure in report["failures"]:
            print(f"{workload} {mode}: FAILED {failure}")
    return report


def untraced(workload: str, seed: int, seconds: int) -> tuple[dict, int, int]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    ops, took = [], []
    while len(ops) < MIN_OPS or (
        time.monotonic() - start + statistics.median(took) <= seconds
    ):
        if ops and time.monotonic() - start > LAST_START_S:
            break
        began = time.monotonic()
        ops.append(sample(workload, seed, "op+checks" if not ops else "op", deadline))
        took.append(time.monotonic() - began)
        print(f"{workload} op {len(ops)}: setup_s={ops[-1]['setup_s']:.4f} "
              f"raw_wall_s={ops[-1]['raw_wall_s']:.4f} wall_s={ops[-1]['wall_s']:.4f}")
    setups = [r["setup_s"] for r in ops]
    setups += [sample(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_ONLY)]
    timed = [r for r in ops if "rounds" in r]
    if not timed:
        raise WorkerFailed("no operation produced outputs")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "schedules_per_s": statistics.median(r["schedules"] / r["wall_s"] for r in timed),
        "rounds_per_s": statistics.median(r["rounds"] / r["wall_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    attempted = sum(r["attempted"] for r in ops)
    failed = sum(r["failed"] for r in ops)
    return metrics, attempted, failed


def traced(workload: str, seed: int) -> tuple[dict, int, int]:
    deadline = time.monotonic() + DEADLINE_S
    plain = sample(workload, seed, "op+checks", deadline)
    wrapped = sample(workload, seed, "traced", deadline)
    metrics = dict(wrapped["layers"])
    metrics["bench.trace_overhead_frac"] = wrapped["wall_s"] / plain["wall_s"] - 1
    problems = [
        f"layer {layer} recorded no spans"
        for layer in EXERCISES[workload]
        if not wrapped["layer_calls"][layer]
    ]
    if metrics["groups.enforce_calls"] or metrics["groups.dropped"]:
        problems.append("capacity enforcement ran in a strict or cc run")
    if wrapped.get("outputs") != plain.get("outputs"):
        problems.append("traced outputs differ from untraced outputs")
    counts = WORKLOADS[workload]().engine_counts(plain.get("outputs"))
    if counts is not None and counts != (metrics["engine.rounds"], metrics["engine.deliveries"]):
        problems.append(f"engine counts {counts} untraced, "
                        f"{metrics['engine.rounds'], metrics['engine.deliveries']} traced")
    for problem in problems:
        print(f"{workload} self-check: FAILED {problem}")
    attempted = plain["attempted"] + wrapped["attempted"] + 1
    failed = plain["failed"] + wrapped["failed"] + int(bool(problems))
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cliquesim" / "__init__.py").is_file():
        print(f"error: no cliquesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed)
        else:
            metrics, attempted, failed = untraced(args.workload, args.seed, args.seconds)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
