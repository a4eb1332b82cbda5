"""Run the benchmark over several seeds and summarise it.

    python3 perfbench/record.py --seeds 1-10 [--workloads a,b] [--label NAME]

Runs `run.py --trace 0` once per seed and workload, seeds in the outer loop
so that each workload's runs spread over the whole recording, then one
`run.py --trace 1` per workload. Prints, per workload and end-to-end metric,
the median, the quartiles and the interquartile range as a share of the
median (the spread the bounds in BENCHMARK.json are checked against).
With --label, appends the summary as one point to trajectory.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", help="append the summary to trajectory.json")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failed = attempted = 0
    for seed in args.seeds:
        for workload in workloads:
            result = run(workload, seed, args.seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"seed {seed} {workload}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
    per_layer = {}
    for workload in workloads:
        result = run(workload, args.seeds[0], args.seconds, 1)
        attempted += result["attempted"]
        failed += result["failed"]
        per_layer[workload] = {k: m["value"] for k, m in result["metrics"].items()}

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, dict] = {}
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            spread = (q3 - q1) / med
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals)}
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload} {name}: median={med:.6g} spread={spread:.4f} "
                  f"bound={bounds[name]}{flag}")
    print(f"attempted={attempted} failed={failed}")

    if args.label:
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        points.append({
            "label": args.label,
            "date": datetime.date.today().isoformat(),
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "cpu": cpu_model(),
            },
            "run_seconds": args.seconds,
            "seeds": args.seeds,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": summary,
            "per_layer": per_layer,
        })
        path.write_text(json.dumps(points, indent=1) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
