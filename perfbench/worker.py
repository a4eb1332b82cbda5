"""One benchmark process: set a workload up, run its operation once, check
the outputs, and print one JSON line.

Started by run.py, one fresh interpreter per sample, so every sample pays
interpreter start and import like a user's `cliquesim` run does, starts
with cold caches, and has a peak RSS of its own.

    python3 perfbench/worker.py WORKLOAD SEED SPAWNED_AT MODE

MODE is `setup` (stop after set-up), `op` (run the operation untraced),
`op+checks` (also run the workload's untimed extra checks) or `traced`
(run the operation with every layer wrapped). SPAWNED_AT is the parent's
CLOCK_MONOTONIC reading just before it started this process.
"""

from __future__ import annotations

import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# Median time of one speed probe on the reference machine (2-vCPU Xeon VM,
# Python 3.11). Reported times are scaled to that speed.
PROBE_REF_S = 0.00065
PROBE_EVERY_S = 0.05


class SpeedProbe:
    """Samples the host's speed while the operation runs.

    Every PROBE_EVERY_S a SIGALRM handler times a fixed piece of Python
    work on the same CPU, between the operation's own bytecodes. On a
    shared VM the CPU speed drifts by tens of percent over seconds; scaling
    the measured time by PROBE_REF_S / (median probe time) removes most of
    that drift from the reported numbers.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(3000):
            d[i % 1000] = d.get(i % 1000, 0) + i
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        if not self.samples:
            return 1.0
        return PROBE_REF_S / statistics.median(self.samples)


def main() -> int:
    name, seed, spawned_at, mode = sys.argv[1:5]
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        workload = WORKLOADS[name]()
        workload.setup(int(seed), workdir)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawned_at)
        source = Path(workload.cs.__file__).resolve()
        if ROOT / "src" not in source.parents:
            print(f"cliquesim imported from {source}, not this checkout", file=sys.stderr)
            return 2
        report = {"setup_s": setup_s}
        if mode != "setup":
            report.update(measure(workload, mode))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(workload, mode: str) -> dict:
    tracer = None
    failures = []
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        failures += [f"unwrapped import site {site}" for site in tracer.install()]
    probe = SpeedProbe()
    start = time.perf_counter()
    try:
        with probe:
            outputs = workload.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        outputs = None
        failures.append(f"{type(exc).__name__}: {exc}")
    raw_s = time.perf_counter() - start
    report = {
        "raw_wall_s": raw_s,
        "wall_s": raw_s * probe.scale(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "schedules": workload.schedules,
        "attempted": 1,
    }
    if outputs is not None:
        failures += workload.check(outputs)
        report["outputs"] = outputs
        report["rounds"] = workload.rounds(outputs)
    report["failed"] = int(bool(failures))
    if mode == "op+checks":
        report["attempted"] += 1
        try:
            extra = workload.extra_checks()
        except Exception as exc:
            extra = [f"extra checks: {type(exc).__name__}: {exc}"]
        report["failed"] += int(bool(extra))
        failures += extra
    report["failures"] = failures
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["layer_calls"] = tracer.layer_calls()
    return report


if __name__ == "__main__":
    sys.exit(main())
