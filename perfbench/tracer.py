"""Per-layer spans, recorded from outside the program.

`Tracer.install` replaces every public function of the cliquesim modules
with a timing wrapper at every place the function is bound by name: its
home module, each module that imports it, and the package namespace. The
methods that do the per-round and per-plan work are wrapped on their
classes. Spans are aggregated in memory per name (calls, total time, self
time), because the verifier alone makes millions of calls. A span's self
time is its duration minus the time covered by the spans it encloses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time

LAYERS = ("cli", "harness", "adversary", "engine", "protocol", "groups", "degseq", "trace")

# Import sites that must end up wrapped; install() checks each one.
REQUIRED_SITES = (
    ("harness", "run_simulation"),
    ("cli", "run_simulation"),
    ("trace", "run_simulation"),
    ("cli", "check_execution"),
    ("degseq", "havel_hakimi"),
    ("harness", "havel_hakimi"),
    ("cli", "havel_hakimi"),
    ("engine", "enforce_capacity"),
    ("cli", "write_trace"),
    ("cli", "read_trace"),
    ("cli", "replay_trace"),
)

# Methods wrapped on their classes. Every adversary's `decide` is added by
# discovery, so a new adversary class is covered too.
METHODS = {
    "adversary": {"PlanSpace": ("__getitem__",)},
    "engine": {"RoundEngine": ("__init__", "run")},
    "protocol": {"ProtocolNode": ("emit", "receive")},
    "groups": {
        "GroupLayout": (
            "for_clique", "group_of", "members", "phase1_dest", "allokay_order",
        )
    },
}


class Tracer:
    def __init__(self) -> None:
        # span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self._stack: list[float] = []
        self.counts = {
            "rounds": 0,
            "deliveries": 0,
            "emit_useful": 0,
            "receive_useful": 0,
            "dropped": 0,
            "trace_bytes": 0,
        }
        self.run_plan_s: list[float] = []
        self.hh_inputs: set[int] = set()

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stats[0] += 1
                stats[1] += took
                stats[2] += took - stack.pop()
                if stack:
                    stack[-1] += took
            if after is not None:
                after(args, result, took)
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap everything; return the REQUIRED_SITES left unwrapped."""
        package = importlib.import_module("cliquesim")
        modules = {m: importlib.import_module(f"cliquesim.{m}") for m in LAYERS}
        hooks = self._hooks()
        originals = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    name = f"{layer}.{attr}"
                    originals[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(namespace, attr, originals[id(obj)][1])

        methods = {layer: dict(classes) for layer, classes in METHODS.items()}
        for attr, cls in vars(modules["adversary"]).items():
            if inspect.isclass(cls) and "decide" in vars(cls):
                methods["adversary"][attr] = ("decide",)
        for layer, classes in methods.items():
            for cls_name, names in classes.items():
                cls = getattr(modules[layer], cls_name)
                for attr in names:
                    name = f"{layer}.{cls_name}.{attr}"
                    raw = vars(cls)[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw, hooks.get(name))
                    setattr(cls, attr, wrapped)

        return [
            f"{layer}.{attr}"
            for layer, attr in REQUIRED_SITES
            if not hasattr(getattr(modules[layer], attr), "__wrapped__")
        ]

    def _hooks(self) -> dict:
        counts = self.counts

        def engine_run(args, result, took):
            counts["rounds"] += len(result.metrics.per_round_counts)
            counts["deliveries"] += result.metrics.messages_sent

        def emit(args, result, took):
            counts["emit_useful"] += bool(result)

        def receive(args, result, took):
            counts["receive_useful"] += bool(args[2])

        def enforce(args, result, took):
            counts["dropped"] += len(result[1])

        def havel_hakimi(args, result, took):
            seq = args[0]
            entries = seq.entries if hasattr(seq, "entries") else tuple(seq)
            self.hh_inputs.add(hash(entries))

        def write_trace(args, result, took):
            counts["trace_bytes"] += os.path.getsize(args[0])

        def run_plan(args, result, took):
            self.run_plan_s.append(took)

        return {
            "engine.RoundEngine.run": engine_run,
            "protocol.ProtocolNode.emit": emit,
            "protocol.ProtocolNode.receive": receive,
            "groups.enforce_capacity": enforce,
            "degseq.havel_hakimi": havel_hakimi,
            "trace.write_trace": write_trace,
            "harness.run_plan": run_plan,
        }

    # -- results --------------------------------------------------------------

    def layer_calls(self) -> dict[str, int]:
        calls = dict.fromkeys(LAYERS, 0)
        for name, (n, _, _) in self.spans.items():
            calls[name.split(".", 1)[0]] += n
        return calls

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; a layer the workload bypasses reads 0."""

        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def total(name):
            return self.spans.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            return self.spans.get(name, [0, 0.0, 0.0])[2]

        def ratio(num, den):
            return num / den if den else 0.0

        decides = [n for n in self.spans if n.endswith(".decide")]
        plan_us = sorted(s * 1e6 for s in self.run_plan_s)
        if len(plan_us) >= 2:
            pct = statistics.quantiles(plan_us, n=100, method="inclusive")
            p50, p99 = pct[49], pct[98]
        else:
            p50 = p99 = plan_us[0] if plan_us else 0.0
        c = self.counts
        return {
            "harness.executions": calls("harness.run_plan"),
            "harness.run_plan_p50_us": p50,
            "harness.run_plan_p99_us": p99,
            "harness.check_s": total("harness.check_execution"),
            "adversary.plan_decode_s": total("adversary.PlanSpace.__getitem__"),
            "adversary.decide_s": sum(total(n) for n in decides),
            "adversary.decide_calls": sum(calls(n) for n in decides),
            "engine.init_s": total("engine.RoundEngine.__init__"),
            "engine.self_s": self_s("engine.RoundEngine.run"),
            "engine.rounds": c["rounds"],
            "engine.deliveries": c["deliveries"],
            "protocol.emit_s": total("protocol.ProtocolNode.emit"),
            "protocol.emit_calls": calls("protocol.ProtocolNode.emit"),
            "protocol.emit_useful_ratio": ratio(
                c["emit_useful"], calls("protocol.ProtocolNode.emit")
            ),
            "protocol.receive_s": total("protocol.ProtocolNode.receive"),
            "protocol.receive_calls": calls("protocol.ProtocolNode.receive"),
            "protocol.receive_useful_ratio": ratio(
                c["receive_useful"], calls("protocol.ProtocolNode.receive")
            ),
            "groups.enforce_calls": calls("groups.enforce_capacity"),
            "groups.dropped": c["dropped"],
            "degseq.hh_s": total("degseq.havel_hakimi"),
            "degseq.hh_calls": calls("degseq.havel_hakimi"),
            "degseq.hh_distinct_ratio": ratio(
                len(self.hh_inputs), calls("degseq.havel_hakimi")
            ),
            "trace.lines_s": total("trace.trace_lines"),
            "trace.write_s": total("trace.write_trace"),
            "trace.read_s": total("trace.read_trace"),
            "trace.replay_self_s": self_s("trace.replay_trace"),
            "trace.bytes": c["trace_bytes"],
            "cli.self_s": sum(s for n, (_, _, s) in self.spans.items() if n.startswith("cli.")),
        }
