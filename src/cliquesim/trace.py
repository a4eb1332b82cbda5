"""Execution trace serialization and replay.

A trace is line-delimited JSON: one header record, one record per round
(crash decisions, sends, state transitions), and one end record with final
states and metrics. Records are serialized with sorted keys and fixed
separators, so identical executions produce byte-identical traces and a
replayed run can be compared line by line. Only this module knows the
record format; it writes any result's round log.

The writer builds each line as text from shared fragments, not through a
record dict per send or per node. A round line encodes each recipient list
(the engine shares peer lists) and each distinct message once; the end
record takes each node's verdict and view from `harness.view_texts`, which
encodes each distinct pair once. `round_records` stays the plain,
structured form of the round records. The header is written and read back
through one key list, `HEADER_KEYS`. Replay parses the header and the
round records only: it compares the recorded end line with the one it
rebuilds, byte for byte, and parses it only to name what is wrong when the
two differ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .adversary import CrashEvent, CrashPlan, ScriptedAdversary
from .degseq import _is_int
from .engine import ExecutionResult, SimConfig, run_simulation
from .harness import view_texts
from .protocol import AllOkay, Announce, FaultEntry

__all__ = [
    "TRACE_VERSION",
    "TraceError",
    "ParsedTrace",
    "ReplayOutcome",
    "round_records",
    "trace_lines",
    "write_trace",
    "read_trace",
    "replay_trace",
]

TRACE_VERSION = 1
# Every `SimConfig` field but the test-only mutations, then the adversary.
HEADER_KEYS = ("n", "degrees", "model", "capacity_c", "strict", "seed", "adversary")
_CONFIG_KEYS = HEADER_KEYS[:-1]


class TraceError(ValueError):
    pass


def _dumps(record: object) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


_SEND_KINDS = {Announce: "announce", FaultEntry: "fault", AllOkay: "allokay"}


def _send_record(msg, recipients: list[int]) -> dict:
    """A send's trace record: the message's fields, `sender` renamed `from`."""
    record = msg._asdict()
    record["from"] = record.pop("sender")
    record["kind"] = _SEND_KINDS[type(msg)]
    record["to"] = list(recipients)
    return record


def round_records(result: ExecutionResult) -> list[dict]:
    """The result's round log as trace round records, round 1 first."""
    return [
        {
            "record": "round",
            "round": rnd,
            "crashes": [{"node": i, "delivered": list(d)} for i, d in log.crashes],
            "sends": [_send_record(*send) for _, send in sorted(log.sends.items())],
            "transitions": [{"node": i, "to": to} for i, to in log.transitions],
        }
        for rnd, log in enumerate(result.round_log, start=1)
    ]


def trace_lines(result: ExecutionResult, adversary_desc: str) -> list[str]:
    header = {k: getattr(result.config, k) for k in _CONFIG_KEYS}
    header.update(record="header", version=TRACE_VERSION, adversary=adversary_desc)
    lines = [_dumps(header)]
    lines.extend(_round_lines(result))
    lines.append(_end_line(result))
    return lines


def _round_lines(result: ExecutionResult) -> list[str]:
    """`round_records`, each as `_dumps` writes it, joined from fragments.

    A send's text is its message's, encoded once per distinct message (the
    three kinds differ in length, so no two kinds compare equal), then its
    `"to"`, encoded once per list object: the round log keeps every list
    alive, so no two of them share an id while the writer runs.
    """
    heads: dict = {}
    recipients: dict[int, str] = {}
    states: dict[str, str] = {}
    lines = []
    for rnd, log in enumerate(result.round_log, start=1):
        sends = []
        for _, (msg, to) in sorted(log.sends.items()):
            head = heads.get(msg)
            if head is None:
                # The record with no recipients ends '[]}': keep its '"to":'.
                head = heads[msg] = _dumps(_send_record(msg, []))[:-3]
            to_json = recipients.get(id(to))
            if to_json is None:
                to_json = recipients[id(to)] = _dumps(to)
            sends.append(f"{head}{to_json}}}")
        crashes = ",".join(
            f'{{"delivered":{_dumps(d)},"node":{i}}}' for i, d in log.crashes
        )
        transitions = []
        for i, to in log.transitions:
            state = states.get(to)
            if state is None:
                state = states[to] = _dumps(to)
            transitions.append(f'{{"node":{i},"to":{state}}}')
        lines.append(
            f'{{"crashes":[{crashes}],"record":"round","round":{rnd},'
            f'"sends":[{",".join(sends)}],"transitions":[{",".join(transitions)}]}}'
        )
    return lines


def _end_line(result: ExecutionResult) -> str:
    """The end record, byte for byte as `_dumps` writes it, joined once from
    fragments with the keys in sorted order. Each node record ends with its
    verdict and view, which most nodes of a run share: at ncc n=128 they
    are most of the trace. `view_texts` encodes each shared ending once,
    and each is copied only by the final join."""
    m = result.metrics
    parts = [
        f'{{"allokay_broadcasters":{m.allokay_broadcasters},'
        f'"dropped_messages":{m.dropped_messages},"messages":{m.messages_sent},"nodes":['
    ]
    for o, ending in zip(result.nodes, view_texts(result.nodes, _verdict_and_view)):
        parts += [
            f'{{"crashed_round":{_dumps(o.crashed_round)},"exit_round":{_dumps(o.exit_round)},'
            f'"node":{o.index},"state":{_dumps(o.state)}',
            ending,
            ",",
        ]
    # A run has at least one node: its last comma closes the list.
    parts[-1] = f'],"record":"end","rounds":{m.rounds_to_termination}}}'
    return "".join(parts)


def _verdict_and_view(outcome, view) -> str:
    """A node record's last two fields and its closing brace."""
    record = None
    if outcome is not None:
        record = {"realizable": outcome.realizable}
        if outcome.realizable:
            record["edges"] = outcome.graph.sorted_edges()
    return f',"verdict":{_dumps(record)},"view":{_dumps({str(k): v for k, v in view})}}}'


def write_trace(path: str | Path, result: ExecutionResult, adversary_desc: str) -> None:
    Path(path).write_text("\n".join(trace_lines(result, adversary_desc)) + "\n")


@dataclass
class ParsedTrace:
    header: dict
    rounds: list[dict]
    lines: list[str]

    def config(self) -> SimConfig:
        h = self.header
        degrees = h["degrees"]
        if not isinstance(degrees, list) or not all(
            _is_int(x) for x in [h["n"], h["capacity_c"], h["seed"], *degrees]
        ):
            raise TraceError(
                "trace header: n, capacity_c, seed and degrees must be integers"
            )
        if not isinstance(h["strict"], bool):
            raise TraceError("trace header: strict must be true or false")
        if not isinstance(h["adversary"], str):
            raise TraceError("trace header: adversary must be a string")
        if h["model"] not in ("cc", "ncc"):
            raise TraceError('trace header: model must be "cc" or "ncc"')
        return SimConfig(**{k: h[k] for k in _CONFIG_KEYS} | {"degrees": tuple(degrees)})

    def crash_plan(self) -> CrashPlan:
        events = []
        for record in self.rounds:
            for crash in record["crashes"]:
                events.append(
                    CrashEvent(
                        record["round"], crash["node"], tuple(crash["delivered"])
                    )
                )
        return CrashPlan(tuple(events))


def read_trace(path: str | Path) -> ParsedTrace:
    """Parse and check the header and round records. The last line is the
    end record, which `replay_trace` checks; a trace of one line has none.
    Every newline but a final one starts a line, blank or not."""
    lines = Path(path).read_text().split("\n")
    if not lines[-1]:
        lines.pop()
    if not any(line.strip() for line in lines):
        raise TraceError("empty trace file")
    header, *rounds = [
        _parse(lineno, line) for lineno, line in enumerate(lines[:-1] or lines, start=1)
    ]
    if header.get("record") != "header":
        raise TraceError("first record is not a header")
    version = header.get("version")
    if not _is_int(version) or version != TRACE_VERSION:
        raise TraceError(
            f"trace version {json.dumps(version)} unsupported "
            f"(expected {TRACE_VERSION})"
        )
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise TraceError(f"trace header lacks {', '.join(missing)}")
    if len(lines) < 2:
        raise TraceError("trace has no end record")
    for lineno, record in enumerate(rounds, start=2):
        if not _is_round_record(record):
            raise TraceError(f"line {lineno}: malformed round record")
    return ParsedTrace(header=header, rounds=rounds, lines=lines)


def _parse(lineno: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceError(f"line {lineno}: not valid JSON ({exc})") from exc
    if not isinstance(record, dict):
        raise TraceError("every record must be a JSON object")
    return record


def _is_round_record(record: dict) -> bool:
    """An integer round and a list of crashes, each an object with an
    integer node and a list of integer delivered recipients."""
    crashes = record.get("crashes")
    return (
        record.get("record") == "round"
        and _is_int(record.get("round"))
        and isinstance(crashes, list)
        and all(
            isinstance(c, dict)
            and _is_int(c.get("node"))
            and isinstance(c.get("delivered"), list)
            and all(_is_int(j) for j in c["delivered"])
            for c in crashes
        )
    )


@dataclass
class ReplayOutcome:
    identical: bool
    divergence: str | None


def replay_trace(parsed: ParsedTrace, expect_model: str | None = None) -> ReplayOutcome:
    """Re-execute the trace's crash schedule and compare byte-for-byte.

    The header's adversary description is reused verbatim: replay fidelity
    is about the execution (rounds, states, metrics), not about which
    strategy originally produced the schedule. A recorded end line equal to
    the rebuilt one is the writer's own and is not parsed; one that differs
    must still be an end record.
    """
    config = parsed.config()
    if expect_model is not None and config.model != expect_model:
        raise TraceError(
            f"trace was recorded under model {config.model!r}, "
            f"replay requested {expect_model!r}"
        )
    result = run_simulation(config, ScriptedAdversary(parsed.crash_plan()))
    new_lines = trace_lines(result, parsed.header["adversary"])
    old_lines = parsed.lines
    end = old_lines[-1]
    if end != new_lines[-1] and _parse(len(old_lines), end).get("record") != "end":
        raise TraceError("trace has no end record")
    divergence = None
    if len(new_lines) != len(old_lines):
        divergence = (
            f"trace length differs: {len(old_lines)} recorded vs "
            f"{len(new_lines)} replayed"
        )
    else:
        labels = [
            "the header record",
            *(f"round {record['round']}" for record in parsed.rounds),
            "the end record",
        ]
        for old, new, label in zip(old_lines, new_lines, labels):
            if old != new:
                divergence = f"first divergence at {label}"
                break
    return ReplayOutcome(identical=divergence is None, divergence=divergence)
