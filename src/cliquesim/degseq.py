"""Degree-sequence toolkit: graphicality testing, graph construction and
checking a graph against its demands.

All functions are total over integer degree demands: degrees larger than the
number of nodes are accepted and simply reported unrealizable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable

__all__ = [
    "DegreeSequence",
    "RealizedGraph",
    "RealizationOutcome",
    "erdos_gallai",
    "havel_hakimi",
    "verify_degrees",
]


@dataclass(frozen=True)
class DegreeSequence:
    """Per-node degree demands: one (node_id, degree) pair per node."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ids = [i for i, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be distinct")
        for i, d in self.entries:
            if i < 1:
                raise ValueError(f"node id {i} must be >= 1")
            if d < 0:
                raise ValueError(f"degree {d} of node {i} must be >= 0")

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "DegreeSequence":
        """Build a sequence with implicit node ids 1..n."""
        return cls(tuple((i + 1, int(d)) for i, d in enumerate(degrees)))

    @classmethod
    def coerce(cls, seq: "DegreeSequence | Iterable[int]") -> "DegreeSequence":
        if isinstance(seq, DegreeSequence):
            return seq
        return cls.from_degrees(seq)

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RealizedGraph:
    """Simple labeled graph: node ids plus a set of unordered id pairs.
    `edges` may be given as any collection of pairs; they are checked in
    the order given, which for a builder's list is cheaper than a set's
    hash order, and then frozen."""

    node_ids: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        known = set(self.node_ids)
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (u < v):
                raise ValueError(f"edge ({u}, {v}) must be stored as (min, max)")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))

    def degree_of(self, node_id: int) -> int:
        return sum(1 for e in self.edges if node_id in e)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


@dataclass(frozen=True)
class RealizationOutcome:
    """Result of a construction attempt: a graph, or unrealizable."""

    graph: RealizedGraph | None

    @property
    def realizable(self) -> bool:
        return self.graph is not None

    @classmethod
    def unrealizable(cls) -> "RealizationOutcome":
        return cls(graph=None)


def erdos_gallai(seq: DegreeSequence | Iterable[int]) -> bool:
    """Return True iff the degree demands admit a simple graph.

    Checks the even-sum condition plus the k-prefix inequality for every
    k in [1, n] on the non-increasingly sorted degrees, in one pass: the
    right-hand side's min sum is k for each later degree >= k and the
    degree itself for the rest, read from a suffix-sum table.
    """
    degs = sorted(DegreeSequence.coerce(seq).degrees, reverse=True)
    n = len(degs)
    if n == 0:
        return True
    if sum(degs) % 2 != 0:
        return False
    suffix = list(accumulate(reversed(degs), initial=0))[::-1]  # sum(degs[i:])
    lhs = 0
    big = n  # degs[:big] are the degrees >= k; shrinks as k grows
    for k in range(1, n + 1):
        lhs += degs[k - 1]
        while big and degs[big - 1] < k:
            big -= 1
        rhs = k * (k - 1) + k * max(big - k, 0) + suffix[max(big, k)]
        if lhs > rhs:
            return False
    return True


def havel_hakimi(seq: DegreeSequence | Iterable[int]) -> RealizationOutcome:
    """Construct a graph meeting the per-node degree demands, or report
    unrealizable.

    Deterministic: each step peels the maximum-degree node, degree ties
    broken by ascending node id, and connects it to the next-largest
    remaining nodes under the same ordering.
    """
    seq = DegreeSequence.coerce(seq)
    # (-residual demand, id): a plain sort puts the largest demand first and
    # breaks ties by ascending id.
    residual = [(-d, i) for i, d in seq.entries]
    edges: list[tuple[int, int]] = []
    while residual:
        residual.sort()
        neg_d, v = residual.pop(0)
        d = -neg_d
        if d == 0:
            break  # all remaining demands are zero
        if d > len(residual):
            return RealizationOutcome.unrealizable()
        # v has left `residual`, so no pair is linked twice.
        for k in range(d):
            neg_dk, w = residual[k]
            if neg_dk == 0:  # w's demand is already met
                return RealizationOutcome.unrealizable()
            residual[k] = (neg_dk + 1, w)
            edges.append((v, w) if v < w else (w, v))
    graph = RealizedGraph(node_ids=seq.node_ids, edges=edges)
    return RealizationOutcome(graph=graph)


def verify_degrees(graph: RealizedGraph, seq: DegreeSequence | Iterable[int]) -> bool:
    """True iff the graph realizes the demands exactly, node id by node id."""
    seq = DegreeSequence.coerce(seq)
    if set(graph.node_ids) != set(seq.node_ids):
        return False
    counts = {i: 0 for i in graph.node_ids}
    for u, v in graph.edges:
        counts[u] += 1
        counts[v] += 1
    return all(counts[i] == d for i, d in seq.entries)
