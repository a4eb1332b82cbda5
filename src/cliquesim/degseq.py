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
        for i, d in self.entries:
            if not _is_int(i):
                raise ValueError(f"node id {i!r} must be an integer")
            if not _is_int(d):
                raise ValueError(f"degree {d!r} of node {i} must be an integer")
            if i < 1:
                raise ValueError(f"node id {i} must be >= 1")
            if d < 0:
                raise ValueError(f"degree {d} of node {i} must be >= 0")
        ids = [i for i, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be distinct")

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "DegreeSequence":
        """Build a sequence with implicit node ids 1..n."""
        return cls(tuple(enumerate(degrees, 1)))

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
            if u < v and u in known and v in known:
                continue
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (u < v):
                raise ValueError(f"edge ({u}, {v}) must be stored as (min, max)")
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

    Each node is kept as one int key, r - d * n: d is its residual demand
    and r its rank, the place of its id among the n ids in ascending order.
    So a plain sort of the keys gives that ordering and compares ints, not
    tuples. A peel pops the first key and slices off the next d keys as its
    partners; one list comprehension adds n to each (one less demand) and
    another emits the edges in the partners' order. The sort after it merges
    the two sorted parts the peel leaves. The edges hold the id objects of
    `seq`, looked up by rank, not new ints.
    """
    seq = DegreeSequence.coerce(seq)
    order = sorted(seq.entries)  # by id: ids are distinct
    ids = [i for i, _ in order]
    n = len(ids)
    # key % n is the rank and -(key // n) the demand, as 0 <= r < n; a met
    # demand leaves the key >= 0.
    residual = sorted(r - d * n for r, (_, d) in enumerate(order))
    edges: list[tuple[int, int]] = []
    while residual:
        key = residual.pop(0)
        if key >= 0:
            break  # all remaining demands are zero
        d, r = -(key // n), key % n
        if d > len(residual):
            return RealizationOutcome.unrealizable()
        # r has left `residual`, so no pair is linked twice.
        taken = residual[:d]
        if taken[-1] >= 0:  # a partner's demand is met (the last has the least)
            return RealizationOutcome.unrealizable()
        residual[:d] = [k + n for k in taken]
        v = ids[r]
        edges += [(v, ids[s]) if r < s else (ids[s], v) for s in [k % n for k in taken]]
        residual.sort()
    graph = RealizedGraph(node_ids=seq.node_ids, edges=edges)
    return RealizationOutcome(graph=graph)


def _is_int(value: object) -> bool:
    """An int that is not a bool: Python counts bools as ints, and JSON's
    `true` and `false` parse as bools."""
    return isinstance(value, int) and not isinstance(value, bool)


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
