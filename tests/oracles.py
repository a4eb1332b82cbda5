"""Brute-force realizability oracle for the tests.

`brute_force_realizable` enumerates every labeled simple graph on the
sequence's nodes, independently of the Erdős–Gallai and Havel–Hakimi tests
it cross-validates. It needs numpy, which the `test` extra installs.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import Iterable

from cliquesim.degseq import DegreeSequence

BRUTE_FORCE_MAX_NODES = 8


@functools.lru_cache(maxsize=None)
def _realizable_multisets(n: int) -> frozenset[tuple[int, ...]]:
    """All degree multisets (sorted descending) realizable on n labeled nodes,
    found by enumerating every edge subset of the complete graph.

    Vectorized over subsets: O(2^C(n,2)) graphs, chunked to bound memory.
    """
    import numpy as np  # here, so that only this oracle pays for numpy

    if n == 0:
        return frozenset({()})
    edge_list = list(combinations(range(n), 2))
    m = len(edge_list)
    incidence = np.zeros(n, dtype=np.uint32)
    for bit, (u, v) in enumerate(edge_list):
        incidence[u] |= np.uint32(1 << bit)
        incidence[v] |= np.uint32(1 << bit)
    found: set[tuple[int, ...]] = set()
    chunk = 1 << min(m, 20)
    for start in range(0, 1 << m, chunk):
        masks = np.arange(start, start + chunk, dtype=np.uint32)
        degs = np.empty((masks.size, n), dtype=np.uint8)
        for v in range(n):
            degs[:, v] = np.bitwise_count(masks & incidence[v])
        degs.sort(axis=1)
        for row in np.unique(degs, axis=0):
            found.add(tuple(int(x) for x in row[::-1]))
    return frozenset(found)


def brute_force_realizable(seq: DegreeSequence | Iterable[int]) -> bool:
    """Exhaustive realizability oracle, independent of the analytic tests.

    Enumerates every labeled simple graph on len(seq) nodes and checks
    whether any has the demanded degree multiset. Capped at
    BRUTE_FORCE_MAX_NODES nodes.
    """
    seq = DegreeSequence.coerce(seq)
    n = len(seq)
    if n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"brute-force oracle capped at {BRUTE_FORCE_MAX_NODES} nodes, got {n}"
        )
    if any(d >= n for d in seq.degrees):
        return False  # a simple graph cannot exceed degree n-1
    target = tuple(sorted(seq.degrees, reverse=True))
    return target in _realizable_multisets(n)
