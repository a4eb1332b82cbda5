"""Group partition, round-robin broadcast schedules, and per-round
message-capacity enforcement.

Groups are contiguous blocks of the sorted index order. In the
node-capacitated model (`GroupLayout.for_clique`) they have at most
ceil(log2 n) members each, giving G = ceil(n / ceil(log2 n)) groups. The
uncapacitated model runs the same schedules with one group of n
(`GroupLayout(n, n)`) and no capacity limit: with G == 1 every schedule
is an all-to-all broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = ["GroupLayout", "enforce_capacity", "log2_ceil"]


def log2_ceil(n: int) -> int:
    """ceil(log2 n), floored at 1 so capacities stay positive."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return max(1, math.ceil(math.log2(n)))


@dataclass(frozen=True)
class GroupLayout:
    """Partition of node indexes 1..n into G contiguous groups of
    `group_size`, the last one possibly smaller."""

    n: int
    group_size: int

    @classmethod
    def for_clique(cls, n: int) -> "GroupLayout":
        return cls(n, log2_ceil(n))

    @cached_property
    def group_count(self) -> int:
        return math.ceil(self.n / self.group_size)

    def group_of(self, index: int) -> int:
        """1-based group id of a node index."""
        return (index - 1) // self.group_size + 1

    def place_in_group(self, index: int) -> int:
        """0-based position of a node index in its group's member list."""
        return (index - 1) % self.group_size

    def members(self, group: int) -> list[int]:
        """A new list of the group's indexes, in order."""
        lo = (group - 1) * self.group_size + 1
        return list(range(lo, min(lo + self.group_size, self.n + 1)))

    @cached_property
    def member_lists(self) -> tuple[list[int], ...]:
        """Every group's member list, in group order, made once per layout
        and shared by all its nodes: nothing may change them."""
        return tuple(self.members(group) for group in range(1, self.group_count + 1))

    def phase1_dest(self, group: int, sweep_round: int) -> int:
        """Destination group for a sender group in round-robin sweep round
        (0-based within the sweep): dest = ((r + j) mod G) + 1.
        """
        return (sweep_round + group) % self.group_count + 1

    def allokay_order(self, group: int) -> list[int]:
        """Group visit order for a staggered termination broadcast: own group
        first, wrapping around.
        """
        g = self.group_count
        return [(group - 1 + k) % g + 1 for k in range(g)]


def enforce_capacity(mailbox: list, limit: int) -> tuple[list, list]:
    """Split an over-full mailbox into (kept, dropped).

    Messages are kept in ascending sender-index order up to the limit; the
    deterministic rule makes overflow behavior replayable.
    """
    if len(mailbox) <= limit:
        return mailbox, []
    ordered = sorted(mailbox, key=lambda msg: msg.sender)
    return ordered[:limit], ordered[limit:]
