"""Direct two-level exclusive blocking-cache simulator.

This is the reference implementation of the paper's cache behaviour: two
physically distinct levels with an exclusive caching policy, simulated
access by access.  It exists (a) to document the actual hardware
protocol — promotion on L2 hit, demotion of the L1 victim, drop of the
L2 victim — and (b) as the oracle against which the one-pass
stack-distance fast path (:mod:`repro.cache.stackdist`) is property
tested.

The paper's simulation methodology is followed: blocking caches, access
conflicts ignored, every reference treated uniformly (the trace is the
first N data-cache references of each application).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.cache.config import CacheGeometry, HierarchyConfig
from repro.cache.sets import LruSet
from repro.errors import SimulationError


class AccessLevel(enum.IntEnum):
    """Where a reference was satisfied."""

    L1 = 1
    L2 = 2
    MISS = 3


class TwoLevelExclusiveCache:
    """A two-level exclusive cache with a (re)movable L1/L2 boundary.

    With exclusion, a block is in L1 or L2 but never both; on an L2 hit
    the block is promoted to L1 MRU and the L1 victim is demoted to L2
    MRU, so each set's combined contents remain the 32 most recently
    used blocks in recency order.  That invariant is what lets the
    boundary move without invalidating or copying data.
    """

    def __init__(self, config: HierarchyConfig) -> None:
        self.geometry: CacheGeometry = config.geometry
        self._block_shift = self.geometry.block_bytes.bit_length() - 1
        if 1 << self._block_shift != self.geometry.block_bytes:
            raise SimulationError("block size must be a power of two")
        self._l1 = [LruSet(config.l1_ways) for _ in range(self.geometry.n_sets)]
        self._l2 = [LruSet(config.l2_ways) for _ in range(self.geometry.n_sets)]
        self._config = config

    @property
    def config(self) -> HierarchyConfig:
        """Current boundary placement."""
        return self._config

    def _set_index(self, block: int) -> int:
        return block % self.geometry.n_sets

    def access(self, address: int) -> AccessLevel:
        """Reference one byte address; return the level that satisfied it."""
        block = address >> self._block_shift
        s = self._set_index(block)
        l1, l2 = self._l1[s], self._l2[s]
        if l1.touch(block):
            return AccessLevel.L1
        if block in l2:
            # Promote to L1, demote the L1 victim into L2 (exclusive swap).
            l2.remove(block)
            demoted = l1.insert_mru(block)
            if demoted is not None:
                l2.insert_mru(demoted)
            return AccessLevel.L2
        # Miss in both levels: fill L1, demote its victim, drop L2's victim.
        demoted = l1.insert_mru(block)
        if demoted is not None:
            l2.insert_mru(demoted)
        return AccessLevel.MISS

    def run(self, addresses: np.ndarray) -> np.ndarray:
        """Access every address in order; return per-access levels."""
        out = np.empty(len(addresses), dtype=np.uint8)
        for i, addr in enumerate(np.asarray(addresses, dtype=np.uint64).tolist()):
            out[i] = self.access(int(addr))
        return out

    def level_counts(self, addresses: np.ndarray) -> dict[AccessLevel, int]:
        """Convenience: run a trace and tally levels."""
        levels = self.run(addresses)
        counts = np.bincount(levels, minlength=4)
        return {
            AccessLevel.L1: int(counts[AccessLevel.L1]),
            AccessLevel.L2: int(counts[AccessLevel.L2]),
            AccessLevel.MISS: int(counts[AccessLevel.MISS]),
        }

    def move_boundary(self, config: HierarchyConfig) -> None:
        """Reposition the L1/L2 boundary without losing any cached data.

        This is the reconfiguration operation the CAP design makes
        cheap: increments change *designation*, not contents.  In the
        simulator we re-partition each set's unified recency stack at
        the new L1 associativity, which models exactly that — no block
        is invalidated and recency order is preserved.
        """
        if config.geometry != self.geometry:
            raise SimulationError("cannot move boundary across different geometries")
        l1_ways, l2_ways = config.l1_ways, config.l2_ways
        for l1, l2 in zip(self._l1, self._l2):
            l1.repartition(l2, l1_ways, l2_ways)
        self._config = config

    def flush(self) -> int:
        """Invalidate the entire structure; return blocks discarded.

        A CAP never needs this (the movable boundary preserves
        contents); it models the *naive* reconfigurable design that
        re-maps on every reconfiguration, used by the flush ablation to
        quantify what exclusion + constant mapping buy.
        """
        discarded = 0
        for s in range(self.geometry.n_sets):
            discarded += len(self._l1[s]) + len(self._l2[s])
            self._l1[s] = LruSet(self._config.l1_ways)
            self._l2[s] = LruSet(self._config.l2_ways)
        return discarded

    def resident_blocks(self, set_index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Expose (L1, L2) contents of one set, MRU first — for tests."""
        return self._l1[set_index].blocks, self._l2[set_index].blocks
