"""Tests for the direct two-level exclusive simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheGeometry, HierarchyConfig
from repro.cache.hierarchy import AccessLevel, TwoLevelExclusiveCache
from repro.errors import SimulationError


def _cache(geometry, k=1):
    return TwoLevelExclusiveCache(HierarchyConfig(geometry, k))


def _addr(set_index: int, tag: int, geometry) -> int:
    """Byte address of block `tag` mapping to `set_index`."""
    block = tag * geometry.n_sets + set_index
    return block * geometry.block_bytes


class TestBasicBehaviour:
    def test_cold_miss_then_l1_hit(self, small_geometry):
        c = _cache(small_geometry)
        a = _addr(0, 0, small_geometry)
        assert c.access(a) == AccessLevel.MISS
        assert c.access(a) == AccessLevel.L1

    def test_same_block_offsets_hit(self, small_geometry):
        c = _cache(small_geometry)
        base = _addr(3, 1, small_geometry)
        c.access(base)
        assert c.access(base + small_geometry.block_bytes - 1) == AccessLevel.L1

    def test_demotion_to_l2_then_promotion(self, small_geometry):
        c = _cache(small_geometry, k=1)  # L1 is 2-way
        s = 0
        a, b, d = (_addr(s, t, small_geometry) for t in (1, 2, 3))
        c.access(a)
        c.access(b)
        c.access(d)  # evicts `a` from L1 into L2
        assert c.access(a) == AccessLevel.L2
        assert c.access(a) == AccessLevel.L1  # promoted back


class TestExclusion:
    def test_block_never_in_both_levels(self, small_geometry, rng):
        c = _cache(small_geometry, k=2)
        addrs = (rng.integers(0, 400, size=2000) * small_geometry.block_bytes).astype(
            np.uint64
        )
        c.run(addrs)
        for s in range(small_geometry.n_sets):
            l1, l2 = c.resident_blocks(s)
            assert not set(l1) & set(l2)

    def test_combined_contents_bounded(self, small_geometry, rng):
        c = _cache(small_geometry, k=2)
        addrs = (rng.integers(0, 4000, size=3000) * small_geometry.block_bytes).astype(
            np.uint64
        )
        c.run(addrs)
        for s in range(small_geometry.n_sets):
            l1, l2 = c.resident_blocks(s)
            assert len(l1) <= 4 and len(l2) <= 4


class TestBoundaryMove:
    def test_no_data_lost(self, small_geometry, rng):
        """Reconfiguration must not invalidate anything (exclusive +
        constant mapping: the CAP selling point)."""
        c = _cache(small_geometry, k=1)
        addrs = (rng.integers(0, 300, size=1500) * small_geometry.block_bytes).astype(
            np.uint64
        )
        c.run(addrs)
        before = [set(c.resident_blocks(s)[0]) | set(c.resident_blocks(s)[1])
                  for s in range(small_geometry.n_sets)]
        c.move_boundary(HierarchyConfig(small_geometry, 3))
        after = [set(c.resident_blocks(s)[0]) | set(c.resident_blocks(s)[1])
                 for s in range(small_geometry.n_sets)]
        assert before == after

    def test_recency_preserved(self, small_geometry):
        c = _cache(small_geometry, k=1)
        s = 0
        for t in range(5):
            c.access(_addr(s, t, small_geometry))
        c.move_boundary(HierarchyConfig(small_geometry, 2))
        l1, l2 = c.resident_blocks(s)
        # blocks 4,3,2,1 most recent; L1 now holds the top 4
        expected = [_addr(s, t, small_geometry) // small_geometry.block_bytes
                    for t in (4, 3, 2, 1)]
        assert list(l1) == expected

    def test_grow_promotes_recent_l2_blocks(self, small_geometry):
        c = _cache(small_geometry, k=1)
        s = 1
        for t in range(4):
            c.access(_addr(s, t, small_geometry))
        # L1 holds {3,2}; L2 holds {1,0}
        c.move_boundary(HierarchyConfig(small_geometry, 2))
        l1, _l2 = c.resident_blocks(s)
        assert len(l1) == 4

    def test_rejects_cross_geometry_move(self, small_geometry, geometry):
        c = _cache(small_geometry, k=1)
        with pytest.raises(SimulationError):
            c.move_boundary(HierarchyConfig(geometry, 2))

    def test_hits_continue_after_shrink(self, small_geometry):
        c = _cache(small_geometry, k=3)
        s = 2
        addrs = [_addr(s, t, small_geometry) for t in range(6)]
        for a in addrs:
            c.access(a)
        c.move_boundary(HierarchyConfig(small_geometry, 1))
        # everything still resident somewhere in the structure
        for a in addrs:
            assert c.access(a) in (AccessLevel.L1, AccessLevel.L2)


def _tiny_geometry() -> CacheGeometry:
    """2 sets of 8 ways (4 increments of 2), so random blocks evict."""
    from repro.tech.cacti import CacheIncrementTiming

    return CacheGeometry(
        n_increments=4,
        ways_per_increment=2,
        block_bytes=32,
        increment_bytes=128,
        increment_timing=CacheIncrementTiming(
            bank_bytes=64, n_banks=2, associativity=1, block_bytes=32
        ),
    )


_TINY = _tiny_geometry()
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, 10 * _TINY.n_sets - 1)),
        st.tuples(st.just("move"), st.integers(1, _TINY.n_increments - 1)),
    ),
    min_size=20,
    max_size=300,
)


class TestBoundaryMovesAgainstMruLists:
    """Random accesses interleaved with random boundary moves behave
    like one MRU list per set of at most ``total_ways`` blocks, split at
    the current ``l1_ways``."""

    @settings(max_examples=150, deadline=None)
    @given(steps=_STEPS, first=st.integers(1, _TINY.n_increments - 1))
    def test_random_accesses_and_moves(self, steps, first):
        config = HierarchyConfig(_TINY, first)
        cache = TwoLevelExclusiveCache(config)
        stacks: list[list[int]] = [[] for _ in range(_TINY.n_sets)]
        for op, value in steps:
            if op == "move":
                config = HierarchyConfig(_TINY, value)
                cache.move_boundary(config)
            else:
                stack = stacks[value % _TINY.n_sets]
                if value in stack[: config.l1_ways]:
                    expected = AccessLevel.L1
                elif value in stack:
                    expected = AccessLevel.L2
                else:
                    expected = AccessLevel.MISS
                if value in stack:
                    stack.remove(value)
                stack.insert(0, value)
                del stack[_TINY.total_ways :]
                assert cache.access(value * _TINY.block_bytes) == expected
            for s, stack in enumerate(stacks):
                assert cache.resident_blocks(s) == (
                    tuple(stack[: config.l1_ways]),
                    tuple(stack[config.l1_ways :]),
                )


class TestLevelCounts:
    def test_counts_sum_to_trace_length(self, small_geometry, rng):
        c = _cache(small_geometry, k=2)
        addrs = (rng.integers(0, 500, size=1000) * small_geometry.block_bytes).astype(
            np.uint64
        )
        counts = c.level_counts(addrs)
        assert sum(counts.values()) == 1000
