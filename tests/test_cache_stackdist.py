"""Tests for the stack-distance engine, including the equivalence
properties against the direct exclusive simulator and against the
scalar per-set LRU lists the numpy kernel replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import PAPER_GEOMETRY, HierarchyConfig
from repro.cache.hierarchy import AccessLevel, TwoLevelExclusiveCache
from repro.cache.stackdist import COLD_DEPTH, DepthHistogram, StackDistanceEngine
from repro.errors import SimulationError
from tests.oracles import ScalarStackDistanceEngine


class TestEngineBasics:
    def test_first_touch_is_cold(self, geometry):
        eng = StackDistanceEngine(geometry)
        depths = eng.process(np.array([0], dtype=np.uint64))
        assert depths[0] == COLD_DEPTH

    def test_immediate_reuse_depth_zero(self, geometry):
        eng = StackDistanceEngine(geometry)
        depths = eng.process(np.array([64, 64], dtype=np.uint64))
        assert depths[1] == 0

    def test_depth_counts_distinct_blocks(self, geometry):
        eng = StackDistanceEngine(geometry)
        nsets, bs = geometry.n_sets, geometry.block_bytes
        # four distinct blocks of set 0, then re-touch the first
        trace = np.array([t * nsets * bs for t in (0, 1, 2, 3, 0)], dtype=np.uint64)
        depths = eng.process(trace)
        assert depths[4] == 3

    def test_same_block_different_offset(self, geometry):
        eng = StackDistanceEngine(geometry)
        depths = eng.process(np.array([0, 31], dtype=np.uint64))
        assert depths[1] == 0

    def test_reset(self, geometry):
        eng = StackDistanceEngine(geometry)
        eng.process(np.array([0], dtype=np.uint64))
        eng.reset()
        depths = eng.process(np.array([0], dtype=np.uint64))
        assert depths[0] == COLD_DEPTH

    def test_beyond_capacity_is_cold(self, geometry):
        eng = StackDistanceEngine(geometry)
        nsets, bs = geometry.n_sets, geometry.block_bytes
        tags = list(range(40)) + [0]  # 40 distinct > 32 ways
        trace = np.array([t * nsets * bs for t in tags], dtype=np.uint64)
        depths = eng.process(trace)
        assert depths[-1] == COLD_DEPTH


def _one_set(geometry, tags):
    """Byte addresses of blocks ``tags`` that all map to set 0."""
    stride = geometry.n_sets * geometry.block_bytes
    return np.array([t * stride for t in tags], dtype=np.uint64)


class TestTruncation:
    """The ``total_ways`` cut-off, inside one call and across calls."""

    def test_deepest_resident_block(self, geometry):
        ways = geometry.total_ways
        depths = StackDistanceEngine(geometry).process(
            _one_set(geometry, list(range(ways)) + [0])
        )
        assert depths[-1] == ways - 1
        assert (depths[:-1] == COLD_DEPTH).all()

    def test_one_block_past_capacity_is_cold(self, geometry):
        ways = geometry.total_ways
        depths = StackDistanceEngine(geometry).process(
            _one_set(geometry, list(range(ways + 1)) + [0])
        )
        assert depths[-1] == COLD_DEPTH

    def test_deepest_block_survives_a_call_boundary(self, geometry):
        ways = geometry.total_ways
        eng = StackDistanceEngine(geometry)
        eng.process(_one_set(geometry, range(ways)))
        depths = eng.process(_one_set(geometry, [0, 0, ways - 1]))
        assert list(depths) == [ways - 1, 0, 1]

    def test_evicted_block_stays_cold_across_a_call_boundary(self, geometry):
        ways = geometry.total_ways
        eng = StackDistanceEngine(geometry)
        eng.process(_one_set(geometry, range(ways + 1)))
        depths = eng.process(_one_set(geometry, [0, 1]))
        assert list(depths) == [COLD_DEPTH, COLD_DEPTH]


class TestDepthHistogram:
    def test_accounting(self, geometry, rng):
        eng = StackDistanceEngine(geometry)
        addrs = (rng.integers(0, 10_000, size=5000) * 32).astype(np.uint64)
        hist = DepthHistogram.from_depths(geometry, eng.process(addrs))
        assert hist.n_references == 5000
        for k in range(1, 9):
            assert hist.l1_hits(k) + hist.l2_hits(k) + hist.misses(k) == 5000

    def test_l1_hits_monotone_in_boundary(self, geometry, rng):
        eng = StackDistanceEngine(geometry)
        addrs = (rng.integers(0, 3000, size=5000) * 32).astype(np.uint64)
        hist = DepthHistogram.from_depths(geometry, eng.process(addrs))
        hits = [hist.l1_hits(k) for k in range(1, 16)]
        assert hits == sorted(hits)

    def test_misses_boundary_independent(self, geometry, rng):
        eng = StackDistanceEngine(geometry)
        addrs = (rng.integers(0, 3000, size=5000) * 32).astype(np.uint64)
        hist = DepthHistogram.from_depths(geometry, eng.process(addrs))
        assert len({hist.misses(k) for k in range(1, 16)}) == 1

    def test_merge(self, geometry, rng):
        addrs = (rng.integers(0, 1000, size=2000) * 32).astype(np.uint64)
        eng = StackDistanceEngine(geometry)
        h1 = DepthHistogram.from_depths(geometry, eng.process(addrs[:1000]))
        h2 = DepthHistogram.from_depths(geometry, eng.process(addrs[1000:]))
        merged = h1.merged(h2)
        assert merged.n_references == 2000

    def test_empty_trace_has_no_miss_ratio(self, geometry):
        hist = DepthHistogram(geometry, np.zeros(32, dtype=np.int64), 0)
        with pytest.raises(SimulationError):
            hist.l1_miss_ratio(2)


def _small_geometry():
    from repro.cache.config import CacheGeometry
    from repro.tech.cacti import CacheIncrementTiming

    return CacheGeometry(
        n_increments=4,
        ways_per_increment=2,
        block_bytes=32,
        increment_bytes=2048,
        increment_timing=CacheIncrementTiming(
            bank_bytes=1024, n_banks=2, associativity=1, block_bytes=32
        ),
    )


class TestEquivalenceWithDirectSimulator:
    """The load-bearing property: one stack-distance pass must agree,
    access by access, with the two-level exclusive simulator at every
    boundary position."""

    @settings(max_examples=20, deadline=None)
    @given(
        data=st.data(),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_levels_agree(self, data, k):
        small_geometry = _small_geometry()
        n_blocks = data.draw(st.integers(min_value=4, max_value=200))
        trace_tags = data.draw(
            st.lists(st.integers(min_value=0, max_value=n_blocks), min_size=1,
                     max_size=300)
        )
        addrs = np.array(
            [t * small_geometry.block_bytes for t in trace_tags], dtype=np.uint64
        )
        direct = TwoLevelExclusiveCache(HierarchyConfig(small_geometry, k))
        levels = direct.run(addrs)

        eng = StackDistanceEngine(small_geometry)
        depths = eng.process(addrs)
        ways = k * small_geometry.ways_per_increment
        for lvl, depth in zip(levels, depths):
            if depth < ways:
                assert lvl == AccessLevel.L1
            elif depth < small_geometry.total_ways:
                assert lvl == AccessLevel.L2
            else:
                assert lvl == AccessLevel.MISS

    def test_levels_agree_paper_geometry(self, geometry, rng):
        addrs = (rng.integers(0, 6000, size=4000) * 32).astype(np.uint64)
        eng = StackDistanceEngine(geometry)
        depths = eng.process(addrs)
        for k in (1, 4, 8):
            direct = TwoLevelExclusiveCache(HierarchyConfig(geometry, k))
            levels = direct.run(addrs)
            ways = 2 * k
            expected = np.where(
                depths < ways, AccessLevel.L1,
                np.where(depths < 32, AccessLevel.L2, AccessLevel.MISS),
            )
            assert np.array_equal(levels, expected)


@st.composite
def _sessions(draw):
    """A geometry, a scan budget, a trace, and how to feed it: cut
    points, each with an optional ``reset()`` before the chunk it starts.

    The trace touches ``n_sets`` sets with a pool of blocks per set near
    the structure's associativity, so reuse depths straddle the
    ``total_ways`` cut-off.  A scan budget of 8, the width of the first
    block, makes every chunk one row and stops the blocks from growing."""
    geometry = draw(st.sampled_from([PAPER_GEOMETRY, _small_geometry()]))
    budget = draw(st.sampled_from([8, StackDistanceEngine._SCAN_BUDGET]))
    n_sets = draw(st.sampled_from([1, 3, geometry.n_sets]))
    pool = draw(st.integers(1, 2 * geometry.total_ways + 4))
    length = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = rng.integers(0, n_sets, length)
    tags = rng.integers(0, pool, length)
    offsets = rng.integers(0, geometry.block_bytes, length)
    addrs = ((tags * geometry.n_sets + sets) * geometry.block_bytes
             + offsets).astype(np.uint64)
    cuts = sorted(draw(st.lists(st.integers(0, length), max_size=4)))
    resets = draw(st.lists(st.booleans(), min_size=len(cuts) + 1,
                           max_size=len(cuts) + 1))
    return geometry, budget, np.split(addrs, cuts), resets


class TestEquivalenceWithScalarOracle:
    """The numpy kernel must return, call by call, exactly the depths of
    the per-set LRU list walk it replaced, including the state it
    carries from one call to the next."""

    @settings(max_examples=200, deadline=None)
    @given(session=_sessions())
    def test_depths_match_call_by_call(self, session):
        geometry, budget, chunks, resets = session
        fast = StackDistanceEngine(geometry)
        fast._SCAN_BUDGET = budget
        slow = ScalarStackDistanceEngine(geometry)
        for chunk, reset in zip(chunks, resets):
            if reset:
                fast.reset()
                slow.reset()
            got, want = fast.process(chunk), slow.process(chunk)
            assert got.dtype == want.dtype == np.uint8
            assert np.array_equal(got, want)

    def test_empty_input(self, geometry):
        depths = StackDistanceEngine(geometry).process(np.array([], dtype=np.uint64))
        assert depths.dtype == np.uint8
        assert len(depths) == 0

    def test_cache_study_trace_with_warm_up(self):
        from repro.workloads.address_trace import generate_address_trace
        from repro.workloads.suite import get_profile

        for app in ("swim", "perl"):
            profile = get_profile(app)
            addrs = generate_address_trace(profile.memory, 24_000, profile.seed)
            fast = StackDistanceEngine(PAPER_GEOMETRY)
            slow = ScalarStackDistanceEngine(PAPER_GEOMETRY)
            for chunk in (addrs[:6000], addrs[6000:]):
                assert np.array_equal(fast.process(chunk), slow.process(chunk)), app
