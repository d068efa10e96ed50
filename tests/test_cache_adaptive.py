"""Tests for the adaptive cache CAS wrapper."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.adaptive import AdaptiveCacheHierarchy, CacheConfigurationSpace
from repro.cache.config import CacheGeometry, HierarchyConfig
from repro.cache.hierarchy import AccessLevel, TwoLevelExclusiveCache
from repro.errors import ConfigurationError
from repro.tech.cacti import CacheIncrementTiming

#: Four 512 B increments of 8 sets: small enough that short traces evict.
SMALL = CacheGeometry(
    n_increments=4,
    ways_per_increment=2,
    block_bytes=32,
    increment_bytes=512,
    increment_timing=CacheIncrementTiming(
        bank_bytes=256, n_banks=2, associativity=1, block_bytes=32
    ),
)
SMALL_BOUNDARIES = SMALL.boundary_positions()


class TestConfigurationSpace:
    def test_paper_boundaries(self):
        space = CacheConfigurationSpace()
        assert space.boundaries == tuple(range(1, 9))

    def test_l1_sizes(self):
        space = CacheConfigurationSpace()
        assert space.l1_sizes_kb() == tuple(float(8 * k) for k in range(1, 9))


class TestCasInterface:
    def test_configurations_ordered_fastest_first(self):
        cas = AdaptiveCacheHierarchy()
        configs = tuple(cas.configurations())
        delays = [cas.delay_ns(c) for c in configs]
        assert delays == sorted(delays)

    def test_delay_matches_timing_model(self):
        cas = AdaptiveCacheHierarchy()
        for k in cas.configurations():
            assert cas.delay_ns(k) == pytest.approx(cas.timing.l1_access_time_ns(k))

    def test_initial_configuration(self):
        cas = AdaptiveCacheHierarchy(initial_l1_increments=4)
        assert cas.configuration == 4

    def test_reconfigure_no_cleanup(self):
        """The cache CAS needs no cleanup: exclusion + constant mapping."""
        cas = AdaptiveCacheHierarchy()
        cost = cas.reconfigure(6)
        assert cost.cleanup_cycles == 0
        assert cost.requires_clock_switch
        assert cas.configuration == 6

    def test_reconfigure_same_config_no_clock_switch(self):
        cas = AdaptiveCacheHierarchy(initial_l1_increments=3)
        cost = cas.reconfigure(3)
        assert not cost.requires_clock_switch

    def test_rejects_unknown_configuration(self):
        cas = AdaptiveCacheHierarchy()
        with pytest.raises(ConfigurationError):
            cas.reconfigure(9)  # beyond the paper's 64 KB limit

    def test_fastest_and_slowest(self):
        cas = AdaptiveCacheHierarchy()
        assert cas.fastest_configuration() == 1
        assert cas.slowest_configuration() == 8


class TestDataSurvivesReconfiguration:
    def test_hits_preserved_across_moves(self, rng):
        cas = AdaptiveCacheHierarchy(initial_l1_increments=2)
        addrs = (rng.integers(0, 800, size=2000) * 32).astype(np.uint64)
        cas.run(addrs)
        cas.reconfigure(8)
        cas.reconfigure(1)
        # the most recently touched block is still in L1
        last = int(addrs[-1])
        assert cas.hierarchy.access(last) == AccessLevel.L1


#: A run is (length, seed) of a uniform trace over twelve blocks per set
#: against eight ways, so sets fill, re-reference and evict.
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("reconfigure"), st.sampled_from(SMALL_BOUNDARIES)),
        st.tuples(st.just("run"), st.tuples(st.integers(0, 300), st.integers(0, 99))),
    ),
    max_size=12,
)


class TestLiveHierarchy:
    """The simulator is built on first use; until then a reconfigure
    only records the boundary.  An eager simulator moved at every step
    is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(initial=st.sampled_from(SMALL_BOUNDARIES), steps=_STEPS)
    def test_matches_an_eagerly_moved_simulator(self, initial, steps):
        cas = AdaptiveCacheHierarchy(
            geometry=SMALL, max_l1_increments=3, initial_l1_increments=initial
        )
        ref = TwoLevelExclusiveCache(HierarchyConfig(SMALL, initial))
        for op, arg in steps:
            if op == "reconfigure":
                cas.reconfigure(arg)
                ref.move_boundary(HierarchyConfig(SMALL, arg))
            else:
                length, seed = arg
                blocks = np.random.default_rng(seed).integers(
                    0, SMALL.n_sets * 12, length
                )
                addresses = blocks.astype(np.uint64) * SMALL.block_bytes
                levels = cas.run(addresses).outcomes
                np.testing.assert_array_equal(levels, ref.run(addresses))
            assert cas.configuration == ref.config.l1_increments
        for s in range(SMALL.n_sets):
            assert cas.hierarchy.resident_blocks(s) == ref.resident_blocks(s)

    def test_delay_table_is_the_timing_model(self):
        for cas in (AdaptiveCacheHierarchy(), AdaptiveCacheHierarchy(SMALL)):
            for k in cas.configurations():
                assert cas.delay_ns(k) == cas.timing.l1_access_time_ns(k)
            with pytest.raises(ConfigurationError):
                cas.delay_ns(max(cas.configurations()) + 1)
