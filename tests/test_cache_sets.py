"""Tests for repro.cache.sets.LruSet."""

import pytest

from repro.cache.sets import LruSet
from repro.errors import SimulationError


class TestBasics:
    def test_empty(self):
        s = LruSet(4)
        assert len(s) == 0
        assert 1 not in s
        assert s.depth_of(1) is None

    def test_rejects_zero_capacity(self):
        with pytest.raises(SimulationError):
            LruSet(0)

    def test_insert_and_contains(self):
        s = LruSet(4)
        assert s.insert_mru(10) is None
        assert 10 in s
        assert s.depth_of(10) == 0


class TestLruOrdering:
    def test_mru_first(self):
        s = LruSet(4)
        for tag in (1, 2, 3):
            s.insert_mru(tag)
        assert s.blocks == (3, 2, 1)

    def test_touch_promotes(self):
        s = LruSet(4)
        for tag in (1, 2, 3):
            s.insert_mru(tag)
        assert s.touch(1)
        assert s.blocks == (1, 3, 2)

    def test_touch_miss_returns_false(self):
        s = LruSet(4)
        s.insert_mru(1)
        assert not s.touch(99)
        assert s.blocks == (1,)  # a miss does not modify the set

    def test_eviction_is_lru(self):
        s = LruSet(2)
        s.insert_mru(1)
        s.insert_mru(2)
        assert s.insert_mru(3) == 1  # the least recently used

    def test_touch_then_evict(self):
        s = LruSet(2)
        s.insert_mru(1)
        s.insert_mru(2)
        s.touch(1)
        assert s.insert_mru(3) == 2


class TestInvariants:
    def test_double_insert_rejected(self):
        s = LruSet(4)
        s.insert_mru(1)
        with pytest.raises(SimulationError):
            s.insert_mru(1)

    def test_remove(self):
        s = LruSet(4)
        s.insert_mru(1)
        s.insert_mru(2)
        s.remove(1)
        assert s.blocks == (2,)

    def test_remove_absent_rejected(self):
        s = LruSet(4)
        with pytest.raises(SimulationError):
            s.remove(7)


class TestResize:
    def test_shrink_returns_evicted_in_order(self):
        s = LruSet(4)
        for tag in (1, 2, 3, 4):
            s.insert_mru(tag)
        evicted = s.resize(2)
        assert evicted == [2, 1]  # more recent first (recency preserved)
        assert s.blocks == (4, 3)

    def test_grow_keeps_contents(self):
        s = LruSet(2)
        s.insert_mru(1)
        s.insert_mru(2)
        assert s.resize(4) == []
        assert s.blocks == (2, 1)


class TestRepartition:
    def _pair(self, upper_tags, lower_tags, upper=4, lower=4):
        """Two sets holding the given tags, most recent first."""
        pair = LruSet(upper), LruSet(lower)
        for lru_set, tags in zip(pair, (upper_tags, lower_tags)):
            for tag in reversed(tags):
                lru_set.insert_mru(tag)
        return pair

    def test_shrink_demotes_in_recency_order(self):
        upper, lower = self._pair([1, 2, 3, 4], [5, 6])
        upper.repartition(lower, 2, 6)
        assert upper.blocks == (1, 2)
        assert lower.blocks == (3, 4, 5, 6)
        assert (upper.capacity, lower.capacity) == (2, 6)

    def test_grow_promotes_in_recency_order(self):
        upper, lower = self._pair([1, 2], [3, 4, 5], upper=2, lower=6)
        upper.repartition(lower, 4, 4)
        assert upper.blocks == (1, 2, 3, 4)
        assert lower.blocks == (5,)

    def test_tags_past_both_capacities_dropped(self):
        upper, lower = self._pair([1, 2, 3, 4], [5, 6, 7, 8])
        upper.repartition(lower, 2, 3)
        assert upper.blocks == (1, 2)
        assert lower.blocks == (3, 4, 5)

    @pytest.mark.parametrize("capacities", [(0, 4), (4, 0)])
    def test_non_positive_capacity_rejected(self, capacities):
        upper, lower = self._pair([1], [])
        with pytest.raises(SimulationError):
            upper.repartition(lower, *capacities)

