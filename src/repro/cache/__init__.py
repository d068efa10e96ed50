"""Complexity-adaptive two-level data cache hierarchy.

The paper's cache structure (Section 5.2) is a single on-chip 128 KB
array of sixteen 8 KB two-way set-associative, two-way-banked increments
with a *movable L1/L2 boundary*: increments on the near side of the
boundary form the L1 D-cache, the rest form the L2.  Caching is
exclusive and the index/tag mapping is constant, so moving the boundary
requires no invalidation or data motion.

Modules
-------
:mod:`repro.cache.config`
    Geometry and boundary configuration types.
:mod:`repro.cache.sets`
    LRU set primitive shared by the simulators.
:mod:`repro.cache.hierarchy`
    Direct two-level exclusive simulator (reference implementation).
:mod:`repro.cache.stackdist`
    One-pass per-set stack-distance engine whose output evaluates every
    boundary position at once (fast path).
:mod:`repro.cache.timing`
    Cycle time and L1/L2 latencies per boundary position.
:mod:`repro.cache.tpi`
    TPI / TPImiss evaluation combining hit counts with timing.
:mod:`repro.cache.adaptive`
    The movable-boundary CAS wrapper.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CacheGeometry",
    "HierarchyConfig",
    "PAPER_GEOMETRY",
    "AccessLevel",
    "TwoLevelExclusiveCache",
    "StackDistanceEngine",
    "DepthHistogram",
    "COLD_DEPTH",
    "CacheTimingModel",
    "LatencyMode",
    "CacheTpiModel",
    "TpiBreakdown",
    "AdaptiveCacheHierarchy",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.cache.config": ("CacheGeometry", "HierarchyConfig", "PAPER_GEOMETRY"),
    "repro.cache.hierarchy": ("AccessLevel", "TwoLevelExclusiveCache"),
    "repro.cache.stackdist": ("COLD_DEPTH", "DepthHistogram", "StackDistanceEngine"),
    "repro.cache.timing": ("CacheTimingModel", "LatencyMode"),
    "repro.cache.tpi": ("CacheTpiModel", "TpiBreakdown"),
    "repro.cache.adaptive": ("AdaptiveCacheHierarchy",),
})
