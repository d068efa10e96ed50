"""Per-set LRU stack-distance engine — the fast path of the cache study.

The key observation (Section 5 of DESIGN.md): because the mapping rule
keeps the set index constant for every boundary position, and because
exclusion plus LRU make L1 and L2 jointly hold, in recency order, the 32
most recently used blocks of each set, the whole hierarchy behaves per
set as a single 32-way LRU stack partitioned at depth ``2k`` (``k`` = L1
increments).  A reference therefore:

* hits L1 at boundary ``k``  iff its stack depth is ``< 2k``,
* hits L2                    iff its stack depth is in ``[2k, 32)``,
* misses both                otherwise (including cold misses).

One simulation pass recording each reference's stack depth evaluates
*every* boundary position at once — Figure 7's eight curves, and the
adaptive argmin of Figures 8/9, all come from a single histogram.
:mod:`repro.cache.hierarchy` is the direct reference simulator; property
tests assert the two agree access-by-access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.config import CacheGeometry
from repro.errors import SimulationError

#: Depth recorded for a reference whose block was not resident at any
#: depth the structure can hold (capacity miss beyond the total ways, or
#: cold miss).  Chosen to fit in uint8 with room above ``total_ways``.
COLD_DEPTH: int = 255


class StackDistanceEngine:
    """Streams block addresses and records per-reference stack depths.

    Depths are counted in *ways within the set* (0 = most recently
    used).  Anything at or beyond the structure's total associativity is
    folded into :data:`COLD_DEPTH` — those references miss the whole
    structure regardless of the boundary, so their exact depth is
    irrelevant and the scan behind each reference stops after
    ``total_ways`` distinct blocks.

    :meth:`process` is a numpy kernel over the whole call.  Because the
    set index is a function of the block, sorting references by set
    (stably) lines each set's references up in time order, and a
    reference's depth is the number of distinct blocks between it and
    the previous reference to its block in that sorted sequence.  The
    engine carries, between calls, each set's ``total_ways`` most
    recent distinct blocks (exactly the truncated LRU stack) and
    replays them, least recent first, ahead of the next call.
    """

    #: Entries counted per vectorised step of the scan; bounds its
    #: temporaries and the width of one block.
    _SCAN_BUDGET = 1 << 16

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._n_sets = geometry.n_sets
        self._max_depth = geometry.total_ways
        self._block_shift = geometry.block_bytes.bit_length() - 1
        if 1 << self._block_shift != geometry.block_bytes:
            raise SimulationError("block size must be a power of two")
        # A small-int key makes numpy's stable argsort a radix sort.
        self._set_dtype = np.min_scalar_type(self._n_sets - 1)
        self.reset()

    def reset(self) -> None:
        """Forget all cached blocks (equivalent to a cold structure)."""
        # Each set's resident blocks, least recent first, sets ascending.
        self._resident = np.empty(0, dtype=np.uint64)

    def process(self, addresses: np.ndarray) -> np.ndarray:
        """Return the stack depth of every byte address in ``addresses``.

        The returned array is ``uint8``; entries are either a depth in
        ``[0, total_ways)`` or :data:`COLD_DEPTH`.
        """
        blocks = np.asarray(addresses, dtype=np.uint64) >> np.uint64(self._block_shift)
        if len(blocks) == 0:
            return np.empty(0, dtype=np.uint8)
        n_replayed = len(self._resident)
        blocks = np.concatenate((self._resident, blocks))
        index = np.int32 if len(blocks) < 2**31 else np.int64
        sets = (blocks % np.uint64(self._n_sets)).astype(self._set_dtype)
        order = np.argsort(sets, kind="stable")
        del sets
        blocks = blocks[order]
        # An immediate repeat within its set has depth 0 and puts no new
        # block in any other reference's window: only the first
        # reference of each run reaches the scan.
        first = np.ones(len(blocks), dtype=bool)
        np.not_equal(blocks[1:], blocks[:-1], out=first[1:])
        runs = blocks[first]
        del blocks
        prev, nxt = _link_occurrences(runs, index)
        run_depths = _scan_depths(prev, nxt, self._max_depth, self._SCAN_BUDGET)
        self._resident = self._keep_resident(runs, nxt)
        depths = np.zeros(len(first), dtype=np.uint8)
        depths[order[first]] = run_depths
        return depths[n_replayed:]

    def _keep_resident(self, runs: np.ndarray, nxt: np.ndarray) -> np.ndarray:
        """Each set's ``total_ways`` most recent distinct blocks."""
        last = np.flatnonzero(nxt == len(runs))  # final reference per block
        sets = runs[last] % np.uint64(self._n_sets)
        # Runs are grouped by set, so a set's entries end where the next
        # set's begin; keep the last ``total_ways`` of each group.
        group_end = np.searchsorted(sets, sets, side="right")
        recent = group_end - np.arange(len(last)) <= self._max_depth
        return runs[last[recent]]


def _link_occurrences(runs: np.ndarray, index: type) -> tuple[np.ndarray, np.ndarray]:
    """Previous and next position of each entry's block in ``runs``.

    ``-1`` marks a first occurrence and ``len(runs)`` a last one.
    """
    m = len(runs)
    by_block = np.argsort(runs, kind="stable").astype(index)
    grouped = runs[by_block]
    same = grouped[1:] == grouped[:-1]
    del grouped
    earlier = by_block[:-1][same]
    later = by_block[1:][same]
    del by_block, same
    prev = np.full(m, -1, dtype=index)
    prev[later] = earlier
    nxt = np.full(m, m, dtype=index)
    nxt[earlier] = later
    return prev, nxt


def _scan_depths(
    prev: np.ndarray, nxt: np.ndarray, max_depth: int, budget: int
) -> np.ndarray:
    """Stack depth of every entry, from its previous and next occurrences.

    Entry ``j``'s depth is the number of entries ``k`` between
    ``prev[j]`` and ``j`` whose block is not seen again before ``j``
    (``nxt[k] > j``): each such ``k`` is the last reference to a distinct
    block.  The count runs backwards from ``j`` in blocks of doubling
    width and stops at ``prev[j]``, or after ``max_depth`` distinct
    blocks, which makes the depth :data:`COLD_DEPTH`.  Counting by next
    occurrence is what allows that early stop: walking backwards, the
    counted entries are the distinct blocks in recency order, as in the
    LRU list walk.
    """
    index = prev.dtype.type
    depths = np.full(len(prev), COLD_DEPTH, dtype=np.uint8)
    rows = np.flatnonzero(prev >= 0).astype(index)
    floor = prev[rows]
    top = rows.copy()  # entries in [top, rows) are already counted
    counted = np.zeros(len(rows), dtype=index)
    width = 8
    while len(rows):
        steps = np.arange(1, width + 1, dtype=index)[:, None]
        chunk = budget // width
        for lo in range(0, len(rows), chunk):
            hi = lo + chunk
            # One row per step and one column per entry, so the sum runs
            # over contiguous rows.  Clamping at floor counts nothing:
            # nxt[floor] is the entry itself.
            k = np.maximum(top[lo:hi] - steps, floor[lo:hi])
            counted[lo:hi] += (nxt[k] > rows[lo:hi]).sum(axis=0, dtype=index)
        top -= width
        full = counted >= max_depth
        done = full | (top <= floor + 1)
        depths[rows[done & ~full]] = counted[done & ~full]
        keep = ~done
        rows, floor, top, counted = rows[keep], floor[keep], top[keep], counted[keep]
        width = min(2 * width, budget)
    return depths


@dataclass(frozen=True)
class DepthHistogram:
    """Histogram of stack depths for one trace against one geometry.

    ``counts[d]`` is the number of references whose block was found at
    depth ``d``; ``cold`` counts references that missed the entire
    structure.  All boundary-dependent hit counts derive from this.
    """

    geometry: CacheGeometry
    counts: np.ndarray
    cold: int

    @classmethod
    def from_depths(cls, geometry: CacheGeometry, depths: np.ndarray) -> "DepthHistogram":
        """Aggregate the output of :meth:`StackDistanceEngine.process`."""
        raw = np.bincount(depths, minlength=COLD_DEPTH + 1)
        counts = raw[: geometry.total_ways].astype(np.int64)
        cold = int(raw[COLD_DEPTH])
        covered = int(counts.sum()) + cold
        if covered != len(depths):
            raise SimulationError(
                f"depth histogram lost references: {covered} != {len(depths)}"
            )
        return cls(geometry=geometry, counts=counts, cold=cold)

    @property
    def n_references(self) -> int:
        """Total references in the trace."""
        return int(self.counts.sum()) + self.cold

    def l1_hits(self, l1_increments: int) -> int:
        """References hitting L1 with the boundary at ``l1_increments``."""
        ways = l1_increments * self.geometry.ways_per_increment
        return int(self.counts[:ways].sum())

    def l2_hits(self, l1_increments: int) -> int:
        """References missing L1 but hitting the exclusive L2."""
        ways = l1_increments * self.geometry.ways_per_increment
        return int(self.counts[ways:].sum())

    def misses(self, l1_increments: int) -> int:
        """References missing the whole structure (boundary independent)."""
        del l1_increments  # misses do not depend on the boundary
        return self.cold

    def l1_miss_ratio(self, l1_increments: int) -> float:
        """L1 miss ratio at the given boundary."""
        n = self.n_references
        if n == 0:
            raise SimulationError("empty trace has no miss ratio")
        return 1.0 - self.l1_hits(l1_increments) / n

    def merged(self, other: "DepthHistogram") -> "DepthHistogram":
        """Combine two histograms of the same geometry (trace concatenation)."""
        if other.geometry != self.geometry:
            raise SimulationError("cannot merge histograms of different geometries")
        return DepthHistogram(
            geometry=self.geometry,
            counts=self.counts + other.counts,
            cold=self.cold + other.cold,
        )
