"""Test-only scalar oracles for the two simulation kernels.

These are the straightforward implementations the fast kernels
replaced, kept as they were so hypothesis tests can pin the kernels to
them bit for bit:

* :class:`ScalarStackDistanceEngine` walks one LRU list per set, the
  reference for :class:`repro.cache.stackdist.StackDistanceEngine`;
* :func:`heap_schedule` tracks queue occupancy with a two-heap running
  order statistic, the reference for
  :class:`repro.ooo.machine.OutOfOrderMachine`.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cache.config import CacheGeometry
from repro.cache.stackdist import COLD_DEPTH
from repro.errors import SimulationError
from repro.ooo.machine import MachineConfig, MachineResult
from repro.workloads.instruction_trace import NO_DEP, InstructionTrace


class ScalarStackDistanceEngine:
    """Per-set LRU lists, one Python step per reference."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._n_sets = geometry.n_sets
        self._max_depth = geometry.total_ways
        self._block_shift = geometry.block_bytes.bit_length() - 1
        if 1 << self._block_shift != geometry.block_bytes:
            raise SimulationError("block size must be a power of two")
        self._stacks: list[list[int]] = [[] for _ in range(self._n_sets)]

    def reset(self) -> None:
        """Forget all cached blocks (equivalent to a cold structure)."""
        self._stacks = [[] for _ in range(self._n_sets)]

    def process(self, addresses: np.ndarray) -> np.ndarray:
        """Return the stack depth of every byte address in ``addresses``."""
        n_sets = self._n_sets
        max_depth = self._max_depth
        stacks = self._stacks
        blocks = np.asarray(addresses, dtype=np.uint64) >> np.uint64(self._block_shift)
        set_idx = (blocks % np.uint64(n_sets)).astype(np.int64)
        depths = np.empty(len(blocks), dtype=np.uint8)
        block_list = blocks.tolist()
        set_list = set_idx.tolist()
        for i, (block, s) in enumerate(zip(block_list, set_list)):
            stack = stacks[s]
            try:
                depth = stack.index(block)
            except ValueError:
                depths[i] = COLD_DEPTH
                stack.insert(0, block)
                if len(stack) > max_depth:
                    stack.pop()
                continue
            depths[i] = depth
            if depth:
                del stack[depth]
                stack.insert(0, block)
        return depths


class _RunningKthSmallest:
    """Streaming k-th order statistic where k grows by one per step.

    ``low`` is a max-heap (negated) holding the k smallest values seen;
    ``high`` is a min-heap of the rest.  ``advance()`` grows k; ``add()``
    inserts a new value; ``kth()`` reads the current k-th smallest.
    """

    __slots__ = ("_low", "_high")

    def __init__(self) -> None:
        self._low: list[int] = []
        self._high: list[int] = []

    def add(self, value: int) -> None:
        if self._low and value < -self._low[0]:
            heapq.heappush(self._low, -value)
            heapq.heappush(self._high, -heapq.heappop(self._low))
        else:
            heapq.heappush(self._high, value)

    def advance(self) -> None:
        if not self._high:
            raise SimulationError("order statistic advanced past its population")
        heapq.heappush(self._low, -heapq.heappop(self._high))

    def kth(self) -> int:
        if not self._low:
            raise SimulationError("order statistic read before first advance")
        return -self._low[0]


def heap_schedule(
    config: MachineConfig, trace: InstructionTrace, memory_system=None
) -> MachineResult:
    """Greedy oldest-first schedule with a two-heap occupancy tracker.

    ``cycles`` counts to the last completion under the latencies the
    memory system resolved, as the machine does.
    """
    window = config.window
    issue_width = config.issue_width
    dispatch_width = config.dispatch_width

    n = len(trace)
    dep1 = trace.dep1.tolist()
    dep2 = trace.dep2.tolist()
    latency = trace.latency.tolist()
    if memory_system is not None:
        if trace.load_address is None:
            raise SimulationError(
                "memory_system given but the trace carries no load addresses"
            )
        addresses = trace.load_address.tolist()
        for i, addr in enumerate(addresses):
            if addr >= 0:
                latency[i] = memory_system.load_latency_cycles(int(addr))

    issue = np.zeros(n, dtype=np.int64)
    issue_list = issue.tolist()  # python ints are faster in the loop
    dispatch_times: list[int] = [0] * n
    issue_counts: dict[int, int] = {}
    occupancy = _RunningKthSmallest()
    last_dispatch = 0

    for i in range(n):
        # -- dispatch: in-order, bandwidth-limited, queue-capacity-limited
        d = last_dispatch
        if i >= dispatch_width:
            earliest_by_bw = dispatch_times[i - dispatch_width] + 1
            if earliest_by_bw > d:
                d = earliest_by_bw
        if i >= window:
            occupancy.advance()  # k becomes i - window + 1
            # the slot is reusable the cycle after its occupant issues
            free_at = occupancy.kth() + 1
            if free_at > d:
                d = free_at
        dispatch_times[i] = d
        last_dispatch = d

        # -- wakeup: ready when all producers have completed
        ready = d
        p = dep1[i]
        if p != NO_DEP:
            t = issue_list[p] + latency[p]
            if t > ready:
                ready = t
        p = dep2[i]
        if p != NO_DEP:
            t = issue_list[p] + latency[p]
            if t > ready:
                ready = t

        # -- select: oldest-first, issue_width per cycle
        cycle = ready
        count = issue_counts.get(cycle, 0)
        while count >= issue_width:
            cycle += 1
            count = issue_counts.get(cycle, 0)
        issue_counts[cycle] = count + 1
        issue_list[i] = cycle
        occupancy.add(cycle)

    issue = np.array(issue_list, dtype=np.int64)
    completion = issue + np.array(latency, dtype=np.int64)
    cycles = int(completion.max()) + 1
    return MachineResult(
        config=config,
        n_instructions=n,
        cycles=cycles,
        issue_times=issue,
    )
