"""Oldest-first out-of-order issue simulator.

Models the machine of the paper's queue study: 8-way issue, perfect
branch prediction, perfect caches, plentiful functional units.  With
those idealisations the machine is fully characterised by three
constraints, which the simulator applies as a single in-order greedy
pass (oldest-first list scheduling — exactly the policy a selection
tree of priority encoders implements):

1. **Dispatch** is in-order, ``dispatch_width`` per cycle, and only
   into a free queue entry: instruction ``i`` can dispatch once at
   least ``i - window + 1`` older instructions have issued (entries
   free at issue, out of order — the queue is a free list, not a FIFO).
2. **Wakeup**: an instruction is ready once all producers have
   completed (``issue + latency``); wakeup/select is atomic within a
   cycle, so dependent instructions can issue in consecutive cycles.
3. **Select**: at most ``issue_width`` instructions issue per cycle,
   oldest first.

The queue-occupancy constraint needs the k-th smallest issue time of
all older instructions with ``k = i - window + 1`` growing by one per
instruction.  Every instruction from then on issues after that k-th
smallest time, so it never decreases: a pointer walks forward over the
per-cycle issue counts select already keeps, and the whole pass is
O(n + cycles).

The pass reads the trace as Python ints (``InstructionTrace.columns``),
which each trace converts once however many window sizes replay it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.workloads.instruction_trace import NO_DEP, InstructionTrace


@dataclass(frozen=True)
class MachineConfig:
    """Machine parameters of the paper's queue study."""

    window: int
    issue_width: int = 8
    dispatch_width: int = 8

    def __post_init__(self) -> None:
        if self.window < 1:
            raise SimulationError(f"window must be positive, got {self.window}")
        if self.issue_width < 1 or self.dispatch_width < 1:
            raise SimulationError("issue and dispatch width must be positive")


@dataclass(frozen=True)
class MachineResult:
    """Outcome of one simulation run."""

    config: MachineConfig
    n_instructions: int
    cycles: int
    issue_times: np.ndarray

    @property
    def ipc(self) -> float:
        """Committed instructions per cycle."""
        return self.n_instructions / self.cycles

    def tpi_ns(self, cycle_time_ns: float) -> float:
        """Average time per instruction at a given clock."""
        return cycle_time_ns / self.ipc


class OutOfOrderMachine:
    """Greedy oldest-first scheduler for one :class:`MachineConfig`."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config

    def run(self, trace: InstructionTrace, memory_system=None) -> MachineResult:
        """Simulate ``trace`` and return cycle counts and issue times.

        With ``memory_system`` (a
        :class:`repro.ooo.memory.CacheMemorySystem`) and a trace whose
        loads carry addresses, each load's latency comes from the cache
        hierarchy instead of the trace — the integrated simulation in
        which independent misses can overlap under the window.
        """
        window = self.config.window
        issue_width = self.config.issue_width
        dispatch_width = self.config.dispatch_width

        n = len(trace)
        dep1, dep2, latency = trace.columns
        resolved = trace.latency
        if memory_system is not None:
            if trace.load_address is None:
                raise SimulationError(
                    "memory_system given but the trace carries no load addresses"
                )
            latency = list(latency)  # the trace's columns are shared
            addresses = trace.load_address.tolist()
            for i, addr in enumerate(addresses):
                if addr >= 0:
                    latency[i] = memory_system.load_latency_cycles(int(addr))
            resolved = np.array(latency, dtype=np.int64)

        issue_list = [0] * n
        dispatch_times: list[int] = [0] * n
        # issued[c] counts the instructions issued in cycle c.
        issued: list[int] = []
        # kth is the (i - window + 1)-th smallest issue time so far (-1
        # while the queue has never been full) and below the number of
        # instructions issued in cycles <= kth.  Every later instruction
        # dispatches after kth, so the counts the pointer has passed
        # never change again.
        kth = -1
        below = 0
        last_dispatch = 0

        for i in range(n):
            # -- dispatch: in-order, bandwidth-limited, queue-capacity-limited
            d = last_dispatch
            if i >= dispatch_width:
                earliest_by_bw = dispatch_times[i - dispatch_width] + 1
                if earliest_by_bw > d:
                    d = earliest_by_bw
            while below <= i - window:
                kth += 1
                below += issued[kth]
            # the slot is reusable the cycle after its occupant issues
            if kth + 1 > d:
                d = kth + 1
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
            try:
                while issued[cycle] >= issue_width:
                    cycle += 1
                issued[cycle] += 1
            except IndexError:  # later than every cycle issued in so far
                issued.extend([0] * (cycle + 1))
                issued[cycle] = 1
            issue_list[i] = cycle

        issue = np.array(issue_list, dtype=np.int64)
        cycles = int((issue + resolved).max()) + 1
        return MachineResult(
            config=self.config,
            n_instructions=n,
            cycles=cycles,
            issue_times=issue,
        )


def run_window_sweep(
    trace: InstructionTrace, windows: tuple[int, ...]
) -> dict[int, MachineResult]:
    """Run the same trace at every window size."""
    return {w: OutOfOrderMachine(MachineConfig(window=w)).run(trace) for w in windows}
