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

The pass is one scalar loop, so its cost is the Python operations it
does per instruction.  Three choices keep them few:

* one list of completion cycles, ``done``, where producer ``p`` sits
  at ``done[p + 1]`` and ``done[0] = 0`` stands for "no producer"; the
  trace's producer columns are stored shifted by one
  (``InstructionTrace.columns``, Python ints converted once per trace
  however many window sizes replay it), so wakeup needs no branch;
* a count of the instructions dispatched in the current dispatch
  cycle instead of every dispatch time: dispatch times never decrease,
  so the bandwidth limit binds exactly when that count reaches
  ``dispatch_width``;
* the queue bound, re-checked only when its pointer moves: dispatch
  never falls, so a pointer that stood still cannot bind.

Issue times are recovered at the end as completion minus latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.workloads.instruction_trace import InstructionTrace


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

        # done[i + 1] is instruction i's completion cycle (issue +
        # latency); done[0] = 0 stands for NO_DEP, which the shifted
        # producer columns read as 0.
        done = [0]
        complete = done.append
        # issued[c] counts the instructions issued in cycle c.
        issued: list[int] = []
        # kth is the (i - window + 1)-th smallest issue time so far (-1
        # while the queue has never been full) and below the number of
        # instructions issued in cycles <= kth.  Every later instruction
        # dispatches after kth, so the counts the pointer has passed
        # never change again.
        kth = -1
        below = 0
        # dispatch is the current dispatch cycle and dispatched the
        # number of instructions dispatched in it.  Dispatch times never
        # decrease, so the bandwidth limit binds exactly when the last
        # dispatch_width instructions all dispatched in that cycle.
        dispatch = 0
        dispatched = 0

        # behind is i - window for instruction i.
        stream = zip(range(-window, n - window), dep1, dep2, latency)
        for behind, p1, p2, lat in stream:
            # -- dispatch: in-order, bandwidth-limited, queue-capacity-limited
            if dispatched == dispatch_width:
                dispatch += 1
                dispatched = 1
            else:
                dispatched += 1
            # The queue bound can only bind after the pointer moves:
            # dispatch never falls.
            if below <= behind:
                kth += 1
                below += issued[kth]
                while below <= behind:
                    kth += 1
                    below += issued[kth]
                # the slot is reusable the cycle after its occupant issues
                if kth >= dispatch:
                    dispatch = kth + 1
                    dispatched = 1

            # -- wakeup: ready when all producers have completed
            cycle = done[p1]
            t = done[p2]
            if t > cycle:
                cycle = t
            if dispatch > cycle:
                cycle = dispatch

            # -- select: oldest-first, issue_width per cycle
            try:
                while issued[cycle] >= issue_width:
                    cycle += 1
                issued[cycle] += 1
            except IndexError:  # later than every cycle issued in so far
                issued.extend([0] * (cycle + 1))
                issued[cycle] = 1
            complete(cycle + lat)

        completion = np.array(done, dtype=np.int64)
        return MachineResult(
            config=self.config,
            n_instructions=n,
            cycles=int(completion.max()) + 1,
            issue_times=completion[1:] - resolved,
        )


def run_window_sweep(
    trace: InstructionTrace, windows: tuple[int, ...]
) -> dict[int, MachineResult]:
    """Run the same trace at every window size."""
    return {w: OutOfOrderMachine(MachineConfig(window=w)).run(trace) for w in windows}
