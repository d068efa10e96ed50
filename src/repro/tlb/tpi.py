"""TPI evaluation for the adaptive TLB.

The TLB is looked up by every load/store; since the single-cycle
section is on the processor's critical path (like the issue queue's
wakeup+select), the cycle time follows the fast-section size — but the
TLB shares the clock with the rest of the core, so the effective cycle
time is the *maximum* of the TLB lookup and a core floor (we use the
16 KB-L1 cache study pipeline as the floor, keeping the two studies
composable).

Stalls: a backup hit costs one extra cycle on the access; a full miss
costs a page walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import WorkloadError
from repro.tlb.simulator import TlbDepthHistogram
from repro.tlb.timing import TlbTimingModel

#: Miss-free pipeline efficiency, as in the cache study.
BASE_IPC: float = 2.67

#: Cycle-time floor contributed by the rest of the core (ns); chosen as
#: the cache study's 16 KB-L1 cycle so small TLB sections do not imply
#: an unrealistically fast chip.
CORE_CYCLE_FLOOR_NS: float = 0.545


@dataclass(frozen=True)
class TlbBreakdown:
    """TPI decomposition for one application at one boundary."""

    fast_entries: int
    cycle_time_ns: float
    tpi_ns: float
    tpi_tlb_ns: float
    fast_hit_ratio: float


@dataclass(frozen=True)
class TlbTpiModel:
    """Evaluates TPI for (histogram, load/store density, boundary)."""

    timing: TlbTimingModel = field(default_factory=TlbTimingModel)
    base_ipc: float = BASE_IPC
    core_floor_ns: float = CORE_CYCLE_FLOOR_NS

    def cycle_time_ns(self, fast_entries: int) -> float:
        """Clock period with the boundary at ``fast_entries``."""
        return max(self.core_floor_ns, self.timing.lookup_time_ns(fast_entries))

    def evaluate(
        self,
        histogram: TlbDepthHistogram,
        load_store_fraction: float,
        fast_entries: int,
    ) -> TlbBreakdown:
        """TPI at one boundary position."""
        if not 0.0 < load_store_fraction <= 1.0:
            raise WorkloadError(
                f"load/store fraction must be in (0, 1], got {load_store_fraction}"
            )
        n = histogram.n_accesses
        if n == 0:
            raise WorkloadError("cannot evaluate an empty TLB trace")
        n_instr = n / load_store_fraction
        cycle = self.cycle_time_ns(fast_entries)
        backup = histogram.backup_hits(fast_entries)
        walks = histogram.walk_count()
        stall_ns = (
            backup * self.timing.backup_extra_cycles() * cycle
            + walks * self.timing.page_walk_ns()
        )
        tpi_tlb = stall_ns / n_instr
        return TlbBreakdown(
            fast_entries=fast_entries,
            cycle_time_ns=cycle,
            tpi_ns=cycle / self.base_ipc + tpi_tlb,
            tpi_tlb_ns=tpi_tlb,
            fast_hit_ratio=histogram.fast_hits(fast_entries) / n,
        )

    def sweep_breakdowns(
        self, histogram: TlbDepthHistogram, load_store_fraction: float
    ) -> dict[int, TlbBreakdown]:
        """Evaluate every legal boundary."""
        return {
            f: self.evaluate(histogram, load_store_fraction, f)
            for f in self.timing.boundaries()
        }

    def best_boundary(
        self, histogram: TlbDepthHistogram, load_store_fraction: float
    ) -> TlbBreakdown:
        """The TPI-minimising fast-section size."""
        return min(
            self.sweep_breakdowns(histogram, load_store_fraction).values(),
            key=lambda b: b.tpi_ns,
        )
