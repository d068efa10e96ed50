"""TPI / TPImiss evaluation for the cache study.

The paper's figure of merit is **average time per instruction** (TPI, in
ns): cycle time divided by IPC.  For the cache study the pipeline is a
4-way issue machine that is 67% efficient (2.67 IPC) *in the absence of
L1 D-cache misses*; all L1-miss stalls are charged on top:

* a reference that hits the exclusive L2 stalls the (blocking) pipeline
  for the full L2 hit latency;
* a reference that misses both levels stalls it for the flat 30 ns
  average board-level-cache latency.

``TPImiss`` is the portion of TPI contributed by those stalls — the
paper reports it separately (Figure 8) to show how well adaptivity
reduces miss penalties even when total TPI moves less.

Traces contain only data references, so instruction counts are derived
from each application's load/store density: ``N_instr = N_refs /
load_store_fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.stackdist import DepthHistogram
from repro.cache.timing import CacheTimingModel
from repro.errors import WorkloadError

#: Base pipeline efficiency of the 4-way issue processor (paper Sec 5.1).
BASE_IPC: float = 2.67


@dataclass(frozen=True)
class TpiBreakdown:
    """TPI decomposition for one application at one boundary position."""

    l1_increments: int
    cycle_time_ns: float
    tpi_ns: float
    tpi_miss_ns: float
    l1_miss_ratio: float
    l2_hit_latency_cycles: int
    n_references: int
    n_instructions: float

    @property
    def tpi_base_ns(self) -> float:
        """Miss-free component of TPI (cycle time / 2.67)."""
        return self.tpi_ns - self.tpi_miss_ns

    @property
    def effective_ipc(self) -> float:
        """Instructions per cycle implied by the total TPI."""
        return self.cycle_time_ns / self.tpi_ns


@dataclass(frozen=True)
class CacheTpiModel:
    """Evaluates TPI for (histogram, load/store density, boundary) triples."""

    timing: CacheTimingModel = field(default_factory=CacheTimingModel)
    base_ipc: float = BASE_IPC

    def evaluate(
        self,
        histogram: DepthHistogram,
        load_store_fraction: float,
        l1_increments: int,
    ) -> TpiBreakdown:
        """Compute the TPI breakdown at one boundary position.

        Parameters
        ----------
        histogram:
            Stack-depth histogram of the application's reference trace.
        load_store_fraction:
            Fraction of the dynamic instruction stream that accesses the
            D-cache; converts reference counts into instruction counts.
        l1_increments:
            Boundary position (number of 8 KB increments in L1).
        """
        if not 0.0 < load_store_fraction <= 1.0:
            raise WorkloadError(
                f"load/store fraction must be in (0, 1], got {load_store_fraction}"
            )
        n_refs = histogram.n_references
        if n_refs == 0:
            raise WorkloadError("cannot evaluate TPI for an empty trace")
        n_instr = n_refs / load_store_fraction
        cycle = self.timing.cycle_time_ns(l1_increments)
        l2_latency = self.timing.l2_hit_latency_cycles(l1_increments)

        l2_hits = histogram.l2_hits(l1_increments)
        misses = histogram.misses(l1_increments)
        stall_ns = (
            l2_hits * l2_latency * cycle + misses * self.timing.miss_latency_ns()
        )
        tpi_miss = stall_ns / n_instr
        tpi = cycle / self.base_ipc + tpi_miss
        return TpiBreakdown(
            l1_increments=l1_increments,
            cycle_time_ns=cycle,
            tpi_ns=tpi,
            tpi_miss_ns=tpi_miss,
            l1_miss_ratio=histogram.l1_miss_ratio(l1_increments),
            l2_hit_latency_cycles=l2_latency,
            n_references=n_refs,
            n_instructions=n_instr,
        )

    def sweep_breakdowns(
        self,
        histogram: DepthHistogram,
        load_store_fraction: float,
        boundaries: tuple[int, ...],
    ) -> dict[int, TpiBreakdown]:
        """Evaluate every boundary position in ``boundaries``."""
        return {
            k: self.evaluate(histogram, load_store_fraction, k) for k in boundaries
        }

    def best_boundary(
        self,
        histogram: DepthHistogram,
        load_store_fraction: float,
        boundaries: tuple[int, ...],
    ) -> TpiBreakdown:
        """The boundary minimising total TPI — what the paper's CAP
        compiler / runtime environment is assumed to identify per app."""
        results = self.sweep_breakdowns(histogram, load_store_fraction, boundaries)
        return min(results.values(), key=lambda r: r.tpi_ns)
