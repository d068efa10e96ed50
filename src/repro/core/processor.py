"""Top-level Complexity-Adaptive Processor (paper Figure 5).

Composes the adaptive D-cache hierarchy, the adaptive instruction
queue, any fixed structures, the dynamic clock and the Configuration
Manager into one object — the thing the examples instantiate.

Note the composition caveat the paper raises in Section 5.4: when
several structures are adaptive at once, "the number of configurations
for a given structure might be limited due to larger delays in other
structures" — e.g. a large instruction queue floors the cycle time, so
shrinking the L1 below that floor buys no clock.  The
:meth:`effective_configurations` helper exposes exactly that
interaction.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.cache.adaptive import AdaptiveCacheHierarchy
from repro.core.clock import DynamicClock
from repro.core.manager import ConfigurationManager
from repro.core.structure import FixedStructure
from repro.ooo.adaptive import AdaptiveInstructionQueue


class CapProcessor:
    """A processor with an adaptive D-cache and an adaptive issue queue."""

    def __init__(
        self,
        dcache: AdaptiveCacheHierarchy | None = None,
        iqueue: AdaptiveInstructionQueue | None = None,
        fixed_structures: Sequence[FixedStructure] = (),
        switch_pause_cycles: int = 30,
    ) -> None:
        self.dcache = dcache if dcache is not None else AdaptiveCacheHierarchy()
        self.iqueue = iqueue if iqueue is not None else AdaptiveInstructionQueue()
        self.clock = DynamicClock(
            fixed_structures=tuple(fixed_structures),
            adaptive_structures=(self.dcache, self.iqueue),
            switch_pause_cycles=switch_pause_cycles,
        )
        self.manager = ConfigurationManager(
            clock=self.clock, structures=(self.dcache, self.iqueue)
        )

    def cycle_time_ns(self, configs: Mapping[str, Hashable] | None = None) -> float:
        """Cycle time of the current (or a hypothetical) configuration."""
        return self.clock.cycle_time_ns(configs)

    def current_configuration(self) -> dict[str, Hashable]:
        """Configuration vector currently enabled."""
        return {
            self.dcache.name: self.dcache.configuration,
            self.iqueue.name: self.iqueue.configuration,
        }

    def effective_configurations(self, structure: str) -> tuple[Hashable, ...]:
        """Configurations of ``structure`` that actually change the clock.

        With the *other* structures at their current configurations,
        several settings of this structure can share a cycle time (the
        slowest other structure dominates); only the distinct-cycle-time
        prefix plus the largest shared setting are effective — a larger
        one among the shared group gives strictly more capacity for the
        same clock, so the smaller ones are dominated for performance
        (they still matter for power).
        """
        cas = self.manager.structures[structure]
        periods: dict[Hashable, float] = {
            cfg: self.clock.cycle_time_ns({structure: cfg})
            for cfg in cas.configurations()
        }
        effective: list[Hashable] = []
        seen_periods: dict[float, Hashable] = {}
        for cfg in sorted(periods, key=lambda c: (periods[c], -float(c))):
            period = periods[cfg]
            if period not in seen_periods:
                seen_periods[period] = cfg
                effective.append(cfg)
        return tuple(sorted(effective, key=float))

    def describe(self) -> str:
        """Multi-line summary used by the quickstart example."""
        lines = [
            "Complexity-Adaptive Processor",
            f"  D-cache boundary: {self.dcache.configuration} increments "
            f"(L1 {self.dcache.configuration * self.dcache.geometry.increment_bytes // 1024} KB)",
            f"  Issue queue:      {self.iqueue.configuration} entries",
            f"  Cycle time:       {self.cycle_time_ns():.3f} ns "
            f"({1.0 / self.cycle_time_ns():.2f} GHz)",
        ]
        speeds = ", ".join(f"{p:.3f}" for p in self.clock.available_speeds_ns()[:8])
        lines.append(f"  Clock periods available (first 8): {speeds} ns")
        return "\n".join(lines)
