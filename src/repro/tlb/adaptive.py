"""The TLB as a complexity-adaptive structure.

The configuration is the fast-section size (entries on the single-cycle
match path).  Unlike the issue queue, nothing drains on reconfiguration
— entries merely change sections, exactly like cache increments
changing level designation — so the only cost is the clock switch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.structure import (
    ComplexityAdaptiveStructure,
    ReconfigurationCost,
    StructureRunResult,
)
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.tlb.simulator import PageStackEngine, TlbDepthHistogram
from repro.tlb.timing import TlbTimingModel


class AdaptiveTlb(ComplexityAdaptiveStructure[int]):
    """Complexity-adaptive TLB (configuration = fast-section entries)."""

    name = "tlb"

    def __init__(
        self,
        timing: TlbTimingModel | None = None,
        initial_fast_entries: int | None = None,
    ) -> None:
        self.timing = timing if timing is not None else TlbTimingModel()
        boundaries = self.timing.boundaries()
        self._current = (
            initial_fast_entries if initial_fast_entries is not None else boundaries[-1]
        )
        self.validate(self._current)

    def _all_configurations(self) -> Sequence[int]:
        """Designed fast-section sizes, smallest (fastest) first."""
        return self.timing.boundaries()

    def delay_ns(self, config: int) -> float:
        """Critical path: the single-cycle CAM match."""
        self.validate(config)
        return self.timing.lookup_time_ns(config)

    @property
    def configuration(self) -> int:
        """Current fast-section size."""
        return self._current

    def reconfigure(self, config: int) -> ReconfigurationCost:
        """Move the fast/backup boundary; translations stay resident."""
        self.validate_reachable(config)
        changed = config != self._current
        obs.event(
            "structure.reconfigure", structure=self.name,
            from_config=self._current, to_config=config, changed=changed,
        )
        metrics().counter(
            "repro_reconfigurations_total", "CAS reconfigure() calls"
        ).inc(structure=self.name, changed=str(changed).lower())
        self._current = config
        return ReconfigurationCost(cleanup_cycles=0, requires_clock_switch=changed)

    def run(
        self, addresses: np.ndarray, *, record_outcomes: bool = True
    ) -> StructureRunResult:
        """Translate a byte-address trace at the current boundary.

        ``outcomes`` holds the per-access page stack depths (omitted
        when ``record_outcomes`` is false); ``stats`` carries the
        fast/backup/walk tallies and ratios.
        """
        with obs.span(
            "structure.run", level="structure",
            structure=self.name, configuration=self._current,
            n_events=len(addresses),
        ):
            engine = PageStackEngine(self.timing.total_entries)
            depths = engine.process(addresses)
            hist = TlbDepthHistogram.from_depths(self.timing.total_entries, depths)
        metrics().counter(
            "repro_structure_runs_total", "adaptive-structure run() calls"
        ).inc(structure=self.name)
        n = hist.n_accesses
        fast = hist.fast_hits(self._current)
        backup = hist.backup_hits(self._current)
        walks = hist.walk_count()
        return StructureRunResult(
            structure=self.name,
            configuration=self._current,
            n_events=n,
            stats={
                "fast_hits": float(fast),
                "backup_hits": float(backup),
                "walks": float(walks),
                "fast_hit_ratio": fast / n if n else 0.0,
                "backup_hit_ratio": backup / n if n else 0.0,
                "walk_ratio": walks / n if n else 0.0,
            },
            outcomes=depths if record_outcomes else None,
        )
