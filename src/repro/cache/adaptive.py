"""The movable-boundary cache hierarchy as a complexity-adaptive structure.

Wraps the direct simulator and timing model behind the
:class:`~repro.core.structure.ComplexityAdaptiveStructure` interface so
the Configuration Manager and dynamic clock can drive it.  A
configuration is simply the number of L1 increments.

Because caching is exclusive and the index/tag mapping is constant,
moving the boundary needs **no cleanup**: increments change designation
without invalidating or transferring data (paper Section 5.2).  Only the
clock changes, so the reconfiguration cost is exactly one clock switch.
The simulator is built on first simulation; until then
:meth:`reconfigure` only records the boundary, because moving an empty
hierarchy's boundary changes designation, not contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cache.config import (
    CacheGeometry,
    HierarchyConfig,
    PAPER_GEOMETRY,
    PAPER_MAX_L1_INCREMENTS,
)
from repro.cache.hierarchy import AccessLevel, TwoLevelExclusiveCache
from repro.cache.timing import CacheTimingModel
from repro.core.structure import (
    ComplexityAdaptiveStructure,
    ReconfigurationCost,
    StructureRunResult,
)
from repro.obs import trace as obs
from repro.obs.metrics import metrics


class AdaptiveCacheHierarchy(ComplexityAdaptiveStructure[int]):
    """Complexity-adaptive two-level D-cache (configuration = L1 increments)."""

    name = "dcache"

    def __init__(
        self,
        geometry: CacheGeometry = PAPER_GEOMETRY,
        timing: CacheTimingModel | None = None,
        max_l1_increments: int = PAPER_MAX_L1_INCREMENTS,
        initial_l1_increments: int = 2,
    ) -> None:
        self.geometry = geometry
        self.timing = timing if timing is not None else CacheTimingModel(geometry=geometry)
        self._boundaries = geometry.boundary_positions(max_l1_increments)
        #: Worst-case delay of every designed boundary, fixed at design time.
        self._delays = {k: self.timing.l1_access_time_ns(k) for k in self._boundaries}
        self._config = HierarchyConfig(geometry, initial_l1_increments)
        self._cache: TwoLevelExclusiveCache | None = None

    # -- ComplexityAdaptiveStructure interface ---------------------------

    def _all_configurations(self) -> Sequence[int]:
        """Designed boundary positions, smallest (fastest) L1 first."""
        return self._boundaries

    def delay_ns(self, config: int) -> float:
        """Critical-path delay = slowest enabled L1 increment access."""
        if config not in self._delays:
            self.validate(config)
        return self._delays[config]

    @property
    def configuration(self) -> int:
        """Current number of L1 increments."""
        return self._config.l1_increments

    def reconfigure(self, config: int) -> ReconfigurationCost:
        """Move the boundary; data stays put, only the clock may change."""
        self.validate_reachable(config)
        changed = config != self.configuration
        obs.event(
            "structure.reconfigure", structure=self.name,
            from_config=self.configuration, to_config=config, changed=changed,
        )
        metrics().counter(
            "repro_reconfigurations_total", "CAS reconfigure() calls"
        ).inc(structure=self.name, changed=str(changed).lower())
        self._config = HierarchyConfig(self.geometry, config)
        if self._cache is not None:
            self._cache.move_boundary(self._config)
        return ReconfigurationCost(cleanup_cycles=0, requires_clock_switch=changed)

    # -- simulation passthrough ------------------------------------------

    @property
    def hierarchy(self) -> TwoLevelExclusiveCache:
        """The underlying direct simulator, built on first use."""
        if self._cache is None:
            self._cache = TwoLevelExclusiveCache(self._config)
        return self._cache

    def run(
        self, addresses: np.ndarray, *, record_outcomes: bool = True
    ) -> StructureRunResult:
        """Simulate a trace under the current boundary.

        ``outcomes`` holds the per-reference :class:`AccessLevel` array
        (omitted when ``record_outcomes`` is false); ``stats`` carries
        the level tallies and hit/miss ratios.
        """
        with obs.span(
            "structure.run", level="structure",
            structure=self.name, configuration=self.configuration,
            n_events=len(addresses),
        ):
            levels = self.hierarchy.run(addresses)
        metrics().counter(
            "repro_structure_runs_total", "adaptive-structure run() calls"
        ).inc(structure=self.name)
        n = len(levels)
        counts = np.bincount(levels, minlength=4)
        n_l1 = int(counts[AccessLevel.L1])
        n_l2 = int(counts[AccessLevel.L2])
        n_miss = int(counts[AccessLevel.MISS])
        return StructureRunResult(
            structure=self.name,
            configuration=self.configuration,
            n_events=n,
            stats={
                "l1_hits": float(n_l1),
                "l2_hits": float(n_l2),
                "misses": float(n_miss),
                "l1_hit_ratio": n_l1 / n if n else 0.0,
                "l2_hit_ratio": n_l2 / n if n else 0.0,
                "miss_ratio": n_miss / n if n else 0.0,
            },
            outcomes=levels if record_outcomes else None,
        )


@dataclass(frozen=True)
class CacheConfigurationSpace:
    """Convenience bundle describing the paper's evaluated design space."""

    geometry: CacheGeometry = PAPER_GEOMETRY
    max_l1_increments: int = PAPER_MAX_L1_INCREMENTS
    timing: CacheTimingModel = field(default_factory=CacheTimingModel)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Evaluated boundary positions (L1 of 8-64 KB)."""
        return self.geometry.boundary_positions(self.max_l1_increments)

    def l1_sizes_kb(self) -> tuple[float, ...]:
        """The x-axis of the paper's Figure 7."""
        return tuple(
            HierarchyConfig(self.geometry, k).l1_kb for k in self.boundaries
        )
