"""Ablations of the design choices the paper calls out.

Four studies, each isolating one decision:

* :func:`increment_granularity_ablation` — the paper's chosen 8 KB
  two-way set-associative, two-way-banked increment against "a
  competing direct-mapped two-way banked 4KB increment design"
  (Section 5.2.1): finer configuration increments, but longer global
  busses per kilobyte of L1.
* :func:`latency_mode_ablation` — Section 3.1's alternative of keeping
  the fastest clock and stretching the L1 *latency in cycles* instead
  of slowing the clock, which penalises only loads and stores.
* :func:`flush_reconfiguration_ablation` — what exclusion + constant
  index/tag mapping buy: a naive reconfigurable cache that invalidates
  on every boundary move versus the CAP's data-preserving move.
* :func:`confidence_threshold_sweep` and
  :func:`switch_cost_sensitivity` — how the Section 6 interval policy
  responds to its two key knobs on the irregular (Figure 13b) and
  regular (Figure 13a) workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cache.config import CacheGeometry
from repro.cache.hierarchy import AccessLevel, TwoLevelExclusiveCache, HierarchyConfig
from repro.cache.timing import CacheTimingModel, LatencyMode
from repro.core.policies import IntervalAdaptivePolicy, PolicyOutcome, evaluate_policy
from repro.core.predictor import ConfigurationPredictor
from repro.engine.cells import cache_tpi_cell, tpi_table_from_payload
from repro.engine.engine import ExperimentEngine, default_engine
from repro.experiments.cache_study import DEFAULT_N_REFS, DEFAULT_WARMUP_REFS
from repro.experiments.interval_study import IntervalStudyResult
from repro.tech.cacti import CacheIncrementTiming
from repro.workloads.address_trace import generate_address_trace
from repro.workloads.suite import cache_study_profiles


def fine_grained_geometry() -> CacheGeometry:
    """The competing design: 32 x 4 KB direct-mapped two-way-banked
    increments (same 128 KB total, same 128 sets)."""
    return CacheGeometry(
        n_increments=32,
        ways_per_increment=1,
        block_bytes=32,
        increment_bytes=4096,
        increment_timing=CacheIncrementTiming(
            bank_bytes=2048, n_banks=2, associativity=1, block_bytes=32
        ),
    )


@dataclass(frozen=True)
class GranularityAblation:
    """Suite-level comparison of the two increment designs."""

    paper_suite_tpi_ns: float
    fine_suite_tpi_ns: float
    paper_cycle_at_16kb: float
    fine_cycle_at_16kb: float
    paper_adaptive_tpi_ns: float
    fine_adaptive_tpi_ns: float

    @property
    def paper_design_wins(self) -> bool:
        """The paper's stated reason for choosing 8 KB increments."""
        return self.paper_adaptive_tpi_ns <= self.fine_adaptive_tpi_ns


def _suite_tpis(
    geometry: CacheGeometry,
    max_l1_bytes: int,
    engine: ExperimentEngine | None = None,
) -> tuple[float, float]:
    """(best-conventional suite TPI, per-app adaptive suite TPI)."""
    boundaries = tuple(
        k
        for k in geometry.boundary_positions()
        if k * geometry.increment_bytes <= max_l1_bytes
    )
    eng = engine if engine is not None else default_engine()
    profiles = cache_study_profiles()
    payloads = eng.map(
        [
            cache_tpi_cell(
                profile,
                DEFAULT_N_REFS,
                DEFAULT_WARMUP_REFS,
                boundaries,
                geometry=geometry,
            )
            for profile in profiles
        ]
    )
    per_app = {
        profile.name: tpi_table_from_payload(payload)
        for profile, payload in zip(profiles, payloads)
    }
    conventional = min(
        boundaries,
        key=lambda k: sum(rows[k] for rows in per_app.values()),
    )
    conv_tpi = sum(rows[conventional] for rows in per_app.values()) / len(per_app)
    adaptive_tpi = sum(min(rows.values()) for rows in per_app.values()) / len(per_app)
    return conv_tpi, adaptive_tpi


def increment_granularity_ablation(
    *, engine: ExperimentEngine | None = None
) -> GranularityAblation:
    """Compare the paper's 8 KB increments with 4 KB increments."""
    from repro.cache.config import PAPER_GEOMETRY

    paper_conv, paper_adapt = _suite_tpis(
        PAPER_GEOMETRY, max_l1_bytes=64 * 1024, engine=engine
    )
    fine = fine_grained_geometry()
    fine_conv, fine_adapt = _suite_tpis(fine, max_l1_bytes=64 * 1024, engine=engine)
    paper_timing = CacheTimingModel(geometry=PAPER_GEOMETRY)
    fine_timing = CacheTimingModel(geometry=fine)
    return GranularityAblation(
        paper_suite_tpi_ns=paper_conv,
        fine_suite_tpi_ns=fine_conv,
        paper_cycle_at_16kb=paper_timing.cycle_time_ns(2),
        fine_cycle_at_16kb=fine_timing.cycle_time_ns(4),
        paper_adaptive_tpi_ns=paper_adapt,
        fine_adaptive_tpi_ns=fine_adapt,
    )


# ---------------------------------------------------------------------------
# Latency mode (Section 3.1)
# ---------------------------------------------------------------------------

#: IPC lost per extra L1 latency cycle per unit of load/store density:
#: each extra cycle of load-use latency stalls dependent instructions;
#: with ~one dependent instruction per load and a 4-wide pipeline the
#: first-order penalty is about 15% of the load's issue slot.
LOAD_USE_SENSITIVITY: float = 0.15


@dataclass(frozen=True)
class LatencyModeAblation:
    """Per-application best TPI under each Section 3.1 option."""

    clock_mode_tpi: dict[str, float]
    latency_mode_tpi: dict[str, float]

    def winners(self) -> dict[str, str]:
        """Which option wins per application."""
        return {
            app: ("latency" if self.latency_mode_tpi[app] < self.clock_mode_tpi[app]
                  else "clock")
            for app in self.clock_mode_tpi
        }


def latency_mode_ablation(
    *, engine: ExperimentEngine | None = None
) -> LatencyModeAblation:
    """Best-configuration TPI per app: vary the clock vs. the latency.

    In latency mode the clock stays at the one-increment rate and a
    bigger L1 costs extra hit-latency cycles, which only loads/stores
    pay.  The base IPC is degraded by the load-use penalty of the extra
    cycles; everything else (L2/miss stalls) is evaluated identically.
    """
    boundaries = tuple(range(1, 9))
    eng = engine if engine is not None else default_engine()
    profiles = cache_study_profiles()
    clock_payloads = eng.map(
        [
            cache_tpi_cell(
                profile,
                DEFAULT_N_REFS,
                DEFAULT_WARMUP_REFS,
                boundaries,
                mode=LatencyMode.CLOCK,
            )
            for profile in profiles
        ]
    )
    lat_payloads = eng.map(
        [
            cache_tpi_cell(
                profile,
                DEFAULT_N_REFS,
                DEFAULT_WARMUP_REFS,
                boundaries,
                mode=LatencyMode.LATENCY,
            )
            for profile in profiles
        ]
    )

    clock_tpi: dict[str, float] = {}
    latency_tpi: dict[str, float] = {}
    for profile, clock_payload, lat_payload in zip(
        profiles, clock_payloads, lat_payloads
    ):
        ls = profile.memory.load_store_fraction
        clock_tpi[profile.name] = min(
            row["tpi_ns"] for row in clock_payload["breakdowns"].values()
        )
        rows = lat_payload["breakdowns"]
        base_latency = rows[str(boundaries[0])]["l1_latency_cycles"]
        best_lat = math.inf
        for k in boundaries:
            row = rows[str(k)]
            extra = row["l1_latency_cycles"] - base_latency
            ipc_scale = 1.0 + LOAD_USE_SENSITIVITY * ls * extra
            tpi_base = row["tpi_ns"] - row["tpi_miss_ns"]
            adjusted = tpi_base * ipc_scale + row["tpi_miss_ns"]
            best_lat = min(best_lat, adjusted)
        latency_tpi[profile.name] = best_lat
    return LatencyModeAblation(clock_mode_tpi=clock_tpi, latency_mode_tpi=latency_tpi)


# ---------------------------------------------------------------------------
# Flush-on-reconfigure (what exclusion buys)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlushAblation:
    """Extra misses caused by flushing on one mid-run reconfiguration."""

    app: str
    preserved_misses: int
    flushed_misses: int
    extra_miss_ns: float

    @property
    def extra_misses(self) -> int:
        """Misses attributable to the flush."""
        return self.flushed_misses - self.preserved_misses


def flush_reconfiguration_ablation(
    app: str = "stereo",
    n_refs: int = 30_000,
    boundary_change: tuple[int, int] = (2, 6),
) -> FlushAblation:
    """Reconfigure mid-trace with and without invalidating the cache."""
    from repro.cache.config import PAPER_GEOMETRY
    from repro.workloads.suite import get_profile

    profile = get_profile(app)
    addresses = generate_address_trace(profile.memory, n_refs, profile.seed)
    half = n_refs // 2
    before, after = boundary_change

    def run(flush: bool) -> int:
        cache = TwoLevelExclusiveCache(HierarchyConfig(PAPER_GEOMETRY, before))
        misses = int(np.sum(cache.run(addresses[:half]) == AccessLevel.MISS))
        cache.move_boundary(HierarchyConfig(PAPER_GEOMETRY, after))
        if flush:
            cache.flush()
        misses += int(np.sum(cache.run(addresses[half:]) == AccessLevel.MISS))
        return misses

    preserved = run(flush=False)
    flushed = run(flush=True)
    timing = CacheTimingModel()
    return FlushAblation(
        app=app,
        preserved_misses=preserved,
        flushed_misses=flushed,
        extra_miss_ns=(flushed - preserved) * timing.miss_latency_ns(),
    )


# ---------------------------------------------------------------------------
# Section 6 policy sensitivity
# ---------------------------------------------------------------------------


def _gated_outcome(
    result: IntervalStudyResult,
    threshold: float,
    switch_pause_cycles: int = 30,
) -> PolicyOutcome:
    windows = tuple(sorted(result.series))
    predictor = ConfigurationPredictor(
        configurations=windows, history=4, confidence_threshold=threshold
    )
    policy = IntervalAdaptivePolicy(predictor, initial=windows[0])
    return evaluate_policy(
        result.series, policy, switch_pause_cycles=switch_pause_cycles
    )


def confidence_threshold_sweep(
    result: IntervalStudyResult,
    thresholds: tuple[float, ...] = (0.3, 0.5, 0.65, 0.75, 0.85, 0.95),
) -> dict[float, PolicyOutcome]:
    """Gated-policy outcome at each confidence threshold."""
    return {t: _gated_outcome(result, t) for t in thresholds}


def switch_cost_sensitivity(
    result: IntervalStudyResult,
    pauses: tuple[int, ...] = (0, 30, 100, 300, 1000),
    threshold: float = 0.75,
) -> dict[int, PolicyOutcome]:
    """Gated-policy outcome as the clock-switch pause grows."""
    return {
        p: _gated_outcome(result, threshold, switch_pause_cycles=p) for p in pauses
    }
