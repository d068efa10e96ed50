"""Extension studies: TLB, branch predictor, and all structures in concert.

The paper's Section 5.4 argues its techniques "may be applied in
concert to other critical parts of the machine (such as TLBs and branch
predictors) to yield even greater performance improvements (although
the number of configurations for a given structure might be limited due
to larger delays in other structures)".  This module builds exactly
that evaluation:

* :func:`tlb_study` — process-level adaptive fast-section sizing of the
  backup-organised TLB (Section 4.2's single/two-cycle element idea).
* :func:`branch_study` — process-level adaptive predictor-table sizing,
  for either predictor organisation.
* :func:`concert_study` — the joint design space: every application
  picks (cache boundary, queue size, TLB fast section, predictor size)
  at once; the clock is the max of all four structure delays, so big
  settings of one structure make big settings of the others free — the
  interaction the paper warns about, measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.branch.timing import BranchTimingModel
from repro.branch.tpi import BranchTpiModel
from repro.branch.workloads import BRANCH_FRACTION
from repro.branch.predictors import PredictorKind
from repro.cache.config import PAPER_GEOMETRY, PAPER_MAX_L1_INCREMENTS
from repro.cache.timing import CacheTimingModel
from repro.core.metrics import TpiComparison
from repro.engine.cells import (
    SweepCell,
    branch_tpi_cell,
    cached_tlb_histogram,
    queue_tpi_cell,
    tlb_tpi_cell,
    tpi_table_from_payload,
)
from repro.engine.engine import ExperimentEngine, default_engine
from repro.experiments.cache_study import histogram_for
from repro.ooo.timing import PAPER_QUEUE_SIZES, QueueTimingModel
from repro.tlb.simulator import TlbDepthHistogram
from repro.tlb.timing import TlbTimingModel
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.suite import cache_study_profiles

#: TLB study trace sizes.
TLB_N_REFS: int = 30_000
TLB_WARMUP: int = 10_000
#: Branch study trace size.
BRANCH_N: int = 16_000


def _tlb_histogram(profile) -> TlbDepthHistogram:
    return cached_tlb_histogram(profile, TLB_N_REFS, TLB_WARMUP)


def _branch_tables(
    kind: PredictorKind, engine: ExperimentEngine | None
) -> dict[str, dict[int, dict]]:
    """Branch payload rows per application: app -> size -> row."""
    eng = engine if engine is not None else default_engine()
    profiles = cache_study_profiles()
    cells = [branch_tpi_cell(profile, kind, BRANCH_N) for profile in profiles]
    payloads = eng.map(cells)
    return {
        profile.name: {
            int(s): row for s, row in payload["breakdowns"].items()
        }
        for profile, payload in zip(profiles, payloads)
    }


@dataclass(frozen=True)
class StructureStudyResult:
    """Conventional-vs-adaptive comparison for one extension structure."""

    structure: str
    conventional_config: int
    best_configs: dict[str, int]
    tpi: TpiComparison
    table: dict[str, dict[int, float]] = field(repr=False)


def tlb_study(*, engine: ExperimentEngine | None = None) -> StructureStudyResult:
    """Process-level adaptive TLB fast-section sizing across the suite.

    Each application's cell is the one :func:`repro.api.request_cell`
    builds for a default ``tlb`` request, so the sweep service answers
    from the same result-cache entries.
    ``tests/test_api.py::TestHarnessAgreement`` holds every table entry
    to the API's ``tpi_ns``.
    """
    return _summarise(
        "tlb", lambda profile: tlb_tpi_cell(profile, TLB_N_REFS, TLB_WARMUP), engine
    )


def branch_study(
    kind: PredictorKind = PredictorKind.GSHARE,
    *,
    engine: ExperimentEngine | None = None,
) -> StructureStudyResult:
    """Process-level adaptive predictor-table sizing across the suite.

    Reads its table like :func:`tlb_study`, from the cells of default
    ``bpred`` requests for ``kind``.
    """
    return _summarise(
        f"bpred-{kind.value}",
        lambda profile: branch_tpi_cell(profile, kind, BRANCH_N),
        engine,
    )


def _summarise(
    structure: str,
    cell_for: Callable[[BenchmarkProfile], SweepCell],
    engine: ExperimentEngine | None,
) -> StructureStudyResult:
    """Compare sizings over one ``map`` of each cache-study app's cell."""
    eng = engine if engine is not None else default_engine()
    profiles = cache_study_profiles()
    payloads = eng.map([cell_for(profile) for profile in profiles])
    table = {
        profile.name: tpi_table_from_payload(payload)
        for profile, payload in zip(profiles, payloads)
    }
    apps = list(table)
    configs = sorted(next(iter(table.values())))
    conventional = min(
        configs, key=lambda c: sum(table[app][c] for app in apps)
    )
    best = {app: min(configs, key=lambda c: table[app][c]) for app in apps}
    comparison = TpiComparison(
        metric_name="Avg TPI (ns)",
        conventional={app: table[app][conventional] for app in apps},
        adaptive={app: table[app][best[app]] for app in apps},
    )
    return StructureStudyResult(
        structure=structure,
        conventional_config=conventional,
        best_configs=best,
        tpi=comparison,
        table=table,
    )


# ---------------------------------------------------------------------------
# All structures in concert
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcertConfig:
    """One point of the joint design space."""

    cache_boundary: int
    queue_entries: int
    tlb_fast_entries: int
    predictor_entries: int


@dataclass(frozen=True)
class ConcertStudyResult:
    """Joint adaptivity versus a joint conventional configuration."""

    conventional: ConcertConfig
    best_configs: dict[str, ConcertConfig]
    tpi: TpiComparison
    #: How many joint configurations share the conventional cycle time —
    #: the Section 5.4 "configurations limited by other structures".
    dominated_fraction: float


@dataclass
class _ConcertSpace:
    cache_boundaries: tuple[int, ...]
    queue_sizes: tuple[int, ...]
    tlb_boundaries: tuple[int, ...]
    predictor_sizes: tuple[int, ...]
    cache_delay: dict[int, float]
    queue_delay: dict[int, float]
    tlb_delay: dict[int, float]
    predictor_delay: dict[int, float]


def _concert_space() -> _ConcertSpace:
    cache_timing = CacheTimingModel()
    queue_timing = QueueTimingModel()
    tlb_timing = TlbTimingModel()
    branch_timing = BranchTimingModel()
    cache_boundaries = PAPER_GEOMETRY.boundary_positions(PAPER_MAX_L1_INCREMENTS)
    return _ConcertSpace(
        cache_boundaries=cache_boundaries,
        queue_sizes=PAPER_QUEUE_SIZES,
        tlb_boundaries=tlb_timing.boundaries(),
        predictor_sizes=tuple(sorted(branch_timing.sizes)),
        cache_delay={k: cache_timing.l1_access_time_ns(k) for k in cache_boundaries},
        queue_delay={w: queue_timing.cycle_time_ns(w) for w in PAPER_QUEUE_SIZES},
        tlb_delay={f: tlb_timing.lookup_time_ns(f) for f in tlb_timing.boundaries()},
        predictor_delay={
            s: branch_timing.lookup_time_ns(s) for s in sorted(branch_timing.sizes)
        },
    )


def _concert_tpi_table(
    kind: PredictorKind,
    n_instructions: int,
    engine: ExperimentEngine | None = None,
) -> tuple[dict[str, np.ndarray], _ConcertSpace]:
    """Per-app joint TPI tensor, axes (cache, queue, tlb, predictor)."""
    space = _concert_space()
    cache_timing = CacheTimingModel()
    l2_access = cache_timing.l2_access_time_ns()
    miss_ns = cache_timing.miss_latency_ns()
    tlb_timing = TlbTimingModel()
    walk_ns = tlb_timing.page_walk_ns()
    backup_cycles = tlb_timing.backup_extra_cycles()
    penalty = BranchTpiModel(kind=kind).penalty_cycles

    # Fan out the simulated inputs (queue IPCs, misprediction rates) as
    # one batch; histograms stay in the per-process memo.
    eng = engine if engine is not None else default_engine()
    profiles = cache_study_profiles()
    queue_payloads = eng.map(
        [
            queue_tpi_cell(profile, n_instructions, space.queue_sizes)
            for profile in profiles
        ]
    )
    ipcs_by_app = {
        profile.name: {
            w: payload["results"][str(w)]["ipc"] for w in space.queue_sizes
        }
        for profile, payload in zip(profiles, queue_payloads)
    }
    rates_by_app = {
        app: {s: row["misprediction_rate"] for s, row in rows.items()}
        for app, rows in _branch_tables(kind, eng).items()
    }

    tables: dict[str, np.ndarray] = {}
    for profile in profiles:
        ls = profile.memory.load_store_fraction
        cache_hist = histogram_for(profile)
        n_refs = cache_hist.n_references
        n_instr = n_refs / ls
        tlb_hist = _tlb_histogram(profile)
        tlb_instr = tlb_hist.n_accesses / ls
        rates = rates_by_app[profile.name]
        ipcs = ipcs_by_app[profile.name]

        shape = (
            len(space.cache_boundaries),
            len(space.queue_sizes),
            len(space.tlb_boundaries),
            len(space.predictor_sizes),
        )
        tpi = np.empty(shape)
        for ci, k in enumerate(space.cache_boundaries):
            l2_hits = cache_hist.l2_hits(k)
            misses = cache_hist.misses(k)
            for qi, w in enumerate(space.queue_sizes):
                ipc = ipcs[w]
                for ti, f in enumerate(space.tlb_boundaries):
                    backup = tlb_hist.backup_hits(f)
                    walks = tlb_hist.walk_count()
                    for bi, s in enumerate(space.predictor_sizes):
                        cycle = max(
                            space.cache_delay[k],
                            space.queue_delay[w],
                            space.tlb_delay[f],
                            space.predictor_delay[s],
                        )
                        l2_cycles = math.ceil(l2_access / cycle)
                        cache_stall = (
                            l2_hits * l2_cycles * cycle + misses * miss_ns
                        ) / n_instr
                        tlb_stall = (
                            backup * backup_cycles * cycle + walks * walk_ns
                        ) / tlb_instr
                        branch_cpi = BRANCH_FRACTION * rates[s] * penalty
                        tpi[ci, qi, ti, bi] = (
                            cycle * (1.0 / ipc + branch_cpi)
                            + cache_stall
                            + tlb_stall
                        )
        tables[profile.name] = tpi
    return tables, space


def concert_study(
    kind: PredictorKind = PredictorKind.GSHARE,
    n_instructions: int = 16_000,
    *,
    engine: ExperimentEngine | None = None,
) -> ConcertStudyResult:
    """Jointly adapt all four structures, per application."""
    tables, space = _concert_tpi_table(kind, n_instructions, engine)
    apps = list(tables)
    total = np.zeros_like(next(iter(tables.values())))
    for tpi in tables.values():
        total += tpi
    conv_idx = np.unravel_index(int(np.argmin(total)), total.shape)
    conventional = ConcertConfig(
        cache_boundary=space.cache_boundaries[conv_idx[0]],
        queue_entries=space.queue_sizes[conv_idx[1]],
        tlb_fast_entries=space.tlb_boundaries[conv_idx[2]],
        predictor_entries=space.predictor_sizes[conv_idx[3]],
    )
    best_configs: dict[str, ConcertConfig] = {}
    conventional_tpi: dict[str, float] = {}
    adaptive_tpi: dict[str, float] = {}
    for app in apps:
        tpi = tables[app]
        idx = np.unravel_index(int(np.argmin(tpi)), tpi.shape)
        best_configs[app] = ConcertConfig(
            cache_boundary=space.cache_boundaries[idx[0]],
            queue_entries=space.queue_sizes[idx[1]],
            tlb_fast_entries=space.tlb_boundaries[idx[2]],
            predictor_entries=space.predictor_sizes[idx[3]],
        )
        conventional_tpi[app] = float(tpi[conv_idx])
        adaptive_tpi[app] = float(tpi[idx])

    # Section 5.4 interaction: with the conventional queue flooring the
    # clock, how many cache boundaries fail to change the cycle time?
    floor = space.queue_delay[conventional.queue_entries]
    dominated = sum(
        1 for k in space.cache_boundaries if space.cache_delay[k] <= floor
    )
    return ConcertStudyResult(
        conventional=conventional,
        best_configs=best_configs,
        tpi=TpiComparison(
            metric_name="Avg TPI (ns)",
            conventional=conventional_tpi,
            adaptive=adaptive_tpi,
        ),
        dominated_fraction=dominated / len(space.cache_boundaries),
    )
