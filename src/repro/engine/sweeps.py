"""Unified structure sweeps: one protocol over four structures.

Historically each structure grew its own copy-pasted sweep API
(``CacheTpiModel.sweep``, ``TlbTpiModel.sweep``, ``BranchTpiModel.sweep``
and ``queue_study.sweep_for``), each with a different workload argument
and a different breakdown type.  The classes here implement the shared
:class:`repro.core.metrics.StructureSweep` protocol instead: every
structure maps a :class:`~repro.workloads.profiles.BenchmarkProfile` to
``{configuration: SweepResult}`` with the same four fields, so the
experiment engine — and anything else comparing structures — can drive
them generically.

All four delegate to engine sweep cells, so a sweep is parallelisable
and cacheable by construction: pass an :class:`ExperimentEngine` to get
fan-out and the content-addressed cache, or none for inline evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.branch.predictors import PredictorKind
from repro.branch.timing import BranchTimingModel
from repro.cache.config import PAPER_GEOMETRY, PAPER_MAX_L1_INCREMENTS
from repro.core.metrics import SweepResult, best_sweep_result
from repro.engine.cells import (
    SweepCell,
    branch_tpi_cell,
    cache_tpi_cell,
    queue_tpi_cell,
    tlb_tpi_cell,
)
from repro.engine.engine import ExperimentEngine, default_engine
from repro.ooo.timing import PAPER_QUEUE_SIZES
from repro.tlb.timing import TlbTimingModel
from repro.workloads.profiles import BenchmarkProfile

#: Default cache-study trace sizing (mirrors the Figure 7-9 harness).
CACHE_SWEEP_N_REFS: int = 60_000
CACHE_SWEEP_WARMUP_REFS: int = 20_000
#: Default queue-study trace sizing (mirrors the Figure 10/11 harness).
QUEUE_SWEEP_N_INSTRUCTIONS: int = 16_000
#: Default TLB-study trace sizing (mirrors the extension study).
TLB_SWEEP_N_REFS: int = 30_000
TLB_SWEEP_WARMUP_REFS: int = 10_000
#: Default branch-study trace sizing (mirrors the extension study).
BRANCH_SWEEP_N_BRANCHES: int = 16_000


def _engine(engine: ExperimentEngine | None) -> ExperimentEngine:
    return engine if engine is not None else default_engine()


@dataclass(frozen=True)
class CacheStructureSweep:
    """L1/L2 boundary sweep of the movable-boundary cache hierarchy."""

    structure: str = "dcache"
    n_refs: int = CACHE_SWEEP_N_REFS
    warmup_refs: int = CACHE_SWEEP_WARMUP_REFS
    boundaries: tuple[int, ...] = field(
        default_factory=lambda: PAPER_GEOMETRY.boundary_positions(
            PAPER_MAX_L1_INCREMENTS
        )
    )

    def configurations(self) -> tuple[int, ...]:
        """Boundary positions (L1 increments), fastest first."""
        return tuple(self.boundaries)

    def cell(self, profile: BenchmarkProfile) -> "SweepCell":
        """The engine cell evaluating this sweep for one application."""
        return cache_tpi_cell(profile, self.n_refs, self.warmup_refs, self.boundaries)

    def results_from_payload(self, payload: dict) -> dict[int, SweepResult]:
        """Assemble :meth:`cell`'s payload into unified sweep results."""
        return {
            int(k): SweepResult(
                config=int(k),
                tpi_ns=row["tpi_ns"],
                ipc=row["cycle_time_ns"] / row["tpi_ns"],
                cycle_time_ns=row["cycle_time_ns"],
            )
            for k, row in payload["breakdowns"].items()
        }

    def sweep(
        self,
        profile: BenchmarkProfile,
        *,
        engine: ExperimentEngine | None = None,
    ) -> dict[int, SweepResult]:
        """TPI of one application at every boundary position."""
        return self.results_from_payload(
            _engine(engine).run_cell(self.cell(profile))
        )

    def best(
        self,
        profile: BenchmarkProfile,
        *,
        engine: ExperimentEngine | None = None,
    ) -> SweepResult:
        """The TPI-minimising boundary for one application."""
        return best_sweep_result(self.sweep(profile, engine=engine))


@dataclass(frozen=True)
class QueueStructureSweep:
    """Issue-queue size sweep of the out-of-order machine."""

    structure: str = "iqueue"
    n_instructions: int = QUEUE_SWEEP_N_INSTRUCTIONS
    sizes: tuple[int, ...] = PAPER_QUEUE_SIZES

    def configurations(self) -> tuple[int, ...]:
        """Queue sizes, fastest first."""
        return tuple(sorted(self.sizes))

    def cell(self, profile: BenchmarkProfile) -> "SweepCell":
        """The engine cell evaluating this sweep for one application."""
        return queue_tpi_cell(profile, self.n_instructions, self.configurations())

    def results_from_payload(self, payload: dict) -> dict[int, SweepResult]:
        """Assemble :meth:`cell`'s payload into unified sweep results."""
        return {
            int(w): SweepResult(
                config=int(w),
                tpi_ns=row["cycle_time_ns"] / row["ipc"],
                ipc=row["ipc"],
                cycle_time_ns=row["cycle_time_ns"],
            )
            for w, row in payload["results"].items()
        }

    def sweep(
        self,
        profile: BenchmarkProfile,
        *,
        engine: ExperimentEngine | None = None,
    ) -> dict[int, SweepResult]:
        """TPI of one application at every queue size."""
        return self.results_from_payload(
            _engine(engine).run_cell(self.cell(profile))
        )

    def best(
        self,
        profile: BenchmarkProfile,
        *,
        engine: ExperimentEngine | None = None,
    ) -> SweepResult:
        """The TPI-minimising queue size for one application."""
        return best_sweep_result(self.sweep(profile, engine=engine))


@dataclass(frozen=True)
class TlbStructureSweep:
    """Fast-section sweep of the backup-organised TLB."""

    structure: str = "tlb"
    n_refs: int = TLB_SWEEP_N_REFS
    warmup_refs: int = TLB_SWEEP_WARMUP_REFS

    def configurations(self) -> tuple[int, ...]:
        """Fast-section sizes, fastest first."""
        return TlbTimingModel().boundaries()

    def cell(self, profile: BenchmarkProfile) -> "SweepCell":
        """The engine cell evaluating this sweep for one application."""
        return tlb_tpi_cell(profile, self.n_refs, self.warmup_refs)

    def results_from_payload(self, payload: dict) -> dict[int, SweepResult]:
        """Assemble :meth:`cell`'s payload into unified sweep results."""
        return {
            int(f): SweepResult(
                config=int(f),
                tpi_ns=row["tpi_ns"],
                ipc=row["cycle_time_ns"] / row["tpi_ns"],
                cycle_time_ns=row["cycle_time_ns"],
            )
            for f, row in payload["breakdowns"].items()
        }

    def sweep(
        self,
        profile: BenchmarkProfile,
        *,
        engine: ExperimentEngine | None = None,
    ) -> dict[int, SweepResult]:
        """TPI of one application at every fast-section size."""
        return self.results_from_payload(
            _engine(engine).run_cell(self.cell(profile))
        )

    def best(
        self,
        profile: BenchmarkProfile,
        *,
        engine: ExperimentEngine | None = None,
    ) -> SweepResult:
        """The TPI-minimising fast-section size for one application."""
        return best_sweep_result(self.sweep(profile, engine=engine))


@dataclass(frozen=True)
class BranchStructureSweep:
    """Table-size sweep of the adaptive branch predictor."""

    structure: str = "bpred"
    kind: PredictorKind = PredictorKind.GSHARE
    n_branches: int = BRANCH_SWEEP_N_BRANCHES

    def configurations(self) -> tuple[int, ...]:
        """Table sizes, fastest first."""
        return tuple(sorted(BranchTimingModel().sizes))

    def cell(self, profile: BenchmarkProfile) -> "SweepCell":
        """The engine cell evaluating this sweep for one application."""
        return branch_tpi_cell(profile, self.kind, self.n_branches)

    def results_from_payload(self, payload: dict) -> dict[int, SweepResult]:
        """Assemble :meth:`cell`'s payload into unified sweep results."""
        return {
            int(s): SweepResult(
                config=int(s),
                tpi_ns=row["tpi_ns"],
                ipc=row["cycle_time_ns"] / row["tpi_ns"],
                cycle_time_ns=row["cycle_time_ns"],
            )
            for s, row in payload["breakdowns"].items()
        }

    def sweep(
        self,
        profile: BenchmarkProfile,
        *,
        engine: ExperimentEngine | None = None,
    ) -> dict[int, SweepResult]:
        """TPI of one application at every table size."""
        return self.results_from_payload(
            _engine(engine).run_cell(self.cell(profile))
        )

    def best(
        self,
        profile: BenchmarkProfile,
        *,
        engine: ExperimentEngine | None = None,
    ) -> SweepResult:
        """The TPI-minimising table size for one application."""
        return best_sweep_result(self.sweep(profile, engine=engine))


def all_structure_sweeps() -> tuple:
    """One default-configured sweep per structure (protocol instances)."""
    return (
        CacheStructureSweep(),
        QueueStructureSweep(),
        TlbStructureSweep(),
        BranchStructureSweep(),
    )
