"""Graceful-degradation study: TPI retained on broken, noisy hardware.

The paper evaluates CAPs on perfect hardware: every increment works and
the monitoring counters report exact TPI.  This study asks how much of
the adaptive advantage survives when neither holds.  For each structure
(cache, queue, TLB, branch predictor) it sweeps a grid of

* **fault count** — a fraction of the structure's non-minimal hardware
  increments marked failed (deterministically drawn by
  :class:`~repro.robust.faults.HardwareFaultModel`), shrinking the
  reachable configuration set, and
* **sensor noise** — multiplicative error on every TPI measurement the
  Configuration Manager's candidate evaluation sees
  (:class:`~repro.robust.sensors.NoisySensor`),

then runs several process-level adaptation rounds under the TPI
watchdog and reports **TPI retained**: the fault-free oracle TPI (best
designed configuration, clean sensors) divided by the TPI the degraded
machine actually settles on.  1.0 means no loss; the gap decomposes
into the *capability* loss (the oracle configuration is masked) and the
*control* loss (noise steered the selection somewhere worse).

Per-configuration true-TPI tables come from the engine's sweep cells,
so the study shares the cache/parallelism machinery (and result cache)
with every other experiment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.branch.adaptive import AdaptiveBranchPredictor
from repro.branch.predictors import PredictorKind
from repro.cache.adaptive import AdaptiveCacheHierarchy
from repro.core.clock import DynamicClock
from repro.core.manager import ConfigurationManager
from repro.core.structure import ComplexityAdaptiveStructure
from repro.engine.cells import (
    SweepCell,
    branch_tpi_cell,
    cache_tpi_cell,
    queue_tpi_cell,
    tlb_tpi_cell,
    tpi_table_from_payload,
)
from repro.engine.engine import ExperimentEngine
from repro.errors import ConfigurationError
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.ooo.adaptive import AdaptiveInstructionQueue
from repro.robust.faults import HardwareFaultModel
from repro.robust.guardrails import TpiWatchdog
from repro.robust.sensors import NoisySensor, SensorNoiseConfig
from repro.tlb.adaptive import AdaptiveTlb
from repro.workloads.suite import get_profile

#: Structures in the study, with the workload each one's TPI table uses
#: (matching the pairings of the main figure studies).
STUDY_STRUCTURES: tuple[str, ...] = ("dcache", "iqueue", "tlb", "bpred")


@dataclass(frozen=True)
class DegradationCell:
    """One (structure, fault level, noise level) outcome."""

    structure: str
    fail_fraction: float
    noise_fraction: float
    n_designed: int
    n_reachable: int
    #: Best TPI over every *designed* configuration (fault-free oracle).
    oracle_tpi_ns: float
    #: Best TPI over the *reachable* configurations — the capability
    #: ceiling; no controller can beat this on the degraded machine.
    degraded_oracle_tpi_ns: float
    #: TPI of the configuration the adaptive machine settled on.
    final_tpi_ns: float
    n_regressions: int
    n_fallbacks: int
    #: Regressions where a strictly better safe configuration was known
    #: but the watchdog failed to move — always 0 by construction.
    n_unrecovered: int

    @property
    def retained(self) -> float:
        """Fraction of fault-free oracle performance retained (<= 1)."""
        return self.oracle_tpi_ns / self.final_tpi_ns


@dataclass(frozen=True)
class DegradationStudy:
    """Full sweep grid across structures."""

    cells: tuple[DegradationCell, ...]
    seed: int
    n_rounds: int

    def worst_retained(self) -> float:
        """The worst retained fraction anywhere in the grid."""
        return min(c.retained for c in self.cells)

    def total_unrecovered(self) -> int:
        """Regressions left unrecovered across the grid (should be 0)."""
        return sum(c.n_unrecovered for c in self.cells)


def _structure_instances() -> dict[str, ComplexityAdaptiveStructure]:
    return {
        "dcache": AdaptiveCacheHierarchy(),
        "iqueue": AdaptiveInstructionQueue(),
        "tlb": AdaptiveTlb(),
        "bpred": AdaptiveBranchPredictor(),
    }


def _tpi_cells(
    structures: Mapping[str, ComplexityAdaptiveStructure],
    n_refs: int,
    warmup_refs: int,
    n_instructions: int,
    n_branches: int,
) -> dict[str, SweepCell]:
    compress, stereo = get_profile("compress"), get_profile("stereo")
    return {
        "dcache": cache_tpi_cell(
            compress, n_refs, warmup_refs,
            tuple(structures["dcache"]._all_configurations()),
        ),
        "iqueue": queue_tpi_cell(
            compress, n_instructions,
            tuple(structures["iqueue"]._all_configurations()),
        ),
        "tlb": tlb_tpi_cell(stereo, n_refs, warmup_refs),
        "bpred": branch_tpi_cell(stereo, PredictorKind.GSHARE, n_branches),
    }


def _run_cell(
    cas: ComplexityAdaptiveStructure,
    table: Mapping[Hashable, float],
    fail_fraction: float,
    noise_fraction: float,
    seed: int,
    n_rounds: int,
    tolerance: float,
) -> DegradationCell:
    """One adaptive run on one degraded, noisy machine."""
    name = cas.name
    designed = tuple(cas._all_configurations())
    fault_model = HardwareFaultModel.seeded(
        seed, {name: len(designed)}, fail_fraction
    )
    fault_model.apply(cas)
    reachable = tuple(cas.configurations())

    sensor = NoisySensor(
        SensorNoiseConfig(noise_fraction=noise_fraction), seed=seed
    )
    clock = DynamicClock(adaptive_structures=(cas,))
    manager = ConfigurationManager(
        clock=clock, structures=(cas,), watchdog=TpiWatchdog(tolerance=tolerance)
    )
    process = f"degrade:{name}"

    # Bootstrap measurement: the machine profiles its fastest reachable
    # configuration once with the true (long-run, averaged) TPI, so the
    # watchdog always has at least one trusted safe point.
    boot = cas.fastest_configuration()
    manager.watchdog.record(process, name, boot, table[boot])

    ticks = itertools.count()
    n_regressions = 0
    n_fallbacks = 0
    n_unrecovered = 0
    for _ in range(n_rounds):
        decision = manager.select_for_process(
            process, name,
            lambda cfg: sensor.read_required(next(ticks), table[cfg]),
        )
        manager.apply(name, decision.configuration, trigger="degrade_study")
        achieved = table[decision.configuration]
        verdict = manager.report_achieved(process, name, achieved)
        if verdict.regression:
            n_regressions += 1
            if verdict.fallback is not None:
                n_fallbacks += 1
            else:
                # holding is only safe if nothing measured better exists
                history = manager.watchdog.achieved_history(process, name)
                better = [
                    c for c, t in history.items()
                    if c in reachable and c != decision.configuration
                    and t < achieved
                ]
                if better:
                    n_unrecovered += 1

    final = manager.saved_configuration(process, name)
    return DegradationCell(
        structure=name,
        fail_fraction=fail_fraction,
        noise_fraction=noise_fraction,
        n_designed=len(designed),
        n_reachable=len(reachable),
        oracle_tpi_ns=min(table[c] for c in designed),
        degraded_oracle_tpi_ns=min(table[c] for c in reachable),
        final_tpi_ns=table[final],
        n_regressions=n_regressions,
        n_fallbacks=n_fallbacks,
        n_unrecovered=n_unrecovered,
    )


def degradation_study(
    fail_fractions: Sequence[float] = (0.0, 0.25, 0.5),
    noise_fractions: Sequence[float] = (0.0, 0.1),
    seed: int = 0,
    n_rounds: int = 12,
    tolerance: float = 0.05,
    n_refs: int = 4_000,
    warmup_refs: int = 1_000,
    n_instructions: int = 2_000,
    n_branches: int = 2_000,
    engine: ExperimentEngine | None = None,
) -> DegradationStudy:
    """Sweep fault count x sensor noise over all four structures.

    Each grid point builds a fresh structure, injects the seeded fault
    set, and runs ``n_rounds`` of noisy process-level adaptation under
    the TPI watchdog.  Deterministic: the same ``seed`` reproduces the
    same fault sets, the same noise draws, and the same outcomes.
    """
    if n_rounds < 1:
        raise ConfigurationError(f"n_rounds must be >= 1, got {n_rounds}")
    if engine is None:
        engine = ExperimentEngine()
    structures = _structure_instances()
    cells = _tpi_cells(
        structures, n_refs, warmup_refs, n_instructions, n_branches
    )
    order = STUDY_STRUCTURES
    payloads = dict(zip(order, engine.map([cells[s] for s in order])))

    out: list[DegradationCell] = []
    with obs.span(
        "degradation_study", level="run",
        fail_fractions=list(fail_fractions),
        noise_fractions=list(noise_fractions), seed=seed,
    ):
        for structure in order:
            table = tpi_table_from_payload(payloads[structure])
            for fail_fraction in fail_fractions:
                for noise_fraction in noise_fractions:
                    with obs.span(
                        "degradation_cell", level="section",
                        structure=structure, fail_fraction=fail_fraction,
                        noise_fraction=noise_fraction,
                    ) as sp:
                        cell = _run_cell(
                            _structure_instances()[structure],
                            table,
                            fail_fraction,
                            noise_fraction,
                            seed,
                            n_rounds,
                            tolerance,
                        )
                        sp.set(
                            retained=cell.retained,
                            final_tpi_ns=cell.final_tpi_ns,
                            n_regressions=cell.n_regressions,
                        )
                    metrics().gauge(
                        "repro_robust_retained_tpi_fraction",
                        "TPI retained vs the fault-free oracle",
                    ).set(
                        cell.retained,
                        structure=structure,
                        fail_fraction=str(fail_fraction),
                        noise_fraction=str(noise_fraction),
                    )
                    out.append(cell)
    return DegradationStudy(cells=tuple(out), seed=seed, n_rounds=n_rounds)
