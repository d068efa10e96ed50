"""Figures 10 and 11: the complexity-adaptive instruction queue study.

Methodology, following the paper's Section 5.1:

* 8-way out-of-order machine, perfect branch prediction, perfect
  caches, plentiful functional units (the simulator idealises exactly
  these);
* queue sizes 16..128 in 16-entry increments; wakeup + select set the
  cycle time at every size (Palacharla model, 0.18 micron);
* each application runs the first N instructions (paper: 100 M; we
  default to a calibrated 16 k);
* conventional = fixed size minimising suite-average TPI (the paper
  finds 64 entries); process-level adaptive = per-app best size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import TpiComparison
from repro.engine.cells import queue_tpi_cell
from repro.engine.engine import ExperimentEngine, default_engine
from repro.ooo.timing import QueueTimingModel
from repro.workloads.suite import queue_study_profiles

#: Default measured trace length (instructions per application).
DEFAULT_N_INSTRUCTIONS: int = 16_000


def queue_tpi_table(
    n_instructions: int = DEFAULT_N_INSTRUCTIONS,
    timing: QueueTimingModel | None = None,
    *,
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[int, float]]:
    """TPI per application per queue size.

    The default-timing path routes through the public query API (one
    :class:`~repro.api.OptimizationRequest` per application, batched
    into a single engine ``map``); a custom ``timing`` model keeps the
    raw-cell path, applying its cycle table to the simulated IPCs
    locally so it still rides the parallel/cached engine.
    """
    profiles = queue_study_profiles()
    if timing is None:
        from repro.api.query import run_queries
        from repro.api.types import OptimizationRequest

        requests = [
            OptimizationRequest(
                "iqueue", profile.name, n_instructions=n_instructions
            )
            for profile in profiles
        ]
        results = run_queries(requests, engine=engine)
        return {
            profile.name: {
                point.config: point.tpi_ns for point in result.sweep
            }
            for profile, result in zip(profiles, results)
        }
    cycles = timing.cycle_table()
    eng = engine if engine is not None else default_engine()
    cells = [
        queue_tpi_cell(profile, n_instructions, timing.sizes)
        for profile in profiles
    ]
    payloads = eng.map(cells)
    return {
        profile.name: {
            w: cycles[w] / payload["results"][str(w)]["ipc"] for w in timing.sizes
        }
        for profile, payload in zip(profiles, payloads)
    }


def figure10(
    n_instructions: int = DEFAULT_N_INSTRUCTIONS,
    *,
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[str, dict[int, float]]]:
    """Average TPI vs. queue size: ``{"integer"|"floating": {app: {size: tpi}}}``."""
    table = queue_tpi_table(n_instructions, engine=engine)
    panels: dict[str, dict[str, dict[int, float]]] = {"integer": {}, "floating": {}}
    for profile in queue_study_profiles():
        panels[profile.domain][profile.name] = table[profile.name]
    return panels


@dataclass(frozen=True)
class QueueStudyResult:
    """Everything Figure 11 plots, plus selection metadata."""

    conventional_size: int
    best_sizes: dict[str, int]
    tpi: TpiComparison
    table: dict[str, dict[int, float]] = field(repr=False)


def figure11(
    n_instructions: int = DEFAULT_N_INSTRUCTIONS,
    timing: QueueTimingModel | None = None,
    *,
    engine: ExperimentEngine | None = None,
) -> QueueStudyResult:
    """Best conventional vs. process-level adaptive queue sizing."""
    table = queue_tpi_table(n_instructions, timing, engine=engine)
    sizes = sorted(next(iter(table.values())))
    apps = list(table)

    def suite_average(w: int) -> float:
        return sum(table[app][w] for app in apps) / len(apps)

    conventional = min(sizes, key=suite_average)
    best = {app: min(sizes, key=lambda w: table[app][w]) for app in apps}
    tpi = TpiComparison(
        metric_name="Avg TPI (ns)",
        conventional={app: table[app][conventional] for app in apps},
        adaptive={app: table[app][best[app]] for app in apps},
    )
    return QueueStudyResult(
        conventional_size=conventional,
        best_sizes=best,
        tpi=tpi,
        table=table,
    )
