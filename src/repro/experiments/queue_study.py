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
from repro.engine.cells import queue_tpi_cell, tpi_table_from_payload
from repro.engine.engine import ExperimentEngine, default_engine
from repro.ooo.timing import PAPER_QUEUE_SIZES, QueueTimingModel
from repro.workloads.suite import queue_study_profiles

#: Default measured trace length (instructions per application).
DEFAULT_N_INSTRUCTIONS: int = 16_000


def queue_tpi_table(
    n_instructions: int = DEFAULT_N_INSTRUCTIONS,
    timing: QueueTimingModel | None = None,
    *,
    engine: ExperimentEngine | None = None,
) -> dict[str, dict[int, float]]:
    """TPI per application per queue size, from one engine ``map``.

    With the default timing each application's cell is the one
    :func:`repro.api.request_cell` builds for an ``iqueue`` request of
    ``n_instructions``, so the sweep service answers from the same
    result-cache entries, and a row's TPI is its ``cycle_time_ns / ipc``,
    sorted by size.  A custom ``timing`` simulates its own sizes and
    divides its cycle table by their IPCs, in ``timing.sizes`` order.
    ``tests/test_api.py::TestHarnessAgreement`` holds the default table
    to the API's ``tpi_ns``, cold and warm.
    """
    profiles = queue_study_profiles()
    sizes = PAPER_QUEUE_SIZES if timing is None else timing.sizes
    eng = engine if engine is not None else default_engine()
    payloads = eng.map(
        [queue_tpi_cell(profile, n_instructions, sizes) for profile in profiles]
    )
    if timing is None:
        tables = [tpi_table_from_payload(payload) for payload in payloads]
    else:
        cycles = timing.cycle_table()
        tables = [
            {w: cycles[w] / payload["results"][str(w)]["ipc"] for w in sizes}
            for payload in payloads
        ]
    return {profile.name: table for profile, table in zip(profiles, tables)}


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
