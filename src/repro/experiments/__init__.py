"""Experiment harnesses: one per figure of the paper's evaluation.

Every module regenerates the data behind one or more figures:

* :mod:`repro.experiments.wire_delay` — Figures 1(a), 1(b) and 2.
* :mod:`repro.experiments.cache_study` — Figures 7, 8 and 9.
* :mod:`repro.experiments.queue_study` — Figures 10 and 11.
* :mod:`repro.experiments.interval_study` — Figures 12 and 13, plus the
  Section 6 predictor evaluation.
* :mod:`repro.experiments.reporting` — text-table rendering shared by
  the benchmark harnesses.

Absolute numbers are not expected to match the paper (the substrate is
a calibrated simulator, not the authors' testbed); the *shapes* — who
wins, by roughly what factor, where crossovers fall — are asserted by
the test suite and recorded in EXPERIMENTS.md.
"""

from repro._lazy import lazy_exports

__all__ = [
    "WireDelaySeries",
    "figure1",
    "figure2",
    "figure7",
    "figure8_9",
    "cache_tpi_table",
    "CacheStudyResult",
    "figure10",
    "figure11",
    "queue_tpi_table",
    "QueueStudyResult",
    "figure12",
    "figure13",
    "IntervalStudyResult",
    "predictor_study",
    "PredictorStudyResult",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.experiments.wire_delay": ("WireDelaySeries", "figure1", "figure2"),
    "repro.experiments.cache_study": (
        "CacheStudyResult", "cache_tpi_table", "figure7", "figure8_9",
    ),
    "repro.experiments.queue_study": (
        "QueueStudyResult", "figure10", "figure11", "queue_tpi_table",
    ),
    "repro.experiments.interval_study": (
        "IntervalStudyResult", "PredictorStudyResult", "figure12", "figure13",
        "predictor_study",
    ),
})
