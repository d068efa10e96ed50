"""Complexity-adaptive branch predictor (a paper Section 4/7 extension).

The paper names branch predictor tables, alongside TLBs, as the next
structures to make complexity-adaptive: they are "regular RAM or
CAM-based structures [that] may easily exceed these integer queue
sizes, making them prime candidates for wire buffering strategies".  A
bigger pattern-history table predicts better (less aliasing, longer
history) but its longer global busses slow the clock — the same
IPC/clock-rate tradeoff as the cache and queue, decided here by
prediction accuracy instead of hit ratio.

Modules
-------
:mod:`repro.branch.predictors`
    Bimodal and gshare predictors over 2-bit saturating counters.
:mod:`repro.branch.workloads`
    Synthetic branch streams: biased and pattern-correlated static
    branches with Zipf-weighted execution.
:mod:`repro.branch.timing`
    Table size to lookup delay.
:mod:`repro.branch.tpi`
    TPI from cycle time and misprediction rate.
:mod:`repro.branch.adaptive`
    The CAS wrapper (configuration = enabled table entries).
"""

from repro._lazy import lazy_exports

__all__ = [
    "BimodalPredictor",
    "GsharePredictor",
    "PredictorKind",
    "BranchProfile",
    "branch_profile_for",
    "generate_branch_trace",
    "BranchTimingModel",
    "PREDICTOR_TABLE_SIZES",
    "BranchTpiModel",
    "BranchBreakdown",
    "AdaptiveBranchPredictor",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.branch.predictors": ("BimodalPredictor", "GsharePredictor", "PredictorKind"),
    "repro.branch.workloads": (
        "BranchProfile", "branch_profile_for", "generate_branch_trace",
    ),
    "repro.branch.timing": ("BranchTimingModel", "PREDICTOR_TABLE_SIZES"),
    "repro.branch.tpi": ("BranchBreakdown", "BranchTpiModel"),
    "repro.branch.adaptive": ("AdaptiveBranchPredictor",),
})
