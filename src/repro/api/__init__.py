"""repro.api — the public TPI-optimization query surface.

The one stable entry point for the paper's Configuration-Manager
question — *given this workload, which adaptive configuration minimizes
TPI?* — shared by library callers, the CLI (``repro query``) and the
sweep service (:mod:`repro.service`):

>>> from repro import api
>>> result = api.run_query(api.OptimizationRequest("iqueue", "compress"))
>>> result.best.config
128

Request/response types are frozen dataclasses with strict JSON
(de)serialisation (:mod:`repro.api.types`); execution routes through
the experiment engine (:mod:`repro.api.query`), so everything the
engine provides — process-pool fan-out, the content-addressed result
cache, resilience, observability — applies to API queries unchanged.

This facade *replaces* the pre-engine per-structure sweep entry points
(``CacheTpiModel.sweep``, ``TlbTpiModel.sweep``, ``BranchTpiModel.sweep``,
``queue_study.sweep_for``), which completed their deprecation cycle and
were deleted.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ConfigurationPoint",
    "DEFAULT_TENANT",
    "JobState",
    "JobStatus",
    "OptimizationRequest",
    "OptimizationResult",
    "PREDICTORS",
    "STRUCTURES",
    "TERMINAL_STATES",
    "profile_for_request",
    "request_cell",
    "request_cell_key",
    "result_from_payload",
    "run_queries",
    "run_query",
    "sweep_for_request",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.api.query": (
        "profile_for_request", "request_cell", "request_cell_key",
        "result_from_payload", "run_queries", "run_query", "sweep_for_request",
    ),
    "repro.api.types": (
        "DEFAULT_TENANT", "PREDICTORS", "STRUCTURES", "TERMINAL_STATES",
        "ConfigurationPoint", "JobState", "JobStatus", "OptimizationRequest",
        "OptimizationResult",
    ),
})
