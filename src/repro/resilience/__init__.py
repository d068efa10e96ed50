"""repro.resilience — fault tolerance for the experiment engine.

The paper's premise is graceful adaptation under changing conditions;
this package gives the *experiment engine* the same property.  Three
cooperating layers:

:mod:`repro.resilience.policy`
    :class:`RetryPolicy` — attempt budgets, capped exponential backoff
    with deterministic jitter, per-chunk timeouts, and the pool-respawn
    budget that gates serial fallback.
:mod:`repro.resilience.executor`
    :class:`ResilientExecutor` — runs cell chunks to completion through
    worker crashes (``BrokenProcessPool`` → respawn + re-queue), hangs
    (timeout → pool kill), transient exceptions (backoff + retry) and,
    past the respawn budget, graceful degradation to serial execution.
:mod:`repro.resilience.faults`
    :class:`FaultPlan` / :class:`FaultEvent` — deterministic, seedable
    fault injection (worker crashes, hangs, transient exceptions, cache
    corruption) used by the test suite to prove each recovery path.

Every recovery action is surfaced through :mod:`repro.obs` — span
events plus ``repro_engine_retries_total``-family counters — and the
retry policy keys off the typed taxonomy in :mod:`repro.errors`
(:class:`~repro.errors.TransientError` retries,
:class:`~repro.errors.FatalError` escalates,
:class:`~repro.errors.CacheCorruptionError` quarantines).

A killed sweep resumes from the content-addressed result cache: the
engine stores each finished cell as its chunk lands, so a re-run with
the same cache directory recomputes only the cells that never finished.
See ``docs/resilience.md`` for the failure semantics and the fault
taxonomy.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CRASH_EXIT_CODE",
    "ExecutionReport",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "ResilientExecutor",
    "RetryPolicy",
    "corrupt_cache_entry",
    "evaluate_chunk_with_faults",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.resilience.executor": ("ExecutionReport", "ResilientExecutor"),
    "repro.resilience.faults": (
        "CRASH_EXIT_CODE", "FAULT_KINDS", "FaultEvent", "FaultPlan",
        "corrupt_cache_entry", "evaluate_chunk_with_faults",
    ),
    "repro.resilience.policy": ("RetryPolicy",),
})
