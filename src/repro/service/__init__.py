"""repro.service — the multi-tenant TPI-optimization sweep service.

An asyncio job-queue + HTTP service answering
:class:`~repro.api.OptimizationRequest` queries through the shared
experiment engine.  The layers, transport-independent first:

* :mod:`repro.service.quotas` — per-tenant token-bucket admission with
  ``429`` + ``Retry-After`` backpressure;
* :mod:`repro.service.warmcache` — the shared in-memory warm result
  store (admission policy + LRU eviction);
* :mod:`repro.service.jobs` — job lifecycle and the bounded job table;
* :mod:`repro.service.journal` — the durable job journal (fsynced
  JSONL WAL) behind crash recovery and idempotent resubmission;
* :mod:`repro.service.breaker` — the circuit breaker shedding load
  while the engine fails batches back to back;
* :mod:`repro.service.broker` — single-flight dedup and batching of
  compatible requests into one ``engine.map`` fan-out;
* :mod:`repro.service.http` — the one stdlib HTTP/1.1 stack (request
  reader, listener, process and thread hosts, JSON client) shared with
  the dispatch worker;
* :mod:`repro.service.server` — the service's routes
  (``POST /v1/optimize``, ``GET /v1/jobs/{id}``, ``GET /metrics``,
  ``GET /healthz``) plus hosting helpers;
* :mod:`repro.service.client` — a typed stdlib client;
* :mod:`repro.service.loadtest` — the load/SLO harness behind
  ``repro loadtest``.

Boot one with ``repro serve`` or, in process::

    from repro.service import ServiceConfig, ServiceThread
    with ServiceThread(engine, ServiceConfig(port=0)) as svc:
        client = ServiceClient(svc.url)
"""

from repro._lazy import lazy_exports

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "Job",
    "JobJournal",
    "JobStore",
    "JournalReplay",
    "LoadReport",
    "QuotaPolicy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceThread",
    "SloPolicy",
    "SweepBroker",
    "SweepService",
    "TenantQuotas",
    "WarmResultStore",
    "run_loadtest",
    "run_service",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.service.breaker": ("BreakerPolicy", "CircuitBreaker"),
    "repro.service.broker": ("SweepBroker",),
    "repro.service.client": ("ServiceClient",),
    "repro.service.jobs": ("Job", "JobStore"),
    "repro.service.journal": ("JobJournal", "JournalReplay"),
    "repro.service.loadtest": ("LoadReport", "SloPolicy", "run_loadtest"),
    "repro.service.quotas": ("QuotaPolicy", "TenantQuotas"),
    "repro.service.server": (
        "ServiceConfig", "ServiceThread", "SweepService", "run_service",
    ),
    "repro.service.warmcache": ("WarmResultStore",),
})
