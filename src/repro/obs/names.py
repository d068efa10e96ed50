"""The canonical registry of span, event and metric names.

Observability output is only greppable if names are stable, so every
name the instrumented stack emits is declared here, once.  The
conventions (enforced statically by ``repro lint`` rule RPR006, see
:mod:`repro.analysis`):

* **Span names** are registered verbatim in :data:`SPAN_NAMES`.
  Hierarchical spans use ``<area>.<operation>`` (``engine.map``,
  ``structure.run``); top-level activity spans are single tokens
  (``interval``, ``candidate``, ``online_run``).
* **Event names** always follow ``<area>.<event>`` with the area drawn
  from :data:`EVENT_AREAS`, and are registered in :data:`EVENT_NAMES`.
* **Counter names** follow Prometheus conventions: ``repro_`` prefix
  and ``_total`` suffix (:data:`COUNTER_NAME_RE`).  Gauges and
  histograms carry the ``repro_`` prefix, a base unit where they are
  dimensional (``_ns``, ``_seconds``), and never ``_total``
  (:data:`METRIC_NAME_RE`).  All metric names are additionally
  registered verbatim in :data:`METRIC_NAMES`.

Adding an instrumentation point means adding its name here first;
``repro lint`` fails on any literal that is not registered, which keeps
this file an exact inventory of what traces can contain.
"""

from __future__ import annotations

import re

#: Registered span names.  Single-token names are top-level activities;
#: dotted names are operations inside an area.
SPAN_NAMES: frozenset[str] = frozenset(
    {
        # CLI run-level activities (one per observed subcommand).
        "figure",
        "ablation",
        "extension",
        "degrade",
        "query",
        # Adaptive-control hierarchy (run -> interval -> candidate ->
        # reconfigure), as in the paper's Configuration Manager.
        "online_run",
        "multiprogram_run",
        "interval",
        "candidate",
        "reconfigure",
        "context_switch",
        "process_setup",
        # Experiment engine and structure simulators.  ``engine.worker``
        # / ``cell.evaluate`` are written by pool workers into span
        # shards and stitched into the parent trace (repro.obs.stitch).
        "engine.map",
        "engine.worker",
        "cell.evaluate",
        "structure.run",
        # Sweep service request path: one ``service.request`` per HTTP
        # request; ``service.admit`` covers parsing and admission,
        # ``service.queue_wait`` submit-to-batch-start, ``broker.batch``
        # one flushed engine batch, and ``service.respond`` answer-ready
        # to encoded response.
        "service.request",
        "service.admit",
        "service.queue_wait",
        "broker.batch",
        "service.respond",
        # Distributed worker plane: one ``worker.evaluate`` per leased
        # chunk, written by a remote ``repro worker`` process into a
        # span shard and stitched cross-host (repro.obs.stitch).
        "worker.evaluate",
        # Degradation study harness.
        "degradation_study",
        "degradation_cell",
    }
)

#: Areas an event name may belong to (the ``<area>`` in
#: ``<area>.<event>``).
EVENT_AREAS: frozenset[str] = frozenset(
    {
        "controller",
        "dispatch",
        "engine",
        "manager",
        "robust",
        "service",
        "structure",
    }
)

#: Registered event names; every one is ``<area>.<event>``.
EVENT_NAMES: frozenset[str] = frozenset(
    {
        "controller.choose",
        "controller.phase_change",
        "dispatch.duplicate_result",
        "dispatch.failover",
        "dispatch.hedge",
        "dispatch.hedge_win",
        "dispatch.lease_expired",
        "dispatch.local_fallback",
        "dispatch.worker_dead",
        "dispatch.worker_deregistered",
        "dispatch.worker_registered",
        "engine.cell",
        "engine.retry",
        "engine.chunk_timeout",
        "engine.chunk_lost",
        "engine.pool_respawn",
        "engine.serial_fallback",
        "manager.decision",
        "robust.config_masked",
        "robust.config_remapped",
        "robust.fault_evacuation",
        "robust.fault_injected",
        "robust.sensor_dropout",
        "robust.sensor_stuck",
        "robust.thrash_lock",
        "robust.tpi_regression",
        "robust.watchdog_fallback",
        "service.batch_flush",
        "service.batch_requeued",
        "service.breaker_transition",
        "service.deadline_exceeded",
        "service.draining",
        "service.idempotent_hit",
        "service.job_done",
        "service.job_failed",
        "service.job_queued",
        "service.job_recovered",
        "service.journal_replayed",
        "service.quota_reject",
        "service.singleflight_merge",
        "service.started",
        "service.warm_hit",
        "structure.reconfigure",
    }
)

#: Shape of an event name: ``<area>.<event>``.
EVENT_NAME_RE: re.Pattern[str] = re.compile(r"^[a-z0-9_]+\.[a-z0-9_]+$")

#: Shape of a counter name: ``repro_*_total``.
COUNTER_NAME_RE: re.Pattern[str] = re.compile(r"^repro_[a-z0-9_]+_total$")

#: Shape of a gauge/histogram name: ``repro_*`` (and never ``_total``,
#: which is reserved for counters).
METRIC_NAME_RE: re.Pattern[str] = re.compile(r"^repro_[a-z0-9_]+$")

#: Registered metric names — the exact inventory of what the stack
#: exports on ``/metrics``.  Shape rules above still apply; membership
#: here is additionally enforced by RPR006 so a typo'd metric name is a
#: lint error, not a silent new time series.
METRIC_NAMES: frozenset[str] = frozenset(
    {
        # Adaptive-control core.
        "repro_clock_cycle_ns",
        "repro_context_switches_total",
        "repro_controller_choose_total",
        "repro_controller_exploit_steps_total",
        "repro_controller_interval_tpi_ns",
        "repro_controller_observations_total",
        "repro_controller_phase_changes_total",
        "repro_controller_probe_steps_total",
        "repro_controller_switches_total",
        "repro_manager_decisions_total",
        "repro_reconfigurations_total",
        "repro_structure_runs_total",
        # Experiment engine and cache.
        "repro_engine_cache_corrupt_total",
        "repro_engine_cache_hit_ratio",
        "repro_engine_cache_hits_total",
        "repro_engine_cache_misses_total",
        "repro_engine_cell_wall_seconds",
        "repro_engine_chunk_timeouts_total",
        "repro_engine_lost_chunks_total",
        "repro_engine_pool_respawns_total",
        "repro_engine_retries_total",
        "repro_engine_runs_total",
        "repro_engine_serial_fallbacks_total",
        # Distributed worker plane (leases, heartbeats, hedges).
        "repro_dispatch_chunk_seconds",
        "repro_dispatch_duplicate_results_total",
        "repro_dispatch_failovers_total",
        "repro_dispatch_heartbeats_total",
        "repro_dispatch_hedge_wins_total",
        "repro_dispatch_hedges_total",
        "repro_dispatch_lease_expired_total",
        "repro_dispatch_leases_total",
        "repro_dispatch_local_fallbacks_total",
        "repro_dispatch_missed_heartbeats_total",
        "repro_dispatch_registrations_total",
        "repro_dispatch_remote_chunks_total",
        "repro_dispatch_workers",
        # Observability stitching.
        "repro_obs_shard_torn_lines_total",
        # Degraded-hardware robustness layer.
        "repro_robust_configs_masked_total",
        "repro_robust_fault_evacuations_total",
        "repro_robust_faults_injected_total",
        "repro_robust_remaps_total",
        "repro_robust_retained_tpi_fraction",
        "repro_robust_sensor_dropouts_total",
        "repro_robust_sensor_stuck_total",
        "repro_robust_thrash_locks_total",
        "repro_robust_watchdog_fallbacks_total",
        "repro_robust_watchdog_regressions_total",
        # Sweep service.
        "repro_service_batch_cells",
        "repro_service_batch_requeues_total",
        "repro_service_batches_total",
        "repro_service_breaker_state",
        "repro_service_breaker_transitions_total",
        "repro_service_deadline_exceeded_total",
        "repro_service_http_errors_total",
        "repro_service_http_requests_total",
        "repro_service_idempotent_hits_total",
        "repro_service_job_wall_seconds",
        "repro_service_jobs_inflight",
        "repro_service_jobs_recovered_total",
        "repro_service_jobs_total",
        "repro_service_journal_corrupt_records_total",
        "repro_service_journal_records_total",
        "repro_service_overload_rejections_total",
        "repro_service_queue_wait_seconds",
        "repro_service_quota_rejections_total",
        "repro_service_request_seconds",
        "repro_service_requests_total",
        "repro_service_singleflight_merged_total",
        "repro_service_warm_admissions_total",
        "repro_service_warm_entries",
        "repro_service_warm_evictions_total",
        "repro_service_warm_hits_total",
        "repro_service_warm_rejections_total",
    }
)
