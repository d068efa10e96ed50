"""Guards: tracing-off and journal-off overhead on the service hot
path each stay under 5%.

Request tracing is permanently compiled into the HTTP handler, the
broker and the engine (``record_span`` calls, ``TraceContext`` plumbing,
stitch decisions), all dispatching to the shared null tracer when no
tracer is active.  This benchmark measures a warm-hit request storm —
the service's hottest path, where tracing cost is proportionally
largest because no engine work hides it — with tracing disabled, counts
the tracing touch points a traced run of the same storm records, and
asserts touch-points x per-point-cost stays under 5% of the storm's
wall time.
"""

import time

import pytest

from repro.api import OptimizationRequest
from repro.engine.engine import ExperimentEngine
from repro.obs import trace as obs
from repro.obs.trace import Tracer
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.loadtest import run_loadtest

N_REFS, WARMUP_REFS = 3_000, 500
STORM = dict(tenants=2, requests_per_tenant=4, seed=0, warm_fraction=1.0)


def _storm(url: str) -> None:
    report = run_loadtest(url, probe=False, **STORM)
    assert report.errors == 0


@pytest.mark.service
def test_bench_tracing_off_service_overhead(benchmark):
    engine = ExperimentEngine()
    with ServiceThread(engine, ServiceConfig(port=0)) as svc:
        # Prime the warm store so the storm below is pure hot path.
        ServiceClient(svc.url).optimize(
            OptimizationRequest(
                "dcache", "compress", n_refs=4096, warmup_refs=512
            )
        )

        # Count tracing touch points: records a traced identical storm
        # writes, an upper bound on null-tracer dispatches per storm.
        with Tracer() as tracer:
            _storm(svc.url)
        n_points = len(tracer.records)
        assert n_points > 0

        # Production path: same storm, tracing disabled.
        assert obs.current_tracer() is obs.NULL_TRACER
        benchmark.pedantic(lambda: _storm(svc.url), rounds=3, iterations=1)
        storm_s = benchmark.stats.stats.min

    # Measured cost of one disabled touch point (record_span + the id
    # reservation the handler makes per request).
    null = obs.NULL_TRACER
    reps = 100_000
    t0 = time.perf_counter()
    for _ in range(reps):
        null.new_span_id()
        null.record_span(
            "service.request", ts=0.0, dur_s=0.0,
            method="POST", path="/v1/optimize", status=200,
        )
    per_point_s = (time.perf_counter() - t0) / reps

    overhead_s = n_points * per_point_s
    print(
        f"\nwarm storm {storm_s * 1e3:.2f} ms, {n_points} tracing touch "
        f"points, {per_point_s * 1e9:.0f} ns per disabled point "
        f"-> estimated overhead {overhead_s / storm_s:.3%} (limit 5%)"
    )
    assert overhead_s < 0.05 * storm_s


@pytest.mark.service
def test_bench_dispatch_off_service_overhead(benchmark):
    """Without ``--workers``, the dispatch plane is a pair of ``None``
    guards on the engine's batch path.

    Every engine batch now asks "is a dispatch plane attached, and is
    it ready?" before falling through to the local resilient pool.
    Measure a warm-hit storm against a workers-off service, price one
    pass through those disabled guards, and assert guards x batches
    stays under 5% of the storm's wall time.
    """
    engine = ExperimentEngine()
    config = ServiceConfig(port=0)
    assert config.workers is False  # the fast path under test
    with ServiceThread(engine, config) as svc:
        assert svc.service.plane is None  # workers-off: nothing attached
        assert engine.dispatcher is None
        ServiceClient(svc.url).optimize(
            OptimizationRequest(
                "dcache", "compress", n_refs=4096, warmup_refs=512
            )
        )
        benchmark.pedantic(lambda: _storm(svc.url), rounds=3, iterations=1)
        storm_s = benchmark.stats.stats.min

        # Price one disabled-state pass: the exact guard sequence
        # ExperimentEngine._compute walks per batch with no plane.
        dispatcher = engine.dispatcher
        reps = 100_000
        t0 = time.perf_counter()
        for _ in range(reps):
            dispatching = dispatcher is not None and dispatcher.ready()
            if dispatcher is not None:  # pragma: no cover - disabled
                pass
            if dispatching:  # pragma: no cover - disabled branch
                pass
        per_batch_s = (time.perf_counter() - t0) / reps

    # Worst case: every request becomes its own engine batch.
    n_batches = STORM["tenants"] * STORM["requests_per_tenant"]
    overhead_s = n_batches * per_batch_s
    print(
        f"\nwarm storm {storm_s * 1e3:.2f} ms, {n_batches} batches, "
        f"{per_batch_s * 1e9:.0f} ns of disabled guards per batch "
        f"-> estimated overhead {overhead_s / storm_s:.3%} (limit 5%)"
    )
    assert overhead_s < 0.05 * storm_s


@pytest.mark.service
def test_bench_journal_off_service_overhead(benchmark):
    """With no ``--job-journal``, the robustness plumbing is no-op guards.

    Every submit on the warm path now walks the crash-safety machinery
    in its disabled state: the idempotency-key probe, the job-table
    reservation, the deadline arithmetic, and the ``journal is None``
    gates around admit/finish.  Measure a warm-hit storm against a
    journal-less service, price one pass through those disabled guards,
    and assert guards x requests stays under 5% of the storm's wall
    time.
    """
    engine = ExperimentEngine()
    config = ServiceConfig(port=0)
    assert config.journal_path is None  # the fast path under test
    with ServiceThread(engine, config) as svc:
        ServiceClient(svc.url).optimize(
            OptimizationRequest(
                "dcache", "compress", n_refs=4096, warmup_refs=512
            )
        )
        benchmark.pedantic(lambda: _storm(svc.url), rounds=3, iterations=1)
        storm_s = benchmark.stats.stats.min
        broker = svc.service.broker
        store = broker.jobs

        # Price one disabled-state pass: the exact guard sequence
        # submit/_finish add per request when journaling is off.
        journal = broker.journal
        idempotency_key = None
        deadline_s = None
        reps = 100_000
        t0 = time.perf_counter()
        for _ in range(reps):
            if idempotency_key:  # pragma: no cover - disabled branch
                pass
            store.reserve()
            if deadline_s is not None:  # pragma: no cover
                pass
            if journal is not None:  # pragma: no cover
                pass
            if journal is not None:  # pragma: no cover
                pass
        per_request_s = (time.perf_counter() - t0) / reps

    n_requests = STORM["tenants"] * STORM["requests_per_tenant"]
    overhead_s = n_requests * per_request_s
    print(
        f"\nwarm storm {storm_s * 1e3:.2f} ms, {n_requests} requests, "
        f"{per_request_s * 1e9:.0f} ns of disabled guards per request "
        f"-> estimated overhead {overhead_s / storm_s:.3%} (limit 5%)"
    )
    assert overhead_s < 0.05 * storm_s
