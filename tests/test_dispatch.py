"""The distributed dispatch plane: leases, heartbeats, failover.

What the worker plane must guarantee:

* ``WorkerRegistry`` is a deterministic roster — ids in registration
  order, heartbeat-driven reaping, a per-worker circuit breaker gating
  lease eligibility that never writes the broker breaker's metrics;
* the wire format round-trips cells, fault plans and trace contexts
  byte-identically, so a remote evaluation is indistinguishable from a
  local one;
* a sweep fanned out over in-process workers returns byte-identical
  results to the single-host baseline, repeated cells included;
* an expired lease (hung worker) fails the chunk over to a healthy
  worker and the sweep still matches the baseline — the lease is the
  only owner of a slow or hung worker;
* zero registered workers degrade silently to the local resilient
  pool; registered-but-unhealthy workers degrade loudly;
* a traced map's remote spans come back in each worker's answer and
  land under its ``engine.map`` span, one traced chunk at a time per
  worker process, and a malformed remote span is dropped and counted.
"""

import http.client
import json
import logging
import sys

import pytest

from repro.dispatch import wire
from repro.dispatch.plane import DispatchPlane, DispatchPolicy, WorkerRegistry
from repro.dispatch.worker import WorkerConfig, WorkerServer, WorkerThread
from repro.engine.cells import cache_tpi_cell, queue_tpi_cell, tlb_tpi_cell
from repro.engine.engine import ExperimentEngine
from repro.errors import ServiceError
from repro.obs.metrics import metrics
from repro.obs.schema import read_records
from repro.obs.stitch import TraceContext, validate_parentage
from repro.obs.trace import Tracer, current_tracer
from repro.resilience import FaultEvent, FaultPlan, RetryPolicy
from repro.workloads.suite import get_profile

#: Deliberately small traces: every test below re-simulates cells.
N_REFS, WARMUP = 6_000, 2_000
N_INSTR = 2_000

#: A backoff too small to slow the suite down but still exercised.
FAST = RetryPolicy(base_delay_s=0.001, max_delay_s=0.01)

#: Heartbeats are irrelevant to in-process workers (they do not beat);
#: a generous timeout keeps the registry from reaping them mid-test.
NO_REAP = 300.0

#: Hang long enough to outlive a short lease, short enough that the
#: orphaned evaluate thread drains quickly after the suite finishes.
HANG_S = 3.0


def _small_cells(n: int = 3):
    """``n`` distinct cheap cells (distinct so ordering bugs surface)."""
    compress = get_profile("compress")
    stereo = get_profile("stereo")
    builders = [
        lambda i: queue_tpi_cell(compress, N_INSTR + 100 * i, (16, 32)),
        lambda i: tlb_tpi_cell(stereo, N_REFS + 100 * i, WARMUP),
        lambda i: cache_tpi_cell(compress, N_REFS + 100 * i, WARMUP, (1, 2)),
    ]
    return [builders[i % len(builders)](i) for i in range(n)]


def _counter(name: str) -> float:
    return metrics().counter(name).value()


def _canon(results) -> str:
    return json.dumps(results, sort_keys=True)


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# policy validation
# ---------------------------------------------------------------------------


class TestDispatchPolicy:
    def test_defaults_are_valid(self):
        DispatchPolicy()

    def test_heartbeat_timeout_must_exceed_interval(self):
        with pytest.raises(ServiceError):
            DispatchPolicy(heartbeat_interval_s=2.0, heartbeat_timeout_s=1.0)

    def test_lease_must_be_positive(self):
        with pytest.raises(ServiceError):
            DispatchPolicy(lease_s=0.0)


# ---------------------------------------------------------------------------
# wire format round trips
# ---------------------------------------------------------------------------


class TestWireFormat:
    def test_cells_round_trip(self):
        cells = _small_cells(3)
        encoded = wire.encode_cells(cells)
        json.dumps(encoded)  # must already be JSON-able
        decoded = wire.decode_cells(encoded)
        assert wire.encode_cells(decoded) == encoded

    def test_malformed_cells_raise(self):
        with pytest.raises(ServiceError):
            wire.decode_cells({"kind": "x"})
        with pytest.raises(ServiceError):
            wire.decode_cells([{"kind": 7, "spec": {}}])

    def test_fault_plan_round_trip(self):
        plan = FaultPlan(
            events=(
                FaultEvent("hang", chunk=1, attempt=0, hang_s=2.5),
                FaultEvent("crash", chunk=0, attempt=1),
            )
        )
        decoded = wire.decode_plan(wire.encode_plan(plan))
        assert decoded.events == plan.events
        assert wire.encode_plan(None) is None
        assert wire.decode_plan(None) is None

    def test_trace_context_round_trip(self):
        ctx = TraceContext(trace_id="t-123", parent_id="s-9")
        decoded = wire.decode_trace(wire.encode_trace(ctx))
        assert decoded == ctx
        assert wire.decode_trace(None) is None


# ---------------------------------------------------------------------------
# registry: membership, heartbeats, reaping, breaker gate
# ---------------------------------------------------------------------------


class TestWorkerRegistry:
    def _registry(self, **overrides):
        clock = FakeClock()
        settings = dict(heartbeat_interval_s=1.0, heartbeat_timeout_s=5.0)
        settings.update(overrides)
        return WorkerRegistry(DispatchPolicy(**settings), clock=clock), clock

    def test_ids_are_assigned_in_registration_order(self):
        registry, _ = self._registry()
        a = registry.register("http://127.0.0.1:9001")
        b = registry.register("http://127.0.0.1:9002", slots=4)
        assert (a.worker_id, b.worker_id) == ("w0001", "w0002")
        assert [w.worker_id for w in registry.workers()] == ["w0001", "w0002"]
        assert b.slots == 4

    def test_rejects_non_http_urls_and_bad_slots(self):
        registry, _ = self._registry()
        with pytest.raises(ServiceError):
            registry.register("ftp://example:1")
        with pytest.raises(ServiceError):
            registry.register("http://example:1", slots=0)

    def test_reregistration_replaces_the_stale_entry(self):
        registry, _ = self._registry()
        registry.register("http://127.0.0.1:9001")
        again = registry.register("http://127.0.0.1:9001")
        assert again.worker_id == "w0002"  # ids never recycle
        assert [w.worker_id for w in registry.workers()] == ["w0002"]

    def test_heartbeat_keeps_a_worker_alive(self):
        registry, clock = self._registry()
        state = registry.register("http://127.0.0.1:9001")
        clock.advance(4.0)
        assert registry.heartbeat(state.worker_id) is True
        clock.advance(4.0)  # 8s since registration, 4s since last beat
        assert registry.reap() == []
        assert registry.workers() != []

    def test_silence_past_the_deadline_reaps(self):
        registry, clock = self._registry()
        state = registry.register("http://127.0.0.1:9001")
        clock.advance(5.1)
        reaped = registry.reap()
        assert [w.worker_id for w in reaped] == [state.worker_id]
        assert registry.workers() == []
        assert registry.heartbeat(state.worker_id) is False  # must re-register

    def test_unknown_heartbeat_is_refused(self):
        registry, _ = self._registry()
        assert registry.heartbeat("w9999") is False

    def test_deregister_is_polite_reap(self):
        registry, _ = self._registry()
        state = registry.register("http://127.0.0.1:9001")
        assert registry.deregister(state.worker_id) is True
        assert registry.deregister(state.worker_id) is False
        assert registry.workers() == []

    def test_open_breaker_excludes_a_worker_from_healthy(self):
        registry, clock = self._registry(
            worker_failure_threshold=2,
            worker_breaker_reset_s=10.0,
            # The clock jump below must only age the breaker, not the
            # heartbeat deadline.
            heartbeat_timeout_s=NO_REAP,
        )
        state = registry.register("http://127.0.0.1:9001")
        state.breaker.record_failure()
        state.breaker.record_failure()
        assert registry.healthy() == []  # open: shed
        clock.advance(10.1)
        assert [w.worker_id for w in registry.healthy()] == [state.worker_id]

    def test_worker_breakers_leave_the_service_breaker_metrics_alone(self):
        from repro.obs.trace import Tracer
        from repro.service.breaker import BreakerPolicy, CircuitBreaker

        def service_metrics():
            registry = metrics()
            transitions = registry.counter(
                "repro_service_breaker_transitions_total"
            )
            return (
                registry.gauge("repro_service_breaker_state").value(),
                sum(transitions.collect().values()),
            )

        service = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        service.record_failure()  # the broker's breaker is open
        before = service_metrics()
        assert before[0] == 1.0
        registry, _ = self._registry(worker_failure_threshold=1)
        with Tracer() as tracer:
            state = registry.register("http://127.0.0.1:9001")
            state.breaker.record_failure()
        assert state.breaker.state == "open"
        assert service_metrics() == before
        assert not [
            r for r in tracer.records
            if r["name"] == "service.breaker_transition"
        ]
        service.record_success()  # leave the process-wide gauge closed

    def test_leases_are_recorded_and_released(self):
        registry, _ = self._registry()
        state = registry.register("http://127.0.0.1:9001")
        registry.lease(state.worker_id, 3)
        assert state.leases == {3}
        registry.release(state.worker_id, 3)
        assert state.leases == set()


# ---------------------------------------------------------------------------
# end to end: in-process workers vs the single-host baseline
# ---------------------------------------------------------------------------


class TestRemoteEvaluation:
    def test_two_workers_match_the_local_baseline(self):
        cells = _small_cells(4)
        baseline = ExperimentEngine(jobs=1).map(cells)
        plane = DispatchPlane(policy=DispatchPolicy(heartbeat_timeout_s=NO_REAP))
        before = _counter("repro_dispatch_remote_chunks_total")
        with WorkerThread(WorkerConfig(slots=2)) as w1, \
                WorkerThread(WorkerConfig(slots=2)) as w2:
            plane.registry.register(w1.url, slots=2)
            plane.registry.register(w2.url, slots=2)
            engine = ExperimentEngine(jobs=2, chunk_size=1, dispatcher=plane)
            assert _canon(engine.map(cells)) == _canon(baseline)
        assert _counter("repro_dispatch_remote_chunks_total") == before + 4
        # Every lease was released on delivery.
        assert all(w.leases == set() for w in plane.registry.workers())

    def test_expired_lease_fails_over_to_the_healthy_worker(self):
        cells = _small_cells(4)
        baseline = ExperimentEngine(jobs=1).map(cells)
        plan = FaultPlan(
            events=(FaultEvent("hang", chunk=0, attempt=0, hang_s=HANG_S),)
        )
        policy = DispatchPolicy(
            heartbeat_timeout_s=NO_REAP,
            lease_s=0.5,
        )
        plane = DispatchPlane(policy=policy)
        failovers = _counter("repro_dispatch_failovers_total")
        expiries = _counter("repro_dispatch_lease_expired_total")
        with WorkerThread(WorkerConfig(slots=1)) as w1, \
                WorkerThread(WorkerConfig(slots=1)) as w2:
            plane.registry.register(w1.url, slots=1)
            plane.registry.register(w2.url, slots=1)
            engine = ExperimentEngine(
                jobs=2, chunk_size=1, retry=FAST,
                dispatcher=plane, fault_plan=plan,
            )
            assert _canon(engine.map(cells)) == _canon(baseline)
        assert _counter("repro_dispatch_failovers_total") >= failovers + 1
        assert _counter("repro_dispatch_lease_expired_total") >= expiries + 1

    def test_repeated_cells_each_get_their_own_result(self):
        # A chunk is identified by its position, not its content: two
        # chunks holding the same cell are two deliveries.
        a, b = _small_cells(2)
        cells = [a, b, a]
        baseline = ExperimentEngine(jobs=1).map(cells)
        plane = DispatchPlane(policy=DispatchPolicy(heartbeat_timeout_s=NO_REAP))
        duplicates = _counter("repro_dispatch_duplicate_results_total")
        with WorkerThread(WorkerConfig(slots=1)) as worker:
            plane.registry.register(worker.url, slots=1)
            engine = ExperimentEngine(jobs=2, chunk_size=1, dispatcher=plane)
            assert _canon(engine.map(cells)) == _canon(baseline)
        assert _counter("repro_dispatch_duplicate_results_total") == duplicates

    def test_zero_workers_degrade_silently_to_the_local_pool(self):
        cells = _small_cells(3)
        baseline = ExperimentEngine(jobs=1).map(cells)
        plane = DispatchPlane()
        assert plane.ready() is False
        assert plane.executor() is None
        engine = ExperimentEngine(jobs=2, chunk_size=1, dispatcher=plane)
        assert _canon(engine.map(cells)) == _canon(baseline)

    def test_unhealthy_workers_degrade_loudly(self):
        policy = DispatchPolicy(
            heartbeat_timeout_s=NO_REAP,
            worker_failure_threshold=1,
            worker_breaker_reset_s=60.0,
        )
        plane = DispatchPlane(policy=policy)
        state = plane.registry.register("http://127.0.0.1:1")
        state.breaker.record_failure()  # open, cooldown 60s
        before = _counter("repro_dispatch_local_fallbacks_total")
        assert plane.executor() is None
        assert _counter("repro_dispatch_local_fallbacks_total") == before + 1

    def test_traced_map_stitches_remote_spans_under_engine_map(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        plane = DispatchPlane(policy=DispatchPolicy(heartbeat_timeout_s=NO_REAP))
        with WorkerThread(WorkerConfig(slots=2)) as w1, \
                WorkerThread(WorkerConfig(slots=2)) as w2:
            plane.registry.register(w1.url, slots=2)
            plane.registry.register(w2.url, slots=2)
            with Tracer(path):
                engine = ExperimentEngine(chunk_size=1, dispatcher=plane)
                engine.map(_small_cells(4))
        records = read_records(path)
        validate_parentage(records)
        spans = [r for r in records if r["record"] == "span"]
        [engine_map] = [s for s in spans if s["name"] == "engine.map"]
        remote = [s for s in spans if s["name"] == "worker.evaluate"]
        assert len(remote) == 4
        assert all(s["parent"] == engine_map["id"] for s in remote)
        assert [s["name"] for s in spans].count("cell.evaluate") == 4

    def test_traced_chunks_on_a_multi_slot_worker_keep_their_own_spans(self):
        # A worker with two slots evaluates two leased chunks on two
        # threads at once; each traced evaluation installs its tracer as
        # the process-wide active one, so they must not overlap.
        compress = get_profile("compress")
        cells = [
            queue_tpi_cell(compress, 20_000 + 100 * i, (16, 32)) for i in range(4)
        ]
        plane = DispatchPlane(policy=DispatchPolicy(heartbeat_timeout_s=NO_REAP))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: overlaps show
        try:
            with WorkerThread(WorkerConfig(slots=2)) as worker:
                plane.registry.register(worker.url, slots=2)
                for _ in range(5):
                    with Tracer() as tracer:
                        engine = ExperimentEngine(chunk_size=2, dispatcher=plane)
                        engine.map(cells)
                        assert current_tracer() is tracer
                    validate_parentage(tracer.records)
                    names = [
                        r["name"] for r in tracer.records if r["record"] == "span"
                    ]
                    assert names.count("worker.evaluate") == 2
                    assert names.count("cell.evaluate") == 4
        finally:
            sys.setswitchinterval(interval)

    def test_malformed_remote_span_is_dropped_and_counted(self, monkeypatch, caplog):
        cells = _small_cells(2)
        baseline = ExperimentEngine(jobs=1).map(cells)
        evaluate = WorkerServer._evaluate_sync

        def with_bogus_span(server, document):
            answer = evaluate(server, document)
            answer["spans"].append({
                "record": "span", "name": "bogus", "id": "wbad-1",
                "parent": document["trace"]["parent_id"],
                "trace_id": document["trace"]["trace_id"],
            })
            return answer

        monkeypatch.setattr(WorkerServer, "_evaluate_sync", with_bogus_span)
        plane = DispatchPlane(policy=DispatchPolicy(heartbeat_timeout_s=NO_REAP))
        with WorkerThread(WorkerConfig()) as worker:
            plane.registry.register(worker.url)
            with caplog.at_level(logging.WARNING, logger="repro.obs.stitch"):
                with Tracer() as tracer:
                    engine = ExperimentEngine(chunk_size=2, dispatcher=plane)
                    payloads = engine.map(cells)
        assert _canon(payloads) == _canon(baseline)
        validate_parentage(tracer.records)
        assert "wbad-1" not in {r["id"] for r in tracer.records}
        [engine_map] = [r for r in tracer.records if r["name"] == "engine.map"]
        assert engine_map["attrs"]["dropped_spans"] == 1
        assert len([r for r in caplog.records if r.name == "repro.obs.stitch"]) == 1


# ---------------------------------------------------------------------------
# the worker's HTTP surface
# ---------------------------------------------------------------------------


class TestWorkerHttp:
    def _request(self, worker, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", worker.port, timeout=10)
        try:
            payload = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def test_healthz_reports_slots(self):
        with WorkerThread(WorkerConfig(slots=3)) as worker:
            status, doc = self._request(worker, "GET", "/healthz")
        assert status == 200
        assert doc["ok"] is True
        assert doc["slots"] == 3

    def test_unknown_route_is_404(self):
        with WorkerThread(WorkerConfig()) as worker:
            status, _ = self._request(worker, "GET", "/v1/nope")
        assert status == 404

    def test_non_json_evaluate_body_is_400(self):
        with WorkerThread(WorkerConfig()) as worker:
            conn = http.client.HTTPConnection(
                "127.0.0.1", worker.port, timeout=10
            )
            try:
                conn.request("POST", "/v1/evaluate", body=b"not json")
                response = conn.getresponse()
                status, doc = response.status, json.loads(response.read())
            finally:
                conn.close()
        assert status == 400
        assert doc["transient"] is False

    def test_malformed_cells_answer_500_non_transient(self):
        with WorkerThread(WorkerConfig()) as worker:
            status, doc = self._request(
                worker, "POST", "/v1/evaluate",
                body={"cells": [{"kind": 7}], "chunk": 0, "attempt": 0},
            )
        assert status == 500
        assert doc["transient"] is False

    def test_traced_evaluate_answers_with_its_spans(self):
        trace = TraceContext(trace_id="spans00001", parent_id="s-1")
        with WorkerThread(WorkerConfig()) as worker:
            status, doc = self._request(
                worker, "POST", "/v1/evaluate",
                body=wire.evaluate_request(
                    _small_cells(1), chunk=0, attempt=0, trace=trace
                ),
            )
        assert status == 200
        spans = doc["spans"]
        assert {s["trace_id"] for s in spans} == {"spans00001"}
        assert sorted(s["name"] for s in spans) == [
            "cell.evaluate", "engine.worker", "worker.evaluate",
        ]
        [root] = [s for s in spans if s["parent"] == "s-1"]
        assert root["name"] == "worker.evaluate"

    def test_evaluate_round_trips_a_chunk(self):
        cells = _small_cells(1)
        expected = ExperimentEngine(jobs=1).map(cells)
        with WorkerThread(WorkerConfig()) as worker:
            status, doc = self._request(
                worker, "POST", "/v1/evaluate",
                body=wire.evaluate_request(cells, chunk=0, attempt=0),
            )
        assert status == 200
        pairs = wire.decode_pairs(doc["pairs"])
        assert _canon([payload for payload, _ in pairs]) == _canon(expected)


# ---------------------------------------------------------------------------
# the broker's /v1/workers/* surface
# ---------------------------------------------------------------------------


class TestWorkerRoutesOverHttp:
    def _request(self, url, method, path, body=None):
        from urllib.parse import urlsplit

        parts = urlsplit(url)
        conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=10
        )
        try:
            payload = None if body is None else json.dumps(body).encode()
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def test_disabled_plane_answers_404(self):
        from repro.service import ServiceConfig, ServiceThread

        with ServiceThread(ExperimentEngine(), ServiceConfig(port=0)) as svc:
            status, _ = self._request(svc.url, "GET", "/v1/workers")
            assert status == 404
            status, _ = self._request(
                svc.url, "POST", "/v1/workers/register",
                body={"url": "http://127.0.0.1:1"},
            )
            assert status == 404

    def test_register_heartbeat_deregister_cycle(self):
        from repro.service import ServiceConfig, ServiceThread

        config = ServiceConfig(
            port=0, workers=True,
            dispatch=DispatchPolicy(heartbeat_timeout_s=NO_REAP),
        )
        with ServiceThread(ExperimentEngine(), config) as svc:
            status, doc = self._request(
                svc.url, "POST", "/v1/workers/register",
                body={"url": "http://127.0.0.1:9001", "slots": 2},
            )
            assert status == 200
            worker_id = doc["worker_id"]
            assert doc["heartbeat_interval_s"] > 0

            status, doc = self._request(svc.url, "GET", "/v1/workers")
            assert status == 200
            assert [w["worker_id"] for w in doc["workers"]] == [worker_id]

            status, doc = self._request(
                svc.url, "POST", "/v1/workers/heartbeat",
                body={"worker_id": worker_id},
            )
            assert (status, doc["ok"]) == (200, True)

            status, doc = self._request(
                svc.url, "POST", "/v1/workers/deregister",
                body={"worker_id": worker_id},
            )
            assert (status, doc["ok"]) == (200, True)
            status, doc = self._request(svc.url, "GET", "/v1/workers")
            assert doc["workers"] == []

    def test_bad_registrations_answer_400(self):
        from repro.service import ServiceConfig, ServiceThread

        config = ServiceConfig(port=0, workers=True)
        with ServiceThread(ExperimentEngine(), config) as svc:
            status, _ = self._request(
                svc.url, "POST", "/v1/workers/register",
                body={"url": "ftp://nope:1"},
            )
            assert status == 400
            status, _ = self._request(
                svc.url, "POST", "/v1/workers/register", body={"slots": 2}
            )
            assert status == 400
            status, _ = self._request(
                svc.url, "POST", "/v1/workers/frobnicate", body={}
            )
            assert status == 404

    def test_unknown_heartbeat_reports_not_ok(self):
        from repro.service import ServiceConfig, ServiceThread

        config = ServiceConfig(port=0, workers=True)
        with ServiceThread(ExperimentEngine(), config) as svc:
            status, doc = self._request(
                svc.url, "POST", "/v1/workers/heartbeat",
                body={"worker_id": "w9999"},
            )
            assert (status, doc["ok"]) == (200, False)
