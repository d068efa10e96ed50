"""The multi-tenant sweep service, end to end over real HTTP.

The acceptance story of the service PR lives here:

* 8 concurrent tenants issuing the identical query cause exactly one
  cold engine evaluation (single-flight + warm store),
* quota exhaustion is backpressure (429 + ``Retry-After``) and a client
  that honours the header completes,
* a worker-pool crash mid-job is retried by :mod:`repro.resilience`
  and the job still completes,
* ``GET /metrics`` serves parseable Prometheus text including the
  ``repro_service_*`` families.

Every test boots a real :class:`ServiceThread` on an ephemeral port and
talks to it with the stdlib :class:`ServiceClient`.
"""

import http.client
import json
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import OptimizationRequest, request_cell_key
from repro.engine.engine import ExperimentEngine
from repro.errors import QuotaExceededError, ServiceError, ServiceOverloadedError
from repro.obs.metrics import MetricsRegistry, metrics
from repro.obs.promtext import parse_prometheus
from repro.resilience import FaultEvent, FaultPlan, RetryPolicy
from repro.service import (
    JobStore,
    QuotaPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    TenantQuotas,
    WarmResultStore,
)
from repro.service import jobs as jobs_module
from repro.service.jobs import Job, new_job_id
from tests.oracles import CopyingJobStore

# Small sizings keep every cold evaluation fast.
N_REFS = 3_000
WARMUP = 500
N_INSTR = 2_000


def tiny_request(tenant="anonymous", workload="compress", **sizing):
    sizing.setdefault("n_refs", N_REFS)
    sizing.setdefault("warmup_refs", WARMUP)
    return OptimizationRequest("dcache", workload, tenant=tenant, **sizing)


def raw_post(port, path, document):
    """POST without the typed client, returning (status, headers, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST",
            path,
            body=json.dumps(document).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), body
    finally:
        conn.close()


@pytest.fixture()
def service():
    engine = ExperimentEngine()
    with ServiceThread(engine, ServiceConfig()) as thread:
        yield thread


# ---------------------------------------------------------------------------
# end to end: single-flight, warm store, concurrency
# ---------------------------------------------------------------------------


class TestSingleFlight:
    def test_eight_tenants_one_cold_evaluation(self, service):
        engine = service.service.broker.engine
        client = ServiceClient(service.url)
        requests = [tiny_request(tenant=f"tenant-{i}") for i in range(8)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(client.optimize, requests))
        # tenant is not part of the cell identity: one distinct cell,
        # one cold evaluation, eight identical answers (each result
        # echoes its own tenant's request, so compare the answer part).
        assert engine.stats.cache_misses == 1
        assert len({(r.best, r.sweep) for r in results}) == 1
        assert results[0].best.tpi_ns == min(
            p.tpi_ns for p in results[0].sweep
        )

    def test_repeat_query_is_served_warm(self, service):
        engine = service.service.broker.engine
        client = ServiceClient(service.url)
        cold = client.submit(tiny_request())
        warm = client.submit(tiny_request(tenant="other"))
        assert engine.stats.cache_misses == 1
        assert cold.source == "computed"
        assert warm.source == "warm"
        assert warm.result.sweep == cold.result.sweep
        assert warm.result.best == cold.result.best

    def test_distinct_cells_each_evaluate(self, service):
        engine = service.service.broker.engine
        client = ServiceClient(service.url)
        client.optimize(tiny_request(workload="compress"))
        client.optimize(tiny_request(workload="li"))
        assert engine.stats.cache_misses == 2


# ---------------------------------------------------------------------------
# quotas: backpressure, not failure
# ---------------------------------------------------------------------------


class TestQuotas:
    @pytest.fixture()
    def strict_service(self):
        config = ServiceConfig(
            quota=QuotaPolicy(burst=1, rate_per_s=20.0, max_inflight=4)
        )
        with ServiceThread(ExperimentEngine(), config) as thread:
            yield thread

    def test_burst_exhaustion_is_429_with_retry_after(self, strict_service):
        client = ServiceClient(strict_service.url)
        client.submit(tiny_request(tenant="greedy"), wait=False)
        with pytest.raises(QuotaExceededError) as info:
            client.submit(tiny_request(tenant="greedy"), wait=False)
        assert info.value.retry_after_s > 0

    def test_retry_after_header_on_the_wire(self, strict_service):
        port = strict_service.port
        raw_post(port, "/v1/optimize", tiny_request(tenant="wired").to_dict())
        status, headers, body = raw_post(
            port, "/v1/optimize", tiny_request(tenant="wired").to_dict()
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert json.loads(body)["retry_after_s"] > 0

    def test_other_tenants_unaffected(self, strict_service):
        client = ServiceClient(strict_service.url)
        client.submit(tiny_request(tenant="greedy"), wait=False)
        with pytest.raises(QuotaExceededError):
            client.submit(tiny_request(tenant="greedy"), wait=False)
        assert client.submit(tiny_request(tenant="patient"), wait=False)

    def test_polite_client_eventually_completes(self, strict_service):
        client = ServiceClient(strict_service.url)
        # burst 1, refill 20/s: the second submit must back off once,
        # honour Retry-After, then complete normally.
        for _ in range(3):
            result = client.optimize(tiny_request(tenant="polite"))
        assert result.best.tpi_ns == min(p.tpi_ns for p in result.sweep)

    def test_token_bucket_refills_deterministically(self):
        now = [0.0]
        quotas = TenantQuotas(
            policy=QuotaPolicy(burst=2, rate_per_s=1.0, max_inflight=10),
            clock=lambda: now[0],
        )
        quotas.admit("t")
        quotas.admit("t")
        with pytest.raises(QuotaExceededError) as info:
            quotas.admit("t")
        assert info.value.retry_after_s == pytest.approx(1.0)
        now[0] = 1.5  # one token refilled
        quotas.admit("t")
        assert quotas.inflight("t") == 3

    def test_inflight_cap_enforced(self):
        quotas = TenantQuotas(
            policy=QuotaPolicy(burst=8, rate_per_s=100.0, max_inflight=2)
        )
        quotas.admit("t")
        quotas.admit("t")
        with pytest.raises(QuotaExceededError, match="in flight"):
            quotas.admit("t")
        quotas.release("t")
        quotas.admit("t")


# ---------------------------------------------------------------------------
# resilience: worker crash mid-job
# ---------------------------------------------------------------------------


class TestResilience:
    def test_worker_crash_is_retried_then_completed(self):
        # The pool worker evaluating the first chunk dies on the first
        # attempt; repro.resilience respawns the pool and re-runs it, so
        # the service answers as if nothing happened.  The one-request
        # batch is one chunk: the service evaluates it in the pool all
        # the same, so the planned crash really fires.
        faulty = ExperimentEngine(
            jobs=2,
            retry=RetryPolicy(base_delay_s=0.001),
            fault_plan=FaultPlan(events=(FaultEvent("crash", chunk=0, attempt=0),)),
        )
        lost = metrics().counter("repro_engine_lost_chunks_total")
        respawns = metrics().counter("repro_engine_pool_respawns_total")
        lost_before, respawns_before = lost.value(), respawns.value()
        with ServiceThread(faulty, ServiceConfig()) as thread:
            survived = ServiceClient(thread.url).optimize(tiny_request())
        assert lost.value() == lost_before + 1
        assert respawns.value() == respawns_before + 1
        clean = ServiceClient
        with ServiceThread(ExperimentEngine(), ServiceConfig()) as thread:
            reference = clean(thread.url).optimize(tiny_request())
        assert survived.best == reference.best
        assert survived.sweep == reference.sweep


# ---------------------------------------------------------------------------
# HTTP surface: endpoints, errors, metrics
# ---------------------------------------------------------------------------


class TestHttpSurface:
    def test_healthz(self, service):
        assert ServiceClient(service.url).healthz()

    def test_job_endpoint_round_trip(self, service):
        client = ServiceClient(service.url)
        submitted = client.submit(tiny_request(), wait=True)
        fetched = client.job(submitted.job_id)
        assert fetched.job_id == submitted.job_id
        assert fetched.state.is_terminal()
        assert fetched.result == submitted.result

    def test_unknown_job_is_404(self, service):
        with pytest.raises(ServiceError, match="404"):
            ServiceClient(service.url).job("job-999999-deadbeef")

    def test_unknown_path_is_404(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
        try:
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
        finally:
            conn.close()

    def test_invalid_request_is_400(self, service):
        # Constructor validation makes an invalid typed request
        # unbuildable, so exercise the server's own validation raw.
        status, _, body = raw_post(
            service.port,
            "/v1/optimize",
            {"structure": "l2cache", "workload": "compress"},
        )
        assert status == 400
        assert "unknown structure" in json.loads(body)["error"]

    def test_invalid_json_body_is_400(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/optimize",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_metrics_scrape_parses_with_service_families(self, service):
        client = ServiceClient(service.url)
        client.optimize(tiny_request(tenant="scraper"))
        client.submit(tiny_request(tenant="scraper2"))  # warm hit
        families = parse_prometheus(client.metrics_text())
        requests_total = families["repro_service_requests_total"]
        assert requests_total.kind == "counter"
        assert requests_total.value(tenant="scraper", structure="dcache") >= 1
        assert families["repro_service_warm_hits_total"].value() >= 1
        assert "repro_service_jobs_total" in families
        assert "repro_service_batches_total" in families

    def test_metrics_content_type_is_prometheus(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            assert "version=0.0.4" in response.getheader("Content-Type", "")
        finally:
            conn.close()

    def test_warm_request_assembles_its_result_once(self, service, monkeypatch):
        # The job-wall histogram reads the job's timestamps; only the
        # response builds the result from the payload.
        client = ServiceClient(service.url)
        client.optimize(tiny_request(tenant="cold"))
        registry = MetricsRegistry()
        monkeypatch.setattr("repro.service.broker.metrics", lambda: registry)
        assemble = jobs_module.result_from_payload
        calls = []

        def counting(request, payload):
            calls.append(request)
            return assemble(request, payload)

        monkeypatch.setattr(jobs_module, "result_from_payload", counting)
        status = client.submit(tiny_request(tenant="warm"), wait=True)
        assert status.source == "warm"
        assert len(calls) == 1
        wall = registry.histogram("repro_service_job_wall_seconds")
        assert wall.value(source="warm")["count"] == 1
        assert wall.value(source="warm")["sum"] == status.queued_s + status.wall_s


# ---------------------------------------------------------------------------
# internals: warm store and job store bounds
# ---------------------------------------------------------------------------


class TestWarmStore:
    def test_lru_eviction_past_capacity(self):
        store = WarmResultStore(max_entries=2)
        store.admit("a", {"v": 1})
        store.admit("b", {"v": 2})
        assert store.get("a") is not None  # refresh a; b is now LRU
        store.admit("c", {"v": 3})
        assert len(store) == 2
        assert store.get("b") is None
        assert store.get("a") == {"v": 1}
        assert store.get("c") == {"v": 3}

    def test_oversized_entry_rejected(self):
        store = WarmResultStore(max_entries=4, max_entry_bytes=64)
        assert not store.admit("big", {"v": "x" * 1_000})
        assert store.get("big") is None

    def test_warm_entries_gauge_tracks_store(self):
        store = WarmResultStore(max_entries=8)
        store.admit("k", {"v": 1})
        assert metrics().gauge("repro_service_warm_entries").value() == len(store)
        store.clear()
        assert metrics().gauge("repro_service_warm_entries").value() == 0


class TestJobStore:
    def _done_job(self, request):
        job = Job(
            job_id=new_job_id(),
            tenant=request.tenant,
            request=request,
            cell_key=request_cell_key(request),
        )
        job.complete({"results": {}}, "computed")
        return job

    def test_terminal_jobs_trimmed_past_retention(self):
        store = JobStore(retain=2)
        jobs = [self._done_job(tiny_request()) for _ in range(4)]
        for job in jobs:
            store.add(job)
        assert len(store) == 2
        with pytest.raises(ServiceError, match="unknown job id"):
            store.get(jobs[0].job_id)
        assert store.get(jobs[-1].job_id) is jobs[-1]

    def test_open_jobs_survive_trimming(self):
        store = JobStore(retain=1)
        open_job = Job(
            job_id=new_job_id(),
            tenant="t",
            request=tiny_request(),
            cell_key="k",
        )
        store.add(open_job)
        for _ in range(3):
            store.add(self._done_job(tiny_request()))
        assert store.get(open_job.job_id) is open_job

    @settings(max_examples=200, deadline=None)
    @given(
        retain=st.integers(1, 4),
        headroom=st.integers(0, 3),
        ops=st.lists(st.one_of(st.just(-1), st.integers(0, 7)), max_size=60),
    )
    def test_trim_matches_the_copying_oracle(self, retain, headroom, ops):
        # Each op admits a job the broker's way (reserve, then add), or
        # finishes the k-th still-open job.  The walk that stops early
        # must leave the same table, in the same order, as trimming a
        # copy of every id; and both must keep the invariants.
        max_jobs = retain + headroom
        store = JobStore(retain=retain, max_jobs=max_jobs)
        oracle = CopyingJobStore(retain=retain, max_jobs=max_jobs)
        request = tiny_request()
        open_ids: list[str] = []
        for op in ops:
            if op == -1:
                n_open = len(open_ids)
                rejected = []
                for table in (store, oracle):
                    try:
                        table.reserve()
                    except ServiceOverloadedError:
                        rejected.append(table)
                # The hard cap: only open jobs can fill the table.
                assert len(rejected) in (0, 2)
                assert bool(rejected) == (n_open >= max_jobs)
                if rejected:
                    continue
                done = [i for i, j in store._jobs.items() if j.done.is_set()]
                excess = len(store) + 1 - retain
                job_id = new_job_id()
                open_ids.append(job_id)
                for table in (store, oracle):
                    table.add(Job(job_id, "t", request, cell_key="k"))
                # Past retention, the oldest finished jobs go first.
                evicted = [i for i in done if i not in store]
                assert evicted == done[: max(0, excess)]
            elif open_ids:
                job_id = open_ids.pop(op % len(open_ids))
                for table in (store, oracle):
                    job = table.get(job_id)
                    job.complete({}, "computed")
                    table.note_closed(job)
            assert list(store._jobs) == list(oracle._jobs)
            assert len(store) <= max_jobs
            # Unfinished jobs are never evicted.
            assert all(job_id in store for job_id in open_ids)


# ---------------------------------------------------------------------------
# distributed tracing over the wire
# ---------------------------------------------------------------------------


class TestDistributedTracing:
    def test_client_and_server_logs_share_one_trace_id(self):
        from repro.obs.trace import Tracer
        from repro.service.server import TRACE_HEADER

        engine = ExperimentEngine()
        with Tracer() as tracer:
            with ServiceThread(engine, ServiceConfig()) as svc:
                client = ServiceClient(svc.url, trace_id="sharedtrace1")
                status = client.submit(tiny_request(tenant="traced"))
        # One id on the client, on the job status and on the server's
        # own span records.
        assert client.last_trace_id == "sharedtrace1"
        assert status.trace_id == "sharedtrace1"
        request_spans = [
            r for r in tracer.records
            if r["record"] == "span"
            and r["name"] == "service.request"
            and r["trace_id"] == "sharedtrace1"
        ]
        assert request_spans, "server recorded no span under the client's id"
        assert TRACE_HEADER == "X-Repro-Trace"

    def test_server_assigns_trace_id_without_client_pin(self):
        from repro.obs.trace import Tracer

        engine = ExperimentEngine()
        with Tracer():
            with ServiceThread(engine, ServiceConfig()) as svc:
                client = ServiceClient(svc.url)  # fresh id per request
                status = client.submit(tiny_request(tenant="unpinned"))
        assert status.trace_id is not None
        assert client.last_trace_id == status.trace_id

    def test_response_echoes_trace_header_even_untraced(self, service):
        # No tracer active on the server: the id is still assigned and
        # echoed so client logs correlate with server logs.
        client = ServiceClient(service.url, trace_id="echoonly0001")
        client.submit(tiny_request(tenant="echo"))
        assert client.last_trace_id == "echoonly0001"

    def test_invalid_trace_header_is_replaced(self, service):
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/optimize?wait=1",
                body=json.dumps(tiny_request().to_dict()).encode("utf-8"),
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Trace": "bad id with spaces!",
                },
            )
            response = conn.getresponse()
            response.read()
            echoed = response.getheader("X-Repro-Trace")
        finally:
            conn.close()
        assert response.status == 200
        assert echoed and echoed != "bad id with spaces!"


class TestLatencyHistograms:
    def test_request_and_queue_wait_histograms_round_trip(self, service):
        """The new latency families survive a real scrape -> parse."""
        client = ServiceClient(service.url)
        client.optimize(tiny_request(tenant="latency"))
        families = parse_prometheus(client.metrics_text())

        request_hist = families["repro_service_request_seconds"]
        assert request_hist.kind == "histogram"
        count = request_hist.value(
            sample="repro_service_request_seconds_count",
            method="POST", path="/v1/optimize",
        )
        assert count >= 1
        total = request_hist.value(
            sample="repro_service_request_seconds_sum",
            method="POST", path="/v1/optimize",
        )
        assert total > 0
        # The +Inf bucket is cumulative: it must equal the count.
        inf_bucket = request_hist.value(
            sample="repro_service_request_seconds_bucket",
            le="+Inf", method="POST", path="/v1/optimize",
        )
        assert inf_bucket == count

        wait_hist = families["repro_service_queue_wait_seconds"]
        assert wait_hist.kind == "histogram"
        assert wait_hist.value(
            sample="repro_service_queue_wait_seconds_count", tenant="latency"
        ) >= 1
        assert wait_hist.value(
            sample="repro_service_queue_wait_seconds_bucket",
            le="+Inf", tenant="latency",
        ) >= 1

    def test_job_path_label_is_low_cardinality(self, service):
        client = ServiceClient(service.url)
        status = client.submit(tiny_request(tenant="cardinality"))
        client.job(status.job_id)
        families = parse_prometheus(client.metrics_text())
        hist = families["repro_service_request_seconds"]
        assert hist.value(
            sample="repro_service_request_seconds_count",
            method="GET", path="/v1/jobs/{id}",
        ) >= 1
