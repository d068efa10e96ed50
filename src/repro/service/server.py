"""The HTTP face of the sweep service.

Four routes over the shared stdlib stack in :mod:`repro.service.http`,
JSON in/out, connection-per-request:

* ``POST /v1/optimize`` — submit an
  :class:`~repro.api.OptimizationRequest` (JSON body); returns ``202``
  with the job status, or the finished status with ``?wait=1``;
* ``GET /v1/jobs/{id}`` — poll one job's status;
* ``GET /metrics`` — Prometheus text exposition of the process-wide
  :class:`~repro.obs.metrics.MetricsRegistry`;
* ``GET /healthz`` — liveness.

With ``workers=True`` (the CLI's ``serve --workers``) four more routes
expose the distributed dispatch plane (:mod:`repro.dispatch`):
``POST /v1/workers/register`` / ``heartbeat`` / ``deregister`` plus
``GET /v1/workers``, and the engine's chunk batches are leased out to
registered ``repro worker`` processes (falling back to the local pool
whenever none is healthy).

Error mapping is the contract the client retries against:
a request head or body the shared reader rejects -> ``400``/``413``,
:class:`~repro.errors.ApiError` -> ``400``,
:class:`~repro.errors.QuotaExceededError` -> ``429`` + ``Retry-After``
(including its :class:`~repro.errors.ServiceOverloadedError` subtype),
:class:`~repro.errors.CircuitOpenError` -> ``503`` + ``Retry-After``,
a deadline-failed job -> ``504``, unknown job -> ``404``, shutdown ->
``503``, a handler bug -> ``500`` (counted in
``repro_service_http_errors_total``).

Two request headers extend the contract (see ``docs/service.md``):
``Idempotency-Key`` maps a retried POST back to the original job, and
``X-Repro-Deadline`` carries the end-to-end budget in seconds (the
body's ``deadline_s`` field wins when both are present).

:class:`SweepService` is the listener plus a
:class:`~repro.service.broker.SweepBroker`; :func:`run_service` hosts
one on a fresh event loop (the ``repro serve`` entry point), and
:class:`ServiceThread` hosts the same thing on a daemon thread for
in-process tests and embedding.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.api.types import OptimizationRequest
from repro.dispatch.plane import DispatchPlane, DispatchPolicy
from repro.engine.engine import ExperimentEngine
from repro.errors import (
    ApiError,
    CircuitOpenError,
    QuotaExceededError,
    ServiceError,
)
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.obs.stitch import TraceContext
from repro.service.breaker import BreakerPolicy
from repro.service.broker import SweepBroker
from repro.service.http import (
    IDEMPOTENCY_HEADER,
    TRACE_HEADER,
    Listener,
    ListenerThread,
    Request,
    Response,
    json_response,
    read_request,
    run_listener,
)
from repro.service.journal import JobJournal
from repro.service.quotas import QuotaPolicy, TenantQuotas
from repro.service.warmcache import WarmResultStore

#: Largest accepted request body; optimization requests are tiny.
MAX_BODY_BYTES: int = 1 << 20

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE: str = "text/plain; version=0.0.4; charset=utf-8"

#: Accepted trace-id shape; anything else is ignored (a hostile header
#: must not be able to inject arbitrary bytes into trace files).
_TRACE_ID_RE: re.Pattern[str] = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Accepted idempotency-key shape; anything else is ignored (same
#: hostile-header rule as trace ids — keys land in the job journal).
_IDEMPOTENCY_KEY_RE: re.Pattern[str] = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")

#: Deadline header: the request's end-to-end budget in seconds.  The
#: body's ``deadline_s`` field takes precedence when both are present.
DEADLINE_HEADER: str = "X-Repro-Deadline"


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to boot one sweep service."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (tests, CI smoke).
    port: int = 0
    quota: QuotaPolicy = field(default_factory=QuotaPolicy)
    warm_entries: int = 256
    #: How long a new cell waits for batch companions; ``0`` flushes
    #: as soon as the engine is free.
    batch_window_s: float = 0.0
    #: Default ``?wait=1`` timeout before the server gives up blocking
    #: and returns the still-running status.
    wait_timeout_s: float = 60.0
    #: Path of the durable job journal; ``None`` disables journaling
    #: and crash recovery with it.
    journal_path: str | Path | None = None
    #: Circuit-breaker policy around the engine ``map`` call.
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    #: Hard cap on the broker's job table (admission past it is 429).
    max_jobs: int = 4096
    #: SIGTERM drain budget: how long :meth:`SweepService.stop` lets
    #: in-flight batches finish before cancelling them.
    drain_timeout_s: float = 10.0
    #: Enable the distributed worker plane: ``repro worker`` processes
    #: may register via ``/v1/workers/*`` and engine batches are leased
    #: out to them (local-pool fallback when none is healthy).
    workers: bool = False
    #: Worker-plane tunables (leases, heartbeats, failover).
    dispatch: DispatchPolicy = field(default_factory=DispatchPolicy)


class SweepService(Listener):
    """One listener + broker pair bound to a running event loop."""

    def __init__(self, engine: ExperimentEngine, config: ServiceConfig) -> None:
        super().__init__(config.host, config.port)
        self.config = config
        # Every batch evaluates in the engine's worker pool, at any
        # --jobs: a kernel on a thread of this process would hold the
        # GIL that the event loop needs to answer warm requests.
        engine.pooled = True
        self.engine: ExperimentEngine = engine
        self.broker = SweepBroker(
            engine=engine,
            quota_policy=config.quota,
            warm=WarmResultStore(max_entries=config.warm_entries),
            batch_window_s=config.batch_window_s,
            max_jobs=config.max_jobs,
            journal=(
                JobJournal(config.journal_path)
                if config.journal_path is not None
                else None
            ),
            breaker_policy=config.breaker,
        )
        # The dispatch plane is attached to the *engine*: the broker's
        # batches flow through engine.map unchanged, and the engine's
        # executor seam decides remote-vs-local per batch.
        self.plane: DispatchPlane | None = None
        if config.workers:
            self.plane = DispatchPlane(policy=config.dispatch)
            engine.dispatcher = self.plane

    async def start(self) -> None:
        await self.broker.start()
        # Replay the job journal *before* the port opens: recovered
        # jobs re-enter the batch loop ahead of any new traffic.
        await self.broker.recover()
        await super().start()

    async def stop(self) -> None:
        # Graceful drain: stop accepting first, then give in-flight
        # batches the drain budget before the broker cancels them, and
        # end the engine's worker pool last.  close() joins the worker
        # processes, so it runs off the loop.
        await super().stop()
        await self.broker.close(drain_s=self.config.drain_timeout_s)
        await asyncio.get_running_loop().run_in_executor(None, self.engine.close)

    async def serve(self) -> None:
        obs.event("service.started", host=self.host, port=self.port)
        try:
            await super().serve()  # until SIGTERM, SIGINT or a thread's stop
        finally:
            obs.event(
                "service.draining",
                drain_timeout_s=self.config.drain_timeout_s,
                open_jobs=self.broker.jobs.open_jobs(),
            )

    def failure(self, exc: Exception) -> Response:
        metrics().counter(
            "repro_service_http_errors_total",
            "requests answered with an unexpected 500",
        ).inc()
        return super().failure(exc)

    # -- one request --------------------------------------------------------

    async def respond(self, reader: asyncio.StreamReader) -> Response:
        started = time.perf_counter()
        ts = time.time()
        request = await read_request(reader, MAX_BODY_BYTES)
        if not request.method:  # no request line: nothing to account
            return request.error
        # Every request gets a trace id (the client's, when well
        # formed); the span id is reserved up front so downstream spans
        # can parent to the request before its span is recorded.
        trace_id = request.headers.get(TRACE_HEADER.lower(), "")
        tracer = obs.current_tracer()
        trace = TraceContext(
            trace_id=trace_id if _TRACE_ID_RE.match(trace_id) else obs.new_trace_id(),
            parent_id=tracer.new_span_id() if tracer.enabled else None,
        )
        route = _route_label(request.path)
        response = request.error
        if response is None:
            metrics().counter(
                "repro_service_http_requests_total", "HTTP requests received"
            ).inc(method=request.method, path=route)
            response = await self._route(request, trace, ts)
        status, headers, body = response
        # Close out the request: latency histogram, span, trace header.
        dur_s = time.perf_counter() - started
        metrics().histogram(
            "repro_service_request_seconds", "HTTP request latency"
        ).observe(dur_s, method=request.method, path=route)
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.record_span(
                "service.request",
                trace_id=trace.trace_id,
                span_id=trace.parent_id,
                parent=None,
                ts=ts,
                dur_s=dur_s,
                method=request.method,
                path=route,
                status=status,
            )
        return status, {**headers, TRACE_HEADER: trace.trace_id}, body

    async def _route(
        self, request: Request, trace: TraceContext, received_ts: float
    ) -> Response:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return json_response(200, {"ok": True})
        if path == "/metrics" and method == "GET":
            body = metrics().to_prometheus().encode("utf-8")
            return 200, {"Content-Type": PROMETHEUS_CONTENT_TYPE}, body
        if path == "/v1/optimize" and method == "POST":
            return await self._optimize(request, trace, received_ts)
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._job_status(path.removeprefix("/v1/jobs/"))
        if path.startswith("/v1/workers") and self.plane is None:
            return json_response(
                404,
                {"error": "worker plane disabled; start with serve --workers"},
            )
        if path == "/v1/workers" and method == "GET":
            return json_response(
                200,
                {"workers": [w.describe() for w in self.plane.registry.workers()]},
            )
        if path.startswith("/v1/workers/") and method == "POST":
            return self._workers_post(
                path.removeprefix("/v1/workers/"), request.body
            )
        return json_response(404, {"error": f"no route for {method} {path}"})

    # -- worker plane ------------------------------------------------------

    def _workers_post(self, action: str, body: bytes) -> Response:
        assert self.plane is not None
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return json_response(400, {"error": f"body is not JSON: {exc}"})
        if not isinstance(document, dict):
            return json_response(
                400, {"error": f"body must be an object, got {document!r}"}
            )
        registry = self.plane.registry
        if action == "register":
            url = document.get("url")
            if not isinstance(url, str):
                return json_response(
                    400, {"error": "register body needs a string 'url'"}
                )
            try:
                state = registry.register(url, slots=int(document.get("slots", 1)))
            except (ServiceError, ValueError) as exc:
                return json_response(400, {"error": str(exc)})
            return json_response(
                200,
                {
                    "worker_id": state.worker_id,
                    "heartbeat_interval_s": self.plane.policy.heartbeat_interval_s,
                },
            )
        if action == "heartbeat":
            worker_id = document.get("worker_id")
            ok = isinstance(worker_id, str) and registry.heartbeat(worker_id)
            # ok=False tells a forgotten worker (broker restart, reap)
            # to re-register rather than heartbeat into the void.
            return json_response(200, {"ok": ok})
        if action == "deregister":
            worker_id = document.get("worker_id")
            ok = isinstance(worker_id, str) and registry.deregister(worker_id)
            return json_response(200, {"ok": ok})
        return json_response(
            404, {"error": f"no worker action {action!r}"}
        )

    async def _optimize(
        self, request: Request, trace: TraceContext, received_ts: float
    ) -> Response:
        key = request.headers.get(IDEMPOTENCY_HEADER.lower(), "")
        idempotency_key = key if _IDEMPOTENCY_KEY_RE.match(key) else None
        deadline_raw = request.headers.get(DEADLINE_HEADER.lower())
        try:
            document = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return json_response(400, {"error": f"body is not JSON: {exc}"})
        if deadline_raw is not None:
            try:
                deadline_s = float(deadline_raw)
            except ValueError:
                return json_response(
                    400,
                    {
                        "error": f"malformed {DEADLINE_HEADER} header: "
                        f"{deadline_raw!r} is not a number of seconds"
                    },
                )
            if isinstance(document, dict) and "deadline_s" not in document:
                document["deadline_s"] = deadline_s
        try:
            job = await self.broker.submit(
                OptimizationRequest.from_dict(document),
                trace=trace,
                idempotency_key=idempotency_key,
            )
        except ApiError as exc:
            return json_response(400, {"error": str(exc)})
        except QuotaExceededError as exc:
            return json_response(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                extra_headers={
                    "Retry-After": TenantQuotas.retry_after_header(exc)
                },
            )
        except CircuitOpenError as exc:
            return json_response(
                503,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                extra_headers={
                    "Retry-After": str(max(1, int(exc.retry_after_s + 0.999)))
                },
            )
        except ServiceError as exc:
            return json_response(503, {"error": str(exc)})
        admitted_ts = time.time()
        wait = request.query.get("wait", ["0"])[-1] not in ("0", "", "false")
        if wait and not job.done.is_set():
            try:
                await self.broker.wait(job, timeout=self.config.wait_timeout_s)
            except asyncio.TimeoutError:
                pass  # return the still-running status; client may poll
        answered_ts = time.time()
        if job.finished is not None:
            # The answer exists from the job's finish (monotonic -> wall).
            answered_ts = max(
                admitted_ts, job.created_wall + (job.finished - job.created)
            )
        if job.done.is_set() and job.deadline_hit:
            status_code = 504
        else:
            status_code = 200 if job.done.is_set() else 202
        response = json_response(status_code, job.status().to_dict())
        tracer = obs.current_tracer()
        if tracer.enabled:
            # The request's own work either side of the broker, as
            # siblings of service.queue_wait / broker.batch: parsing and
            # admission, then answer-ready to encoded response.
            for name, start, end in (
                ("service.admit", received_ts, admitted_ts),
                ("service.respond", answered_ts, time.time()),
            ):
                tracer.record_span(
                    name,
                    trace_id=trace.trace_id,
                    parent=trace.parent_id,
                    ts=start,
                    dur_s=max(0.0, end - start),
                )
        return response

    def _job_status(self, job_id: str) -> Response:
        try:
            job = self.broker.jobs.get(job_id)
        except ServiceError as exc:
            return json_response(404, {"error": str(exc)})
        return json_response(200, job.status().to_dict())


def _route_label(path: str) -> str:
    """Collapse per-job paths so the route label stays low-cardinality."""
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/{id}"
    return path


# -- hosting ---------------------------------------------------------------


def run_service(
    engine: ExperimentEngine,
    config: ServiceConfig,
    *,
    on_ready: Callable[[SweepService], None] | None = None,
) -> None:
    """Host one service on a fresh event loop until interrupted.

    The ``repro serve`` entry point.  ``on_ready`` fires once the port
    is bound (the CLI prints the URL; the CI smoke test parses it).
    SIGTERM and SIGINT trigger a graceful drain: the listener closes,
    in-flight batches get ``config.drain_timeout_s`` to finish, and
    the process exits 0.
    """
    run_listener(lambda: SweepService(engine, config), on_ready)


class ServiceThread(ListenerThread):
    """A sweep service hosted on a daemon thread (tests, embedding).

    >>> with ServiceThread(engine) as svc:
    ...     client = ServiceClient(svc.url)
    """

    def __init__(
        self, engine: ExperimentEngine, config: ServiceConfig | None = None
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        super().__init__(
            lambda: SweepService(engine, self.config), "repro-sweep-service"
        )

    @property
    def service(self) -> SweepService:
        return self.listener
