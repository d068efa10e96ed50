"""The HTTP face of the sweep service (stdlib asyncio, no frameworks).

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` —
four routes, JSON in/out, connection-per-request:

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
:class:`~repro.errors.ApiError` -> ``400``,
:class:`~repro.errors.QuotaExceededError` -> ``429`` + ``Retry-After``
(including its :class:`~repro.errors.ServiceOverloadedError` subtype),
:class:`~repro.errors.CircuitOpenError` -> ``503`` + ``Retry-After``,
a deadline-failed job -> ``504``, unknown job -> ``404``, shutdown ->
``503``, anything else -> ``500``.

Two request headers extend the contract (see ``docs/service.md``):
``Idempotency-Key`` maps a retried POST back to the original job, and
``X-Repro-Deadline`` carries the end-to-end budget in seconds (the
body's ``deadline_s`` field wins when both are present).

:class:`SweepService` owns the listener plus a
:class:`~repro.service.broker.SweepBroker`; :func:`run_service` hosts
one on a fresh event loop (the ``repro serve`` entry point), and
:class:`ServiceThread` hosts the same thing on a daemon thread for
in-process tests and embedding.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from urllib.parse import parse_qs, urlsplit

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
from repro.service.journal import JobJournal
from repro.service.quotas import QuotaPolicy, TenantQuotas
from repro.service.warmcache import WarmResultStore

#: Largest accepted request body; optimization requests are tiny.
MAX_BODY_BYTES: int = 1 << 20

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE: str = "text/plain; version=0.0.4; charset=utf-8"

#: Distributed-trace header: a client may supply its own trace id; the
#: server honours it, assigns one otherwise, and echoes the chosen id
#: on every response.
TRACE_HEADER: str = "X-Repro-Trace"

#: Accepted trace-id shape; anything else is ignored (a hostile header
#: must not be able to inject arbitrary bytes into trace files).
_TRACE_ID_RE: re.Pattern[str] = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Idempotency header: a retried POST carrying the same key (within a
#: tenant) is answered with the original job instead of a duplicate.
IDEMPOTENCY_HEADER: str = "Idempotency-Key"

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
    batch_window_s: float = 0.02
    max_batch: int = 64
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


class SweepService:
    """One listener + broker pair bound to a running event loop."""

    def __init__(self, engine: ExperimentEngine, config: ServiceConfig) -> None:
        self.config = config
        self.broker = SweepBroker(
            engine=engine,
            quota_policy=config.quota,
            warm=WarmResultStore(max_entries=config.warm_entries),
            batch_window_s=config.batch_window_s,
            max_batch=config.max_batch,
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
        self._server: asyncio.base_events.Server | None = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._server is None:
            raise ServiceError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.broker.start()
        # Replay the job journal *before* the port opens: recovered
        # jobs re-enter the batch loop ahead of any new traffic.
        await self.broker.recover()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def stop(self) -> None:
        # Graceful drain: stop accepting first, then give in-flight
        # batches the drain budget before the broker cancels them.
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.broker.close(drain_s=self.config.drain_timeout_s)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, headers, body = await self._handle_one(reader)
        except Exception as exc:  # noqa: BLE001 - transport boundary: a
            # handler bug must answer 500, not kill the connection task.
            status, headers, body = _json_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
            metrics().counter(
                "repro_service_http_errors_total",
                "requests answered with an unexpected 500",
            ).inc()
        try:
            writer.write(_render(status, headers, body))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _handle_one(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict, bytes]:
        started = time.perf_counter()
        ts = time.time()
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return _json_response(400, {"error": "malformed request line"})
        method, target, _version = parts
        split = urlsplit(target)
        query = parse_qs(split.query)
        content_length_raw: str | None = None
        trace_header: str | None = None
        idempotency_key: str | None = None
        deadline_raw: str | None = None
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                content_length_raw = value.strip()
            elif name == TRACE_HEADER.lower():
                candidate = value.strip()
                if _TRACE_ID_RE.match(candidate):
                    trace_header = candidate
            elif name == IDEMPOTENCY_HEADER.lower():
                candidate = value.strip()
                if _IDEMPOTENCY_KEY_RE.match(candidate):
                    idempotency_key = candidate
            elif name == DEADLINE_HEADER.lower():
                deadline_raw = value.strip()
        # Every request gets a trace id (the client's, when well
        # formed); the span id is reserved up front so downstream spans
        # can parent to the request before its span is recorded.
        tracer = obs.current_tracer()
        trace = TraceContext(
            trace_id=trace_header if trace_header else obs.new_trace_id(),
            parent_id=tracer.new_span_id() if tracer.enabled else None,
        )
        content_length = 0
        if content_length_raw is not None:
            try:
                content_length = int(content_length_raw)
            except ValueError:
                return self._finish(
                    _json_response(400, {"error": "malformed Content-Length"}),
                    method, split.path, trace, ts, started,
                )
        if content_length > MAX_BODY_BYTES:
            return self._finish(
                _json_response(
                    413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
                ),
                method, split.path, trace, ts, started,
            )
        body = await reader.readexactly(content_length) if content_length else b""
        metrics().counter(
            "repro_service_http_requests_total", "HTTP requests received"
        ).inc(method=method, path=_route_label(split.path))
        response = await self._route(
            method, split.path, query, body, trace, ts,
            idempotency_key=idempotency_key, deadline_raw=deadline_raw,
        )
        return self._finish(response, method, split.path, trace, ts, started)

    def _finish(
        self,
        response: tuple[int, dict, bytes],
        method: str,
        path: str,
        trace: TraceContext,
        ts: float,
        started: float,
    ) -> tuple[int, dict, bytes]:
        """Close out one request: latency histogram, span, trace header."""
        status, headers, body = response
        dur_s = time.perf_counter() - started
        metrics().histogram(
            "repro_service_request_seconds", "HTTP request latency"
        ).observe(dur_s, method=method, path=_route_label(path))
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.record_span(
                "service.request",
                trace_id=trace.trace_id,
                span_id=trace.parent_id,
                parent=None,
                ts=ts,
                dur_s=dur_s,
                method=method,
                path=_route_label(path),
                status=status,
            )
        return status, {**headers, TRACE_HEADER: trace.trace_id}, body

    async def _route(
        self,
        method: str,
        path: str,
        query: dict,
        body: bytes,
        trace: TraceContext,
        received_ts: float,
        idempotency_key: str | None = None,
        deadline_raw: str | None = None,
    ) -> tuple[int, dict, bytes]:
        if path == "/healthz" and method == "GET":
            return _json_response(200, {"ok": True})
        if path == "/metrics" and method == "GET":
            text = metrics().to_prometheus()
            return (
                200,
                {"Content-Type": PROMETHEUS_CONTENT_TYPE},
                text.encode("utf-8"),
            )
        if path == "/v1/optimize" and method == "POST":
            return await self._optimize(
                query, body, trace, received_ts,
                idempotency_key=idempotency_key, deadline_raw=deadline_raw,
            )
        if path.startswith("/v1/jobs/") and method == "GET":
            return self._job_status(path.removeprefix("/v1/jobs/"))
        if path == "/v1/workers" and method == "GET":
            return self._workers_list()
        if path.startswith("/v1/workers/") and method == "POST":
            return self._workers_post(
                path.removeprefix("/v1/workers/"), body
            )
        return _json_response(
            404, {"error": f"no route for {method} {path}"}
        )

    # -- worker plane ------------------------------------------------------

    def _workers_list(self) -> tuple[int, dict, bytes]:
        if self.plane is None:
            return _json_response(
                404,
                {"error": "worker plane disabled; start with serve --workers"},
            )
        return _json_response(
            200,
            {"workers": [w.describe() for w in self.plane.registry.workers()]},
        )

    def _workers_post(
        self, action: str, body: bytes
    ) -> tuple[int, dict, bytes]:
        if self.plane is None:
            return _json_response(
                404,
                {"error": "worker plane disabled; start with serve --workers"},
            )
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _json_response(400, {"error": f"body is not JSON: {exc}"})
        if not isinstance(document, dict):
            return _json_response(
                400, {"error": f"body must be an object, got {document!r}"}
            )
        registry = self.plane.registry
        if action == "register":
            url = document.get("url")
            if not isinstance(url, str):
                return _json_response(
                    400, {"error": "register body needs a string 'url'"}
                )
            try:
                state = registry.register(url, slots=int(document.get("slots", 1)))
            except (ServiceError, ValueError) as exc:
                return _json_response(400, {"error": str(exc)})
            return _json_response(
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
            return _json_response(200, {"ok": ok})
        if action == "deregister":
            worker_id = document.get("worker_id")
            ok = isinstance(worker_id, str) and registry.deregister(worker_id)
            return _json_response(200, {"ok": ok})
        return _json_response(
            404, {"error": f"no worker action {action!r}"}
        )

    async def _optimize(
        self,
        query: dict,
        body: bytes,
        trace: TraceContext,
        received_ts: float,
        idempotency_key: str | None = None,
        deadline_raw: str | None = None,
    ) -> tuple[int, dict, bytes]:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return _json_response(400, {"error": f"body is not JSON: {exc}"})
        if deadline_raw is not None:
            try:
                deadline_s = float(deadline_raw)
            except ValueError:
                return _json_response(
                    400,
                    {
                        "error": f"malformed {DEADLINE_HEADER} header: "
                        f"{deadline_raw!r} is not a number of seconds"
                    },
                )
            if isinstance(document, dict) and "deadline_s" not in document:
                document["deadline_s"] = deadline_s
        try:
            request = OptimizationRequest.from_dict(document)
            job = await self.broker.submit(
                request, trace=trace, idempotency_key=idempotency_key
            )
        except ApiError as exc:
            return _json_response(400, {"error": str(exc)})
        except QuotaExceededError as exc:
            return _json_response(
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                extra_headers={
                    "Retry-After": TenantQuotas.retry_after_header(exc)
                },
            )
        except CircuitOpenError as exc:
            return _json_response(
                503,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                extra_headers={
                    "Retry-After": str(max(1, int(exc.retry_after_s + 0.999)))
                },
            )
        except ServiceError as exc:
            return _json_response(503, {"error": str(exc)})
        admitted_ts = time.time()
        wait = query.get("wait", ["0"])[-1] not in ("0", "", "false")
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
        response = _json_response(status_code, job.status().to_dict())
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

    def _job_status(self, job_id: str) -> tuple[int, dict, bytes]:
        try:
            job = self.broker.jobs.get(job_id)
        except ServiceError as exc:
            return _json_response(404, {"error": str(exc)})
        return _json_response(200, job.status().to_dict())


def _route_label(path: str) -> str:
    """Collapse per-job paths so the route label stays low-cardinality."""
    if path.startswith("/v1/jobs/"):
        return "/v1/jobs/{id}"
    return path


def _json_response(
    status: int, document: dict, extra_headers: dict | None = None
) -> tuple[int, dict, bytes]:
    headers = {"Content-Type": "application/json"}
    if extra_headers:
        headers.update(extra_headers)
    return status, headers, json.dumps(document, sort_keys=True).encode("utf-8")


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _render(status: int, headers: dict, body: bytes) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    headers = {**headers, "Content-Length": str(len(body)), "Connection": "close"}
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


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
    the process exits 0 — the contract ``repro chaos`` asserts.
    """

    async def _main() -> None:
        service = SweepService(engine, config)
        await service.start()
        obs.event(
            "service.started", host=config.host, port=service.port
        )
        if on_ready is not None:
            on_ready(service)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal handlers
        try:
            await stop.wait()  # serve until signalled or cancelled
        except asyncio.CancelledError:
            pass
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            obs.event(
                "service.draining",
                drain_timeout_s=config.drain_timeout_s,
                open_jobs=service.broker.jobs.open_jobs(),
            )
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ServiceThread:
    """A sweep service hosted on a daemon thread (tests, embedding).

    >>> with ServiceThread(engine) as svc:
    ...     url = f"http://127.0.0.1:{svc.port}"
    """

    def __init__(
        self,
        engine: ExperimentEngine,
        config: ServiceConfig | None = None,
        startup_timeout_s: float = 10.0,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._engine = engine
        self._startup_timeout_s = startup_timeout_s
        self._loop: asyncio.AbstractEventLoop | None = None
        self._service: SweepService | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def service(self) -> SweepService:
        if self._service is None:
            raise ServiceError("service thread is not running")
        return self._service

    @property
    def port(self) -> int:
        return self.service.port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise ServiceError("service thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-sweep-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self._startup_timeout_s):
            raise ServiceError("service thread did not become ready in time")
        if self._startup_error is not None:
            raise ServiceError(
                f"service failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=10.0)
        self._thread = None
        self._loop = None
        self._service = None

    def _run(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        service = SweepService(self._engine, self.config)
        try:
            await service.start()
        except BaseException as exc:  # noqa: BLE001 - startup failures
            # must surface on the caller's thread, not die silently here.
            self._startup_error = exc
            self._ready.set()
            return
        self._service = service
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await service.stop()

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
