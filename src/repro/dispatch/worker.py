"""The ``repro worker`` process: one host of the dispatch plane.

A :class:`~repro.service.http.Listener` (the stdlib stack the sweep
service uses, JSON in/out, connection-per-request) with two routes:

* ``POST /v1/evaluate`` — evaluate one leased chunk of sweep cells.
  The body carries the cells, the (chunk, attempt) coordinates, the
  engine's fault plan (injected faults fire *here*, on the host that
  actually runs the chunk — a planned crash takes the whole worker
  process down, exactly like a pool worker dying), and the caller's
  trace context.  Spans recorded during evaluation (a ``worker.evaluate``
  root wrapping the usual ``engine.worker`` / ``cell.evaluate`` tree)
  are kept in memory and returned in the response, so the broker can
  stitch one cross-host trace.
* ``GET /healthz`` — liveness.

A request the shared reader rejects answers ``400``/``413``; a handler
bug answers ``500`` with ``"transient": false``.

Evaluation runs on the event loop's default thread-pool executor, so
health checks and concurrent leases (up to ``--slots``, the number the
broker leases at once) are served while a chunk computes.  Traced
evaluations run one at a time, because the active tracer is
process-wide.  When started with ``--broker`` the worker registers
itself and then **heartbeats** on the interval the broker dictates; a
worker that loses the broker re-registers rather than dying, and
deregisters politely on SIGTERM.

:class:`WorkerThread` hosts the same server on a daemon thread for
in-process tests.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.dispatch.wire import decode_cells, decode_plan, decode_trace
from repro.errors import ReproError, ServiceError, TransientError
from repro.obs.trace import span
from repro.resilience.faults import evaluate_chunk_with_faults
from repro.service.http import (
    Listener,
    ListenerThread,
    Response,
    json_response,
    read_request,
    request_json,
    run_listener,
)

_LOG = logging.getLogger("repro.dispatch.worker")

#: Largest accepted request body; a chunk of cell specs is small, but
#: leave room for wide sweeps.
MAX_BODY_BYTES: int = 8 << 20

#: Registration retries while the broker is still booting.
_REGISTER_ATTEMPTS: int = 40
_REGISTER_BACKOFF_S: float = 0.25

#: Heartbeat cadence if the broker's register reply names none.
_HEARTBEAT_INTERVAL_S: float = 1.0


@dataclass(frozen=True)
class WorkerConfig:
    """Everything needed to boot one dispatch worker."""

    host: str = "127.0.0.1"
    #: ``0`` binds an ephemeral port (tests, CI smoke).
    port: int = 0
    #: Concurrent leases this worker advertises and serves.
    slots: int = 1
    #: Broker base URL to register with; ``None`` serves unregistered
    #: (tests register the worker into a registry by hand).
    broker_url: str | None = None

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ServiceError(f"slots must be >= 1, got {self.slots}")


class WorkerServer(Listener):
    """One worker listener bound to a running event loop."""

    #: Held by every traced evaluation: each installs its tracer as the
    #: process-wide active tracer, so two overlapping ones would push
    #: spans onto each other's stacks.  Untraced chunks do not take it;
    #: a broker traces all of its maps or none, so a worker never runs
    #: the two kinds at once.
    _trace_lock = threading.Lock()

    def __init__(self, config: WorkerConfig) -> None:
        super().__init__(config.host, config.port)
        self.config = config
        self.worker_id: str | None = None  # assigned by the broker

    async def serve(self) -> None:
        """Register, heartbeat until halted, then deregister."""
        if self.config.broker_url is None:
            await super().serve()
            return
        loop = asyncio.get_running_loop()
        interval_s = await loop.run_in_executor(None, _register, self)
        try:
            while not self._halted.is_set():
                try:
                    await asyncio.wait_for(self._halted.wait(), timeout=interval_s)
                except asyncio.TimeoutError:
                    await loop.run_in_executor(None, _heartbeat_once, self)
        finally:
            await loop.run_in_executor(None, _deregister, self)

    def failure(self, exc: Exception) -> Response:
        return json_response(
            500, {"error": f"{type(exc).__name__}: {exc}", "transient": False}
        )

    async def respond(self, reader: asyncio.StreamReader) -> Response:
        request = await read_request(reader, MAX_BODY_BYTES)
        if request.error is not None:
            return request.error
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return json_response(
                200,
                {"ok": True, "worker_id": self.worker_id, "slots": self.config.slots},
            )
        if path == "/v1/evaluate" and method == "POST":
            return await self._evaluate(request.body)
        return json_response(404, {"error": f"no route for {method} {path}"})

    async def _evaluate(self, body: bytes) -> Response:
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return json_response(
                400, {"error": f"body is not JSON: {exc}", "transient": False}
            )
        loop = asyncio.get_running_loop()
        try:
            # Evaluation is CPU work (and may hang under an injected
            # fault); it runs off-loop so /healthz and sibling leases
            # keep answering while a chunk computes.
            result = await loop.run_in_executor(
                None, self._evaluate_sync, document
            )
        except ReproError as exc:
            return json_response(
                500,
                {
                    "error": f"{type(exc).__name__}: {exc}",
                    "transient": isinstance(exc, TransientError),
                },
            )
        return json_response(200, result)

    def _evaluate_sync(self, document: dict) -> dict:
        if not isinstance(document, dict):
            raise ServiceError(f"evaluate body must be an object, got {document!r}")
        cells = decode_cells(document.get("cells"))
        chunk = int(document.get("chunk", 0))
        attempt = int(document.get("attempt", 0))
        plan = decode_plan(document.get("fault_plan"))
        trace = decode_trace(document.get("trace"))
        started = time.perf_counter()
        if trace is None:
            pairs, spans = evaluate_chunk_with_faults(cells, plan, chunk, attempt)
        else:
            tracer = trace.tracer()
            with self._trace_lock, tracer, span(
                "worker.evaluate",
                level="engine",
                worker_id=self.worker_id,
                chunk=chunk,
                attempt=attempt,
                pid=os.getpid(),
                n_cells=len(cells),
            ):
                pairs, _ = evaluate_chunk_with_faults(cells, plan, chunk, attempt)
            spans = tracer.records
        return {
            "pairs": [[payload, wall_s] for payload, wall_s in pairs],
            "spans": spans,
            "worker_id": self.worker_id,
            "wall_s": time.perf_counter() - started,
        }


# -- broker liaison ---------------------------------------------------------


def _to_broker(server: WorkerServer, action: str, document: dict) -> tuple[int, dict]:
    """POST ``document`` to the broker's ``/v1/workers/{action}``."""
    assert server.config.broker_url is not None
    status, _, doc = request_json(
        server.config.broker_url, "POST", f"/v1/workers/{action}", document,
        timeout_s=5.0,
    )
    return status, doc


def _register(server: WorkerServer) -> float:
    """Register with the broker; returns the heartbeat cadence it set.

    Retries while the broker boots — worker and broker are typically
    started together — and raises :class:`~repro.errors.ServiceError`
    once the budget is spent so ``repro worker`` exits non-zero instead
    of idling unregistered.
    """
    config = server.config
    last_error: Exception | None = None
    for _ in range(_REGISTER_ATTEMPTS):
        try:
            status, doc = _to_broker(
                server, "register", {"url": server.url, "slots": config.slots}
            )
        except (OSError, ValueError) as exc:
            last_error = exc
            time.sleep(_REGISTER_BACKOFF_S)
            continue
        if status == 200 and isinstance(doc.get("worker_id"), str):
            server.worker_id = doc["worker_id"]
            interval_s = float(
                doc.get("heartbeat_interval_s") or _HEARTBEAT_INTERVAL_S
            )
            _LOG.info(
                "registered with %s as %s (heartbeat every %.3gs)",
                config.broker_url, server.worker_id, interval_s,
            )
            return interval_s
        last_error = ServiceError(f"broker answered registration with {status}")
        time.sleep(_REGISTER_BACKOFF_S)
    raise ServiceError(
        f"could not register with broker {config.broker_url}: {last_error}"
    )


def _heartbeat_once(server: WorkerServer) -> None:
    """One heartbeat; re-registers if the broker forgot us (restart)."""
    try:
        status, doc = _to_broker(
            server, "heartbeat", {"worker_id": server.worker_id}
        )
    except (OSError, ValueError) as exc:
        _LOG.warning("heartbeat to %s failed: %s", server.config.broker_url, exc)
        return
    if status != 200 or not doc.get("ok"):
        _LOG.warning(
            "broker no longer knows worker %s; re-registering", server.worker_id
        )
        try:
            _register(server)
        except ServiceError as exc:
            _LOG.warning("re-registration failed: %s", exc)


def _deregister(server: WorkerServer) -> None:
    if server.worker_id is None:
        return
    try:
        _to_broker(server, "deregister", {"worker_id": server.worker_id})
    except (OSError, ValueError):
        pass  # the broker will reap us by heartbeat timeout instead


# -- hosting ---------------------------------------------------------------


def run_worker(
    config: WorkerConfig,
    *,
    on_ready: Callable[[WorkerServer], None] | None = None,
) -> None:
    """Host one worker on a fresh event loop until interrupted.

    The ``repro worker`` entry point.  ``on_ready`` fires once the port
    is bound (the CLI prints the URL; smoke tests parse it).  SIGTERM
    and SIGINT deregister from the broker and exit 0.
    """
    run_listener(lambda: WorkerServer(config), on_ready)


class WorkerThread(ListenerThread):
    """A dispatch worker hosted on a daemon thread (tests, embedding).

    >>> with WorkerThread() as worker:
    ...     registry.register(worker.url)

    It runs the same host as ``repro worker``; with no ``broker_url``
    (the default) it registers nowhere, and in-process tests register
    its URL into a :class:`~repro.dispatch.plane.WorkerRegistry`.
    """

    def __init__(self, config: WorkerConfig | None = None) -> None:
        self.config = config if config is not None else WorkerConfig()
        super().__init__(
            lambda: WorkerServer(self.config), "repro-dispatch-worker"
        )

    @property
    def server(self) -> WorkerServer:
        return self.listener
