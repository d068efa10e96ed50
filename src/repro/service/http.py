"""The one HTTP/1.1 stack of the sweep service and the worker plane.

Stdlib only: connection-per-request listeners over
``asyncio.start_server`` with JSON answers, and one blocking
``http.client`` call the other way.  :class:`~repro.service.server.
SweepService` and :class:`~repro.dispatch.worker.WorkerServer` subclass
:class:`Listener` and keep only their routes and policy;
:class:`~repro.service.client.ServiceClient` and the dispatch plane call
:func:`request_json`.  :func:`read_request` answers ``400`` for a head
it cannot parse (a bad request line, a line past asyncio's 64 KiB
stream limit, more than :data:`MAX_HEADERS` headers, a negative or
non-numeric ``Content-Length``) and ``413`` for a body over the cap.
"""

from __future__ import annotations

import json
import signal
import threading
from dataclasses import dataclass, field
from http.client import HTTPConnection
from typing import TYPE_CHECKING, Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro.errors import ServiceError

if TYPE_CHECKING:  # the listeners import it where they run, so a
    import asyncio  # client (``repro query --url``) never loads it

#: Distributed-trace header: a client may supply its own trace id; the
#: service honours it, assigns one otherwise, and echoes the chosen id
#: on every response.
TRACE_HEADER: str = "X-Repro-Trace"

#: Idempotency header: a retried POST carrying the same key (within a
#: tenant) is answered with the original job instead of a duplicate.
IDEMPOTENCY_HEADER: str = "Idempotency-Key"

#: Most header lines one request may carry (``http.client``'s own cap).
MAX_HEADERS: int = 100

#: How long :meth:`ListenerThread.start` waits for the port to open.
_STARTUP_TIMEOUT_S: float = 10.0

#: ``(status, headers, body)``: one encoded answer.
Response = tuple[int, dict, bytes]

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


def json_response(
    status: int, document: dict, extra_headers: dict | None = None
) -> Response:
    headers = {"Content-Type": "application/json", **(extra_headers or {})}
    return status, headers, json.dumps(document, sort_keys=True).encode("utf-8")


def render(status: int, headers: dict, body: bytes) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    headers = {**headers, "Content-Length": str(len(body)), "Connection": "close"}
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


@dataclass
class Request:
    """One parsed request, or the 4xx answer it earned instead."""

    method: str = ""
    path: str = ""
    query: dict[str, list[str]] = field(default_factory=dict)
    #: Header values by lower-cased name; a repeated header keeps its last.
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: Set when the request is malformed: answer it and route nothing.
    #: ``method`` and ``path`` are still set once the request line parsed.
    error: Response | None = None

    def fail(self, status: int, message: str) -> Request:
        self.error = json_response(status, {"error": message})
        return self


async def read_request(reader: asyncio.StreamReader, max_body: int) -> Request:
    """Read one request head and a body of at most ``max_body`` bytes."""
    request = Request()
    try:
        parts = (await reader.readline()).decode("latin-1").split()
        if len(parts) != 3:
            return request.fail(400, "malformed request line")
        target = urlsplit(parts[1])
        request.method, request.path = parts[0], target.path
        request.query = parse_qs(target.query)
        for _ in range(MAX_HEADERS + 1):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            request.headers[name.strip().lower()] = value.strip()
        else:
            raise ValueError(f"more than {MAX_HEADERS} header lines")
    except ValueError as exc:  # also asyncio's over-long line
        return request.fail(400, f"malformed request head: {exc}")
    length = request.headers.get("content-length", "0")
    if not length.isdecimal():
        return request.fail(400, "malformed Content-Length")
    if int(length) > max_body:
        return request.fail(413, f"body exceeds {max_body} bytes")
    try:
        request.body = await reader.readexactly(int(length))
    except EOFError:  # asyncio.IncompleteReadError
        return request.fail(400, "body shorter than its Content-Length")
    return request


class Listener:
    """One HTTP/1.1 listener: connection-per-request, JSON answers.

    Subclasses implement :meth:`respond`; :meth:`failure` and
    :meth:`serve` are their hooks into the connection handler and the
    host.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self._bind_port = port
        self._server: asyncio.base_events.Server | None = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._server is None:
            raise ServiceError(f"{type(self).__name__} is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        import asyncio

        self._halted = asyncio.Event()
        self._server = await asyncio.start_server(
            self._connection, self.host, self._bind_port
        )

    def halt(self) -> None:
        """End :meth:`serve`; call it on the listener's event loop."""
        self._halted.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def respond(self, reader: asyncio.StreamReader) -> Response:
        """Read one request (:func:`read_request`) and answer it."""
        raise NotImplementedError

    def failure(self, exc: Exception) -> Response:
        """The ``500`` answering a bug in :meth:`respond`."""
        return json_response(500, {"error": f"{type(exc).__name__}: {exc}"})

    async def serve(self) -> None:
        """The host's work between ready and :meth:`halt`."""
        await self._halted.wait()

    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        import asyncio

        try:
            response = await self.respond(reader)
        except asyncio.CancelledError:
            # Shutdown tore the connection down mid-request (e.g. an
            # evaluate still hung under an injected fault).  Returning
            # quietly keeps the stream protocol's done-callback from
            # logging a spurious traceback; the peer sees a reset.
            writer.close()
            return
        except Exception as exc:  # noqa: BLE001 - transport boundary: a
            # handler bug must answer 500, not kill the connection task.
            response = self.failure(exc)
        try:
            writer.write(render(*response))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()


def run_listener(
    build: Callable[[], Listener],
    on_ready: Callable[[Listener], None] | None = None,
) -> None:
    """Host one listener on a fresh event loop until interrupted.

    ``on_ready`` fires once the port is bound (the CLI prints the URL;
    smoke scripts parse it).  SIGTERM and SIGINT halt the listener, which
    ends :meth:`Listener.serve`; then the listener stops.
    """
    import asyncio

    async def _main() -> None:
        listener = build()
        await listener.start()
        if on_ready is not None:
            on_ready(listener)
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, listener.halt)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):
                pass  # no loop signal handlers here (or off the main thread)
        try:
            await listener.serve()
        except asyncio.CancelledError:
            pass
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await listener.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass


class ListenerThread:
    """:func:`run_listener` on a daemon thread (tests, embedding).

    :meth:`stop` halts the listener from the caller's thread, as a
    signal would, and waits for the host to stop it.
    """

    def __init__(self, build: Callable[[], Listener], name: str) -> None:
        self._build = build
        self._name = name
        self._listener: Listener | None = None
        self._thread: threading.Thread | None = None
        self._halt: Callable[[], object] | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def listener(self) -> Listener:
        if self._listener is None:
            raise ServiceError(f"{self._name} thread is not running")
        return self._listener

    @property
    def port(self) -> int:
        return self.listener.port

    @property
    def url(self) -> str:
        return self.listener.url

    def start(self) -> ListenerThread:
        if self._thread is not None:
            raise ServiceError(f"{self._name} thread already started")
        self._thread = threading.Thread(
            target=self._run, name=self._name, daemon=True
        )
        self._thread.start()
        if not self._ready.wait(_STARTUP_TIMEOUT_S):
            raise ServiceError(f"{self._name} did not become ready in time")
        if self._startup_error is not None:
            raise ServiceError(
                f"{self._name} failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        if self._halt is None or self._thread is None:
            return
        self._halt()
        self._thread.join(timeout=10.0)
        self._thread = self._halt = self._listener = None

    def _run(self) -> None:
        try:
            run_listener(self._build, self._on_ready)
        except BaseException as exc:  # noqa: BLE001 - startup failures
            # must surface on the caller's thread, not die silently here.
            self._startup_error = exc
            self._ready.set()

    def _on_ready(self, listener: Listener) -> None:
        import asyncio

        loop = asyncio.get_running_loop()
        self._halt = lambda: loop.call_soon_threadsafe(listener.halt)
        self._listener = listener
        self._ready.set()

    def __enter__(self) -> ListenerThread:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def request_json(
    base_url: str,
    method: str,
    path: str,
    body: dict | None = None,
    *,
    headers: dict | None = None,
    timeout_s: float,
) -> tuple[int, dict, Any]:
    """One blocking request to ``base_url``; ``(status, headers, answer)``.

    ``body`` is sent as JSON.  A JSON answer is parsed (``{}`` when
    empty); any other content type comes back as text.  Transport
    failures raise the ``OSError`` family (``TimeoutError`` once
    ``timeout_s`` passes) or :class:`http.client.HTTPException`.
    """
    parts = urlsplit(base_url)
    if parts.hostname is None:
        raise ServiceError(f"malformed URL {base_url!r}")
    conn = HTTPConnection(parts.hostname, parts.port, timeout=timeout_s)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        if payload is not None:
            headers = {**(headers or {}), "Content-Type": "application/json"}
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        raw = response.read()
        answer_headers = dict(response.getheaders())
        if not answer_headers.get("Content-Type", "").startswith("application/json"):
            return response.status, answer_headers, raw.decode("utf-8")
        return response.status, answer_headers, json.loads(raw) if raw else {}
    finally:
        conn.close()
