"""The shared HTTP stack (``repro.service.http``) under raw bytes.

Both listeners — the sweep service and the dispatch worker — parse
requests with the same reader, so a request head neither can parse is
a client error on both: it answers 4xx and is never counted as a
handler bug (``repro_service_http_errors_total``).
"""

import socket

import pytest

from repro.dispatch.worker import WorkerThread
from repro.engine.engine import ExperimentEngine
from repro.obs.metrics import metrics
from repro.service.server import ServiceThread

#: Request heads the reader must reject with a 4xx, not a 500.
BAD_HEADS = {
    "negative-content-length": (
        b"POST /v1/evaluate HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
    ),
    "70000-byte-header-line": (
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n"
    ),
    "101-header-lines": (
        b"GET /healthz HTTP/1.1\r\n" + b"X-Repeat: 1\r\n" * 101 + b"\r\n"
    ),
}


def _status_of(port: int, raw: bytes) -> int:
    """The status code a listener answers ``raw`` with."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


@pytest.mark.parametrize("head", sorted(BAD_HEADS))
@pytest.mark.parametrize("server", ["service", "worker"])
def test_a_bad_request_head_is_a_4xx_not_a_handler_bug(server, head):
    host = ServiceThread(ExperimentEngine()) if server == "service" else WorkerThread()
    handler_bugs = metrics().counter("repro_service_http_errors_total")
    before = handler_bugs.value()
    with host:
        status = _status_of(host.port, BAD_HEADS[head])
    assert status in (400, 431)
    assert handler_bugs.value() == before
