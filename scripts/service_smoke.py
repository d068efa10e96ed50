"""CI smoke test for the sweep service.

Boots ``repro serve`` on an ephemeral port as a real subprocess, waits
for its readiness line, runs one end-to-end optimization query plus a
``/metrics`` scrape through the typed client, and tears the server down
— all inside a hard deadline so a wedged service fails CI instead of
hanging it.  The server's child processes (its pool worker among them)
are recorded while it runs, and none may be alive once it has exited on
SIGTERM.

Usage: ``PYTHONPATH=src python scripts/service_smoke.py``
"""

from __future__ import annotations

import os
import re
import selectors
import subprocess
import sys
import time

DEADLINE_S = 120.0
READY_PATTERN = re.compile(r"serving on (http://[\w.\-]+:\d+)")
#: How long a child may take to notice its parent's exit.
CHILD_EXIT_GRACE_S = 5.0
HAVE_PROC = os.path.isdir("/proc/self/task")


def children(pid: int) -> dict[int, str]:
    """Live children of ``pid`` from ``/proc``, keyed to their start times.

    The start time tells a child from a later process reusing its pid.
    """
    found: dict[int, str] = {}
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
            for child in fh.read().split():
                start = start_time(int(child))
                if start is not None:
                    found[int(child)] = start
    return found


def start_time(pid: int) -> str | None:
    """The start time of a running ``pid``; ``None`` if gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rpartition(")")[2].split()
    except OSError:
        return None
    return None if fields[0] == "Z" else fields[19]


def fail(proc: subprocess.Popen, message: str) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
    raise SystemExit(f"service smoke FAILED: {message}")


def wait_for_ready(proc: subprocess.Popen, deadline: float) -> str:
    """Read stdout lines until the readiness banner names the URL."""
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    buffered = ""
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            fail(proc, f"server exited early with code {proc.returncode}")
        if selector.select(timeout=1.0):
            line = proc.stdout.readline()
            buffered += line
            match = READY_PATTERN.search(line)
            if match:
                return match.group(1)
    fail(proc, f"no readiness line within deadline; stdout so far: {buffered!r}")
    raise AssertionError("unreachable")


def main() -> None:
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    url = wait_for_ready(proc, deadline)
    print(f"service up at {url}")

    from repro.api import OptimizationRequest
    from repro.obs.promtext import parse_prometheus
    from repro.service import ServiceClient

    client = ServiceClient(url, timeout_s=max(5.0, deadline - time.monotonic()))
    try:
        if not client.healthz():
            fail(proc, "healthz did not report ok")
        request = OptimizationRequest(
            "dcache", "compress", tenant="ci-smoke", n_refs=3000, warmup_refs=500
        )
        result = client.optimize(request)
        best = result.best
        if best.tpi_ns != min(p.tpi_ns for p in result.sweep):
            fail(proc, "best point does not minimise the sweep")
        print(f"query ok: best config {best.config} at {best.tpi_ns:.4f} ns")

        families = parse_prometheus(client.metrics_text())
        required = (
            "repro_service_requests_total",
            "repro_service_jobs_total",
            "repro_service_http_requests_total",
        )
        missing = [name for name in required if name not in families]
        if missing:
            fail(proc, f"/metrics is missing families: {missing}")
        served = families["repro_service_requests_total"].value(
            tenant="ci-smoke", structure="dcache"
        )
        if served < 1:
            fail(proc, "request counter did not record the smoke query")
        print(f"metrics ok: {len(families)} families scraped")
        # The cold query started the pool worker; /proc is Linux-only.
        kids = children(proc.pid) if HAVE_PROC else {}
        if HAVE_PROC and not kids:
            fail(proc, "the server runs no pool worker after a cold query")
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SystemExit("service smoke FAILED: server ignored SIGTERM")
    grace = time.monotonic() + CHILD_EXIT_GRACE_S
    alive = dict(kids)
    while alive and time.monotonic() < grace:
        time.sleep(0.05)
        alive = {pid: t for pid, t in alive.items() if start_time(pid) == t}
    if alive:
        raise SystemExit(
            f"service smoke FAILED: child process(es) {sorted(alive)} "
            "outlived the server"
        )
    print(f"teardown ok: {len(kids)} child process(es) exited with the server")
    print("service smoke PASSED")


if __name__ == "__main__":
    main()
