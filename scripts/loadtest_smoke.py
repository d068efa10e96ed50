"""CI smoke test for the load/SLO harness and distributed tracing.

Boots ``repro serve`` on an ephemeral port as a real subprocess (with
``--trace`` so the server writes its span file), runs a small
fixed-seed ``repro loadtest`` against it, and asserts:

* the loadtest exits 0 with every SLO met,
* after a clean shutdown the server's trace validates end to end and
  the probe request's trace id, read from the printed report, names
  one stitched span tree covering HTTP request -> queue wait -> batch
  -> engine map -> worker cell evaluation, with >= 95% of its wall
  time attributed by ``repro obs critical-path``.

The scratch directory is removed after a pass and kept on a failure.

Usage: ``PYTHONPATH=src python scripts/loadtest_smoke.py``
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DEADLINE_S = 180.0
READY_PATTERN = re.compile(r"serving on (http://[\w.\-]+:\d+)")


def fail(proc: subprocess.Popen, message: str) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
    raise SystemExit(f"loadtest smoke FAILED: {message}")


def wait_for_ready(proc: subprocess.Popen, deadline: float) -> str:
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
    tmp = Path(tempfile.mkdtemp(prefix="repro-loadtest-smoke-"))
    trace_path = tmp / "serve-trace.jsonl"

    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--jobs", "1", "--trace", str(trace_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    url = wait_for_ready(proc, deadline)
    print(f"service up at {url}")

    from repro.cli import main as repro_main

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        rc = repro_main([
            "loadtest", "--url", url, "--tenants", "2", "--requests", "3",
            "--seed", "0",
        ])
    print(report.getvalue(), end="")
    if rc != 0:
        fail(proc, f"repro loadtest exited {rc} (SLO violation or error)")
    match = re.search(r"probe trace id: (\S+)", report.getvalue())
    if match is None:
        fail(proc, "probe request did not yield a trace id")
    probe = match.group(1)

    # SIGINT lands in run_service's KeyboardInterrupt handler, so the
    # tracer's ExitStack closes and the span file is fully flushed.
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=20)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise SystemExit("loadtest smoke FAILED: server ignored SIGINT")

    from repro.obs import read_records
    from repro.obs.critical import critical_path
    from repro.obs.stitch import validate_parentage

    records = read_records(trace_path)
    validate_parentage(records)
    names = {
        r["name"]
        for r in records
        if r["record"] == "span" and r["trace_id"] == probe
    }
    needed = {
        "service.request", "service.queue_wait", "broker.batch",
        "engine.map", "engine.worker", "cell.evaluate",
    }
    if not needed <= names:
        raise SystemExit(
            f"loadtest smoke FAILED: probe trace missing spans "
            f"{sorted(needed - names)}"
        )
    report = critical_path(records, trace_id=probe)
    if report.coverage < 0.95:
        raise SystemExit(
            f"loadtest smoke FAILED: critical path attributed only "
            f"{report.coverage:.1%} of the probe's wall time"
        )
    print(
        f"trace ok: {len(records)} records validated, probe tree complete, "
        f"{report.coverage:.1%} of {report.total_s * 1e3:.1f} ms attributed"
    )
    shutil.rmtree(tmp, ignore_errors=True)
    print("loadtest smoke PASSED")


if __name__ == "__main__":
    main()
