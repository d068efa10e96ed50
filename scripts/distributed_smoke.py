"""CI smoke test for the distributed worker plane.

Boots ``repro serve --workers --trace`` on an ephemeral port as a real
subprocess, registers two real ``repro worker --slots 2`` subprocesses
against it, drives a fixed-seed ``repro loadtest`` at the service, and
SIGKILLs one worker as soon as ``GET /v1/workers`` shows it holding a
lease.  Asserts:

* both workers register (observed via ``GET /v1/workers``),
* the kill lands while the loadtest is still running,
* the loadtest exits 0 with every SLO met despite the mid-run kill,
* the service actually dispatched chunks remotely
  (``repro_dispatch_remote_chunks_total`` > 0 on ``/metrics``),
* the killed worker's lease failed over
  (``repro_dispatch_failovers_total`` >= 1 on ``/metrics``),
* SIGTERM drains the server to a clean exit 0,
* the server's span file then validates end to end, with at least one
  ``worker.evaluate`` span (recorded on a worker host and returned in
  its answer) whose parent is an ``engine.map`` span.

Usage: ``PYTHONPATH=src python scripts/distributed_smoke.py``
"""

from __future__ import annotations

import json
import os
import re
import selectors
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

DEADLINE_S = 240.0
READY_PATTERN = re.compile(r"serving on (http://[\w.\-]+:\d+)")

#: Requests per tenant: enough that the load outlasts the kill.
REQUESTS_PER_TENANT = 40


def fail(procs: list[subprocess.Popen], message: str) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
    raise SystemExit(f"distributed smoke FAILED: {message}")


def wait_for_ready(
    proc: subprocess.Popen, procs: list[subprocess.Popen], deadline: float
) -> str:
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    buffered = ""
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            fail(procs, f"process exited early with code {proc.returncode}")
        if selector.select(timeout=1.0):
            line = proc.stdout.readline()
            buffered += line
            match = READY_PATTERN.search(line)
            if match:
                return match.group(1)
    fail(procs, f"no readiness line within deadline; output: {buffered!r}")
    raise AssertionError("unreachable")


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def metric(metrics_text: str, name: str) -> float:
    match = re.search(rf"^{name}\s+(\S+)", metrics_text, re.M)
    return float(match.group(1)) if match else 0.0


def check_trace(procs: list[subprocess.Popen], path: Path) -> None:
    """The drained server's spans form valid trees, and remote worker
    spans hang under the engine maps that leased their chunks."""
    from repro.errors import ObservabilityError
    from repro.obs.schema import read_records
    from repro.obs.stitch import validate_parentage

    try:
        records = read_records(path)
        validate_parentage(records)
    except ObservabilityError as exc:
        fail(procs, f"the server's trace is not one valid tree per trace: {exc}")
    spans = [r for r in records if r["record"] == "span"]
    maps = {s["id"] for s in spans if s["name"] == "engine.map"}
    remote = [
        s for s in spans if s["name"] == "worker.evaluate" and s["parent"] in maps
    ]
    if not remote:
        fail(procs, "no worker.evaluate span sits under an engine.map span")
    print(
        f"trace: {len(remote)} worker.evaluate span(s) under engine.map "
        f"in {len(records)} record(s)"
    )


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-distributed-smoke-") as tmp:
        run(Path(tmp) / "serve.jsonl")


def run(trace_path: Path) -> None:
    deadline = time.monotonic() + DEADLINE_S

    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONUNBUFFERED"] = "1"

    procs: list[subprocess.Popen] = []
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--jobs", "2", "--workers", "--trace", str(trace_path),
            "--quota-burst", "64", "--quota-rate", "1000",
            "--quota-inflight", "64",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    procs.append(server)
    url = wait_for_ready(server, procs, deadline)
    print(f"service up at {url}")

    workers = []
    worker_urls = []
    for i in range(2):
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--broker", url, "--port", "0", "--slots", "2",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        procs.append(worker)
        workers.append(worker)
        worker_urls.append(wait_for_ready(worker, procs, deadline))

    while time.monotonic() < deadline:
        roster = get_json(f"{url}/v1/workers")["workers"]
        if len(roster) == 2:
            break
        time.sleep(0.1)
    else:
        fail(procs, "two workers never registered")
    print(f"workers registered: {[w['worker_id'] for w in roster]}")
    # The plane offers a batch's first chunk to the lowest worker id.
    victim_id = roster[0]["worker_id"]
    victim = workers[worker_urls.index(roster[0]["url"])]

    loadtest = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "loadtest", "--url", url,
            "--tenants", "2", "--requests", str(REQUESTS_PER_TENANT),
            "--seed", "0",
            "--warm-fraction", "0.25",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    procs.append(loadtest)

    # SIGKILL the victim once it provably holds a lease: that lease fails
    # over, and the SLO verdict below is the proof the clients never
    # noticed.
    while True:
        if loadtest.poll() is not None:
            fail(procs, f"the loadtest ended before {victim_id} held a lease")
        if time.monotonic() > deadline:
            fail(procs, f"{victim_id} never held a lease")
        roster = get_json(f"{url}/v1/workers")["workers"]
        if any(w["worker_id"] == victim_id and w["leases"] for w in roster):
            break
        time.sleep(0.005)
    victim.kill()
    victim.wait(timeout=10)
    print(f"killed worker {victim_id} while it held a lease")

    output, _ = loadtest.communicate(timeout=max(1.0, deadline - time.monotonic()))
    print(output, end="")
    if loadtest.returncode != 0:
        fail(procs, f"loadtest exited {loadtest.returncode} after the kill")

    with urllib.request.urlopen(f"{url}/metrics", timeout=10) as response:
        metrics_text = response.read().decode("utf-8")
    remote_chunks = metric(metrics_text, "repro_dispatch_remote_chunks_total")
    if remote_chunks <= 0:
        fail(procs, "no chunks were dispatched remotely")
    print(f"remote chunks dispatched: {remote_chunks:.0f}")
    failovers = metric(metrics_text, "repro_dispatch_failovers_total")
    if failovers < 1:
        fail(procs, "killing a leaseholder recorded no lease failover")
    print(f"lease failovers: {failovers:.0f}")

    server.send_signal(signal.SIGTERM)
    try:
        code = server.wait(timeout=45)
    except subprocess.TimeoutExpired:
        fail(procs, "server did not drain within 45s of SIGTERM")
    if code != 0:
        fail(procs, f"drained server exited {code}, expected 0")

    for worker in workers:
        if worker.poll() is None:
            worker.terminate()
            worker.wait(timeout=10)
    check_trace(procs, trace_path)
    print("distributed smoke PASSED")


if __name__ == "__main__":
    main()
