"""Deterministic chaos harness for the crash-safe sweep service.

``repro chaos`` drives the whole robustness story end to end against
real processes and asserts the invariants the service PR promises, with
every fault drawn from a seeded plan so two runs of the same seed
execute the same drill:

**Phase 1 — crash/recovery** (real subprocesses).  Boot ``repro serve``
with a job journal, ack a burst of jobs without waiting, SIGKILL the
server inside the batch window (no cleanup runs), and restart it
against the same journal.  Invariants: the journal replays with zero
corrupt records and a non-empty incomplete set; every pre-crash acked
job reaches a terminal state after recovery; resubmitting the same
requests with the same ``Idempotency-Key`` returns the *original* job
ids (no double evaluation); SIGTERM then drains the second server to a
clean exit 0.

**Phase 2 — circuit breaker** (in-process service thread).  Wrap the
engine so a seeded :class:`~repro.resilience.faults.FaultPlan` fails
the first ``failure_threshold`` batches.  Invariants: the breaker
opens after the planned failures; an open breaker sheds submissions as
``503`` + ``Retry-After``; after the cooldown the probe batch succeeds
and the breaker closes; subsequent work completes.

**Phase 3 — journal corruption** (pure file surgery).  Write a journal,
flip bytes in the middle of one record, and replay.  Invariants:
exactly the damaged line is counted corrupt; every intact record
round-trips; replay still isolates the correct incomplete set.

**Phase 4 — worker SIGKILL** (real ``repro worker`` subprocesses).
Boot a ``--workers`` service, register two workers, submit a batch
whose first chunk hangs under an injected fault (pinning that lease on
the first worker), and SIGKILL the leaseholder mid-batch.  Invariants:
every job still completes; the sweep results are byte-identical to a
single-host baseline of the same requests; exactly one failover was
recorded (the dead worker leaves the roster with its lost lease, so the
chunk is never offered back to it); no chunk was delivered twice.

The harness exits non-zero on the first violated invariant, which is
what CI's ``chaos-smoke`` job gates on.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.types import OptimizationRequest
from repro.dispatch.plane import DispatchPolicy
from repro.engine.engine import EngineStats, ExperimentEngine
from repro.errors import CircuitOpenError, ReproError
from repro.resilience.faults import FaultEvent, FaultPlan
from repro.service.breaker import BreakerPolicy
from repro.service.client import ServiceClient
from repro.service.journal import JobJournal
from repro.service.server import ServiceConfig, ServiceThread

#: The readiness banner ``repro serve`` prints (the smoke scripts parse
#: the same line).
READY_PATTERN = re.compile(r"serving on (http://[\w.\-]+:\d+)")

#: Small sizings keep every chaos evaluation fast.
_N_REFS = 3_000
_WARMUP = 500

#: Batch window of the crash-phase servers: wide enough that jobs acked
#: in quick succession are still queued (not yet batched) when the
#: SIGKILL lands, so the incomplete set is non-empty by construction.
_CRASH_BATCH_WINDOW_S = 0.75


class ChaosError(ReproError):
    """An invariant the chaos drill asserts did not hold."""


@dataclass
class ChaosReport:
    """Everything one ``repro chaos`` run observed, per phase."""

    seed: int
    #: Phase 1: jobs acked before the SIGKILL landed.
    acked_jobs: int = 0
    #: Phase 1: journal's incomplete set at restart.
    incomplete_jobs: int = 0
    #: Phase 1: acked jobs that reached a terminal state after recovery.
    recovered_terminal: int = 0
    #: Phase 1: resubmitted jobs answered with their original job id.
    idempotent_matches: int = 0
    #: Phase 1: second server's exit code after SIGTERM (drain proof).
    drain_exit_code: int | None = None
    #: Phase 2: breaker state trajectory as observed by the drill.
    breaker_states: list[str] = field(default_factory=list)
    #: Phase 2: whether an open breaker shed a submit as 503+Retry-After.
    breaker_shed_observed: bool = False
    #: Phase 3: corrupt lines the replay isolated (must be exactly 1).
    corrupt_records: int = 0
    #: Phase 3: intact records that round-tripped through replay.
    surviving_records: int = 0
    #: Phase 4: jobs submitted to the two-worker service.
    worker_jobs: int = 0
    #: Phase 4: failovers recorded after the leaseholder was SIGKILLed.
    worker_failovers: float = 0.0
    #: Phase 4: chunk results discarded as already delivered (must stay 0).
    worker_duplicates: float = 0.0
    #: Phase 4: drill results byte-identical to the single-host baseline.
    worker_results_identical: bool = False
    #: Invariant violations, in the order they were detected.
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def format_report(report: ChaosReport) -> str:
    lines = [
        f"chaos drill (seed {report.seed})",
        f"  crash/recovery: {report.acked_jobs} acked, "
        f"{report.incomplete_jobs} incomplete at restart, "
        f"{report.recovered_terminal} terminal after recovery, "
        f"{report.idempotent_matches} idempotent matches, "
        f"drain exit {report.drain_exit_code}",
        f"  breaker: states {' -> '.join(report.breaker_states) or '(none)'}, "
        f"shed observed: {report.breaker_shed_observed}",
        f"  journal corruption: {report.corrupt_records} corrupt, "
        f"{report.surviving_records} survived",
        f"  worker kill: {report.worker_jobs} jobs, "
        f"{report.worker_failovers:.0f} failover(s), "
        f"{report.worker_duplicates:.0f} duplicate(s), "
        f"byte-identical: {report.worker_results_identical}",
    ]
    if report.violations:
        lines.append("violated invariants:")
        lines.extend(f"  - {v}" for v in report.violations)
        lines.append("chaos FAILED")
    else:
        lines.append("all invariants held: chaos PASSED")
    return "\n".join(lines)


def _chaos_request(seed: int, index: int) -> OptimizationRequest:
    """Distinct-but-deterministic cells: one per (seed, index)."""
    workloads = ("compress", "li", "ijpeg")
    return OptimizationRequest(
        "dcache",
        workloads[index % len(workloads)],
        tenant=f"chaos-{seed}",
        n_refs=_N_REFS + 100 * (index // len(workloads)),
        warmup_refs=_WARMUP,
    )


# ---------------------------------------------------------------------------
# phase 1: SIGKILL mid-window, restart, recover, idempotent resubmit
# ---------------------------------------------------------------------------


def _spawn_server(journal: Path, cache_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    src_root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--jobs", "1",
            "--cache-dir", str(cache_dir),
            "--job-journal", str(journal),
            "--batch-window", str(_CRASH_BATCH_WINDOW_S),
            "--quota-burst", "64", "--quota-rate", "1000",
            "--quota-inflight", "64",
            "--drain-timeout", "30",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _wait_ready(proc: subprocess.Popen, timeout_s: float = 60.0) -> str:
    selector = selectors.DefaultSelector()
    assert proc.stdout is not None
    selector.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + timeout_s
    buffered = ""
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise ChaosError(
                f"server exited early with code {proc.returncode}; "
                f"output: {buffered!r}"
            )
        if selector.select(timeout=1.0):
            line = proc.stdout.readline()
            buffered += line
            match = READY_PATTERN.search(line)
            if match:
                return match.group(1)
    raise ChaosError(f"server not ready within {timeout_s}s: {buffered!r}")


def _kill_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)


def _run_crash_phase(
    report: ChaosReport, workdir: Path, n_jobs: int = 4
) -> None:
    journal = workdir / "jobs.journal.jsonl"
    cache_dir = workdir / "cache"
    seed = report.seed

    proc = _spawn_server(journal, cache_dir)
    acked: list[tuple[str, int]] = []  # (job_id, request index)
    try:
        url = _wait_ready(proc)
        client = ServiceClient(url, timeout_s=60.0)
        for i in range(n_jobs):
            status = client.submit(
                _chaos_request(seed, i),
                wait=False,
                idempotency_key=f"chaos-{seed}-{i}",
            )
            acked.append((status.job_id, i))
        report.acked_jobs = len(acked)
        # SIGKILL inside the batch window: the jobs are acked (their
        # admit records fsynced) but not yet terminal.  No cleanup runs.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        _kill_server(proc)

    replay = JobJournal(journal).replay()
    report.incomplete_jobs = len(replay.incomplete)
    if replay.n_corrupt:
        report.violations.append(
            f"crash: journal replay found {replay.n_corrupt} corrupt "
            "record(s); fsynced admits must survive SIGKILL intact"
        )
    if not replay.incomplete:
        report.violations.append(
            "crash: no incomplete jobs in the journal — the SIGKILL "
            "missed the batch window, so recovery was never exercised"
        )
    incomplete_ids = {j.job_id for j in replay.incomplete}
    acked_ids = {job_id for job_id, _ in acked}
    if not incomplete_ids <= acked_ids:
        report.violations.append(
            f"crash: journal resurrected unknown job ids "
            f"{sorted(incomplete_ids - acked_ids)}"
        )

    # Restart against the same journal and cache: every acked job must
    # reach a terminal state without being resubmitted.
    proc = _spawn_server(journal, cache_dir)
    try:
        url = _wait_ready(proc)
        client = ServiceClient(url, timeout_s=60.0)
        for job_id, _ in acked:
            try:
                status = client.wait(job_id, timeout_s=60.0)
            except ReproError as exc:
                report.violations.append(
                    f"crash: acked job {job_id} was lost after "
                    f"recovery: {exc}"
                )
                continue
            if status.state.is_terminal():
                report.recovered_terminal += 1
            else:
                report.violations.append(
                    f"crash: job {job_id} never reached a terminal "
                    f"state (stuck {status.state.value})"
                )
        # Idempotent resubmission: the same Idempotency-Key must map to
        # the original job — never admit (and never evaluate) a twin.
        for job_id, i in acked:
            status = client.submit(
                _chaos_request(seed, i),
                wait=False,
                idempotency_key=f"chaos-{seed}-{i}",
            )
            if status.job_id == job_id:
                report.idempotent_matches += 1
            else:
                report.violations.append(
                    f"crash: resubmitting job {job_id}'s request created "
                    f"a duplicate job {status.job_id}"
                )
        # Graceful drain: SIGTERM must finish in-flight work and exit 0.
        proc.send_signal(signal.SIGTERM)
        try:
            report.drain_exit_code = proc.wait(timeout=45)
        except subprocess.TimeoutExpired:
            report.violations.append(
                "crash: server did not drain and exit within 45s of SIGTERM"
            )
        else:
            if report.drain_exit_code != 0:
                report.violations.append(
                    "crash: drained server exited "
                    f"{report.drain_exit_code}, expected 0"
                )
    finally:
        _kill_server(proc)


# ---------------------------------------------------------------------------
# phase 2: breaker opens under planned failures, sheds, probes, closes
# ---------------------------------------------------------------------------


class _FlakyEngine:
    """Duck-typed engine whose first batches fail per a seeded plan.

    The service only needs ``map``, ``stats`` and ``close``; failures
    come from the fault plan's ``transient`` events keyed by *batch
    index* (each broker batch is one ``map`` call), so the failure
    schedule is a pure function of the seed.
    """

    def __init__(self, inner: ExperimentEngine, plan: FaultPlan) -> None:
        self._inner = inner
        self._plan = plan
        self._batches = 0

    @property
    def stats(self) -> EngineStats:
        return self._inner.stats

    def map(self, cells, deadline_s: float | None = None) -> list[dict]:
        index = self._batches
        self._batches += 1
        self._plan.fire(index, 0, serial=True)
        return self._inner.map(cells, deadline_s=deadline_s)

    def close(self) -> None:
        self._inner.close()


def _run_breaker_phase(report: ChaosReport) -> None:
    seed = report.seed
    policy = BreakerPolicy(failure_threshold=2, reset_timeout_s=0.5)
    plan = FaultPlan(
        events=tuple(
            FaultEvent("transient", chunk=i)
            for i in range(policy.failure_threshold)
        )
    )
    flaky = _FlakyEngine(ExperimentEngine(), plan)
    config = ServiceConfig(
        port=0,
        batch_window_s=0.0,
        breaker=policy,
        wait_timeout_s=30.0,
    )
    with ServiceThread(flaky, config) as thread:  # type: ignore[arg-type]
        broker = thread.service.broker
        client = ServiceClient(thread.url, timeout_s=30.0)
        report.breaker_states.append(broker.breaker.state)
        # Each failed batch fails its job; threshold batches trip it.
        for i in range(policy.failure_threshold):
            status = client.submit(_chaos_request(seed, i), wait=True)
            if status.state.value != "failed":
                report.violations.append(
                    f"breaker: planned batch failure {i} did not fail "
                    f"its job (state {status.state.value})"
                )
        report.breaker_states.append(broker.breaker.state)
        if broker.breaker.state != "open":
            report.violations.append(
                "breaker: did not open after "
                f"{policy.failure_threshold} consecutive batch failures "
                f"(state {broker.breaker.state})"
            )
        # An open breaker sheds: 503 + Retry-After as CircuitOpenError.
        try:
            client.submit(_chaos_request(seed, 90), wait=False)
        except CircuitOpenError as exc:
            report.breaker_shed_observed = exc.retry_after_s > 0
        except ReproError as exc:
            report.violations.append(
                f"breaker: open breaker answered {type(exc).__name__} "
                "instead of 503 + Retry-After"
            )
        else:
            report.violations.append(
                "breaker: open breaker admitted a submission"
            )
        # After the cooldown the probe batch flows through the (now
        # fault-free) engine, and success closes the breaker.
        time.sleep(policy.reset_timeout_s + 0.05)
        status = client.submit(_chaos_request(seed, 91), wait=True)
        report.breaker_states.append(broker.breaker.state)
        if status.state.value != "done":
            report.violations.append(
                "breaker: probe job after cooldown did not complete "
                f"(state {status.state.value})"
            )
        if broker.breaker.state != "closed":
            report.violations.append(
                "breaker: did not close after a successful probe "
                f"(state {broker.breaker.state})"
            )


# ---------------------------------------------------------------------------
# phase 3: corrupt one journal record, replay must survive
# ---------------------------------------------------------------------------


def _run_corruption_phase(report: ChaosReport, workdir: Path) -> None:
    seed = report.seed
    path = workdir / "corrupt.journal.jsonl"
    journal = JobJournal(path)
    requests = [_chaos_request(seed, i) for i in range(3)]
    for i, request in enumerate(requests):
        journal.record_admit(
            f"job-{i}", request.tenant, f"key-{i}", request,
            idempotency_key=f"c-{i}",
        )
    journal.record_done("job-0", source="computed")

    # Flip bytes in the middle of the second admit record (line 2):
    # deterministic surgery, no randomness needed.
    lines = path.read_text(encoding="utf-8").splitlines()
    target = lines[1]
    lines[1] = target[: len(target) // 2] + "\x00!corrupt!" + target[len(target) // 2 :]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    replay = journal.replay()
    report.corrupt_records = replay.n_corrupt
    report.surviving_records = replay.n_records
    if replay.n_corrupt != 1:
        report.violations.append(
            f"corruption: expected exactly 1 corrupt line, replay "
            f"counted {replay.n_corrupt}"
        )
    incomplete_ids = {j.job_id for j in replay.incomplete}
    if incomplete_ids != {"job-2"}:
        report.violations.append(
            "corruption: replay should recover exactly job-2 (job-0 is "
            f"done, job-1 is the damaged line), got {sorted(incomplete_ids)}"
        )
    if replay.idempotency.get(f"chaos-{seed}:c-2") != "job-2":
        report.violations.append(
            "corruption: intact idempotency mapping did not round-trip"
        )
    survivor = next(j for j in replay.incomplete if j.job_id == "job-2")
    if survivor.request != requests[2]:
        report.violations.append(
            "corruption: surviving admit record did not round-trip its "
            "request verbatim"
        )


# ---------------------------------------------------------------------------
# phase 4: SIGKILL a worker holding a lease mid-batch
# ---------------------------------------------------------------------------


def _spawn_worker(broker_url: str) -> subprocess.Popen:
    env = dict(os.environ)
    src_root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--broker", broker_url, "--port", "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _run_worker_phase(report: ChaosReport, n_jobs: int = 4) -> None:
    import json

    from repro.obs.metrics import metrics

    seed = report.seed
    requests = [_chaos_request(seed, 10 + i) for i in range(n_jobs)]

    # Single-host baseline first: the same requests, no worker plane.
    baseline: list[dict] = []
    with ServiceThread(
        ExperimentEngine(), ServiceConfig(port=0, batch_window_s=0.0)
    ) as thread:
        client = ServiceClient(thread.url, timeout_s=60.0)
        for request in requests:
            status = client.submit(request, wait=True)
            if status.state.value != "done":
                report.violations.append(
                    "worker: baseline job did not complete "
                    f"(state {status.state.value})"
                )
                return
            baseline.append(status.result.to_dict())

    # The drill: chunk 0's first attempt hangs under the injected
    # fault, which pins that lease on the first-registered worker long
    # enough to SIGKILL it deterministically mid-batch.  The generous
    # lease ensures the recorded failover can only come from the kill
    # itself.
    plan = FaultPlan(
        events=(FaultEvent("hang", chunk=0, attempt=0, hang_s=30.0),)
    )
    engine = ExperimentEngine(jobs=2, chunk_size=1, fault_plan=plan)
    config = ServiceConfig(
        port=0,
        batch_window_s=_CRASH_BATCH_WINDOW_S,
        workers=True,
        dispatch=DispatchPolicy(
            lease_s=60.0,
            heartbeat_interval_s=0.25,
            heartbeat_timeout_s=1.5,
        ),
    )
    failovers = metrics().counter("repro_dispatch_failovers_total")
    duplicates = metrics().counter("repro_dispatch_duplicate_results_total")
    failovers_before = failovers.value()
    duplicates_before = duplicates.value()
    workers: list[subprocess.Popen] = []
    results: list[dict] = []
    try:
        with ServiceThread(engine, config) as thread:
            registry = thread.service.plane.registry
            for i in range(2):
                workers.append(_spawn_worker(thread.url))
                deadline = time.monotonic() + 30.0
                while len(registry.workers()) < i + 1:
                    if time.monotonic() > deadline:
                        raise ChaosError(
                            f"worker {i} did not register within 30s"
                        )
                    time.sleep(0.05)
            # Chunk 0 is always offered to the lowest-id idle worker,
            # which is the first registration: workers[0].
            victim_id = registry.workers()[0].worker_id
            client = ServiceClient(thread.url, timeout_s=60.0)
            acked = [
                client.submit(request, wait=False).job_id
                for request in requests
            ]
            report.worker_jobs = len(acked)
            # SIGKILL lands only once the victim provably holds its
            # (hung) lease — mid-batch by construction.
            deadline = time.monotonic() + 30.0
            while True:
                victim = next(
                    (
                        w for w in registry.workers()
                        if w.worker_id == victim_id
                    ),
                    None,
                )
                if victim is not None and victim.leases:
                    break
                if time.monotonic() > deadline:
                    raise ChaosError(
                        "the first worker never took a lease within 30s"
                    )
                time.sleep(0.02)
            workers[0].send_signal(signal.SIGKILL)
            workers[0].wait(timeout=10)
            for job_id in acked:
                status = client.wait(job_id, timeout_s=60.0)
                if status.state.value != "done":
                    report.violations.append(
                        f"worker: job {job_id} did not complete after "
                        f"the SIGKILL (state {status.state.value})"
                    )
                    return
                results.append(status.result.to_dict())
    finally:
        for proc in workers:
            _kill_server(proc)

    report.worker_failovers = failovers.value() - failovers_before
    report.worker_duplicates = duplicates.value() - duplicates_before
    report.worker_results_identical = (
        json.dumps(results, sort_keys=True)
        == json.dumps(baseline, sort_keys=True)
    )
    if not report.worker_results_identical:
        report.violations.append(
            "worker: sweep results after the mid-batch SIGKILL differ "
            "from the single-host baseline"
        )
    if report.worker_failovers != 1:
        report.violations.append(
            "worker: SIGKILLing a leaseholder recorded "
            f"{report.worker_failovers:.0f} failover(s), expected exactly 1"
        )
    if report.worker_duplicates:
        report.violations.append(
            f"worker: {report.worker_duplicates:.0f} chunk(s) completed "
            "twice; a chunk must hold at most one lease at a time"
        )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_chaos(seed: int = 0, workdir: str | Path | None = None) -> ChaosReport:
    """Run the full four-phase drill; see the module docstring.

    ``workdir`` holds the journals, cache and scratch files; a
    temporary directory is used when not given, removed after a pass
    and kept for post-mortems on failure.
    """
    import shutil
    import tempfile

    report = ChaosReport(seed=seed)
    base = (
        Path(workdir)
        if workdir is not None
        else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    )
    base.mkdir(parents=True, exist_ok=True)
    try:
        _run_crash_phase(report, base)
    except ReproError as exc:
        report.violations.append(f"crash phase aborted: {exc}")
    try:
        _run_breaker_phase(report)
    except ReproError as exc:
        report.violations.append(f"breaker phase aborted: {exc}")
    try:
        _run_corruption_phase(report, base)
    except ReproError as exc:
        report.violations.append(f"corruption phase aborted: {exc}")
    try:
        _run_worker_phase(report)
    except ReproError as exc:
        report.violations.append(f"worker phase aborted: {exc}")
    if workdir is None and report.passed:
        shutil.rmtree(base, ignore_errors=True)
    return report
