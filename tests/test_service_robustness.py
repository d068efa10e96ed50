"""Crash-safety, deadlines and overload behaviour of the sweep service.

The acceptance story of the robustness PR:

* the job journal is a real WAL — fsynced admits survive SIGKILL, torn
  tails and corrupt lines are skipped (never fatal), replay isolates
  exactly the incomplete jobs and the idempotency map;
* a killed-mid-batch server, restarted against the same journal,
  finishes every job it acked before dying (the real subprocess drill);
* ``Idempotency-Key`` maps retried POSTs to the original job;
* ``deadline_s`` propagates end to end and an expired job answers 504;
* the circuit breaker trips on consecutive batch failures, sheds with
  503 + ``Retry-After``, probes after the cooldown, and closes —
  while warm hits keep being served;
* the job table's hard cap turns unbounded open-job growth into 429
  backpressure;
* a ``repro worker`` SIGKILLed while it holds a lease costs exactly one
  failover, no duplicate result and no changed byte (real processes);
* shutdown drains within its budget and fails (never hangs) leftovers.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import OptimizationRequest
from repro.dispatch import DispatchPolicy
from repro.engine.engine import ExperimentEngine
from repro.errors import (
    ApiError,
    CircuitOpenError,
    DeadlineExceededError,
    QuotaExceededError,
    ServiceError,
    ServiceOverloadedError,
    TransientError,
)
from repro.obs.metrics import metrics
from repro.resilience import FaultEvent, FaultPlan, RetryPolicy
from repro.service import (
    BreakerPolicy,
    CircuitBreaker,
    JobJournal,
    QuotaPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    SweepBroker,
)
from repro.service.jobs import Job, JobStore, new_job_id

N_REFS = 3_000
WARMUP = 500


def tiny_request(tenant="anonymous", workload="compress", **kwargs):
    kwargs.setdefault("n_refs", N_REFS)
    kwargs.setdefault("warmup_refs", WARMUP)
    return OptimizationRequest("dcache", workload, tenant=tenant, **kwargs)


def run_coro(coro):
    return asyncio.run(coro)


def serve_env():
    """The environment a ``repro serve`` subprocess of this tree needs."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def wait_ready(proc):
    """The URL from a ``repro serve`` subprocess's readiness line."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if "serving on " in line:
            return line.split("serving on ", 1)[1].strip()
        if proc.poll() is not None:
            pytest.fail(f"server exited early: {proc.returncode}")
    pytest.fail("server never became ready")


def wait_until(predicate, what, timeout_s=30.0):
    """Poll ``predicate`` until it holds; fail the test after the timeout."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.02)


def child_pids(pid):
    """The live children of ``pid``, read from every thread's list."""
    found = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        found.update(int(c) for c in (task / "children").read_text().split())
    return found


def is_alive(pid):
    """Whether ``pid`` runs (a zombie has exited and counts as gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


# ---------------------------------------------------------------------------
# job journal: WAL semantics
# ---------------------------------------------------------------------------


class TestJobJournal:
    def test_admit_then_done_is_complete(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        request = tiny_request()
        journal.record_admit("job-1", "t", "key-1", request)
        journal.record_running("job-1")
        journal.record_done("job-1", source="computed")
        replay = journal.replay()
        assert replay.incomplete == ()
        assert replay.n_complete == 1
        assert replay.n_corrupt == 0

    def test_admit_without_terminal_is_incomplete(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        request = tiny_request(workload="li")
        journal.record_admit("job-1", "t", "key-1", request)
        journal.record_admit("job-2", "t", "key-2", tiny_request())
        journal.record_failed("job-2", "boom")
        replay = journal.replay()
        assert [j.job_id for j in replay.incomplete] == ["job-1"]
        # The replayed request round-trips verbatim.
        assert replay.incomplete[0].request == request

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        journal.record_admit("job-1", "t", "key-1", tiny_request())
        with path.open("a") as fh:
            fh.write('{"journal": 1, "event": "admit", "job_id":')  # SIGKILL
        replay = journal.replay()
        assert [j.job_id for j in replay.incomplete] == ["job-1"]
        assert replay.n_corrupt == 1

    def test_foreign_schema_records_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"journal": 999, "event": "admit", "job_id": "x"}\n'
            '{"journal": 1, "event": "bogus", "job_id": "x"}\n'
        )
        replay = JobJournal(path).replay()
        assert replay.incomplete == ()
        assert replay.n_corrupt == 2

    def test_idempotency_map_round_trips(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record_admit(
            "job-1", "acme", "key-1", tiny_request(), idempotency_key="k1"
        )
        journal.record_admit("job-2", "acme", "key-2", tiny_request())
        replay = journal.replay()
        assert replay.idempotency == {"acme:k1": "job-1"}

    def test_duplicate_admits_collapse_to_first(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record_admit("job-1", "a", "key-1", tiny_request())
        journal.record_admit("job-1", "b", "key-2", tiny_request())
        replay = journal.replay()
        assert len(replay.incomplete) == 1
        assert replay.incomplete[0].tenant == "a"

    def test_missing_file_is_empty_journal(self, tmp_path):
        replay = JobJournal(tmp_path / "absent.jsonl").replay()
        assert replay.incomplete == () and replay.n_records == 0

    def test_damaged_record_costs_only_its_own_job(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        requests = [
            tiny_request(tenant="acme", workload=w)
            for w in ("compress", "li", "ijpeg")
        ]
        for i, request in enumerate(requests):
            journal.record_admit(
                f"job-{i}", "acme", f"key-{i}", request,
                idempotency_key=f"c-{i}",
            )
        journal.record_done("job-0", source="computed")
        # Flip bytes in the middle of the second admit record.
        lines = path.read_text(encoding="utf-8").splitlines()
        middle = len(lines[1]) // 2
        lines[1] = lines[1][:middle] + "\x00!corrupt!" + lines[1][middle:]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        replay = journal.replay()
        assert replay.n_corrupt == 1
        assert [j.job_id for j in replay.incomplete] == ["job-2"]
        assert replay.idempotency["acme:c-2"] == "job-2"
        assert replay.incomplete[0].request == requests[2]


# ---------------------------------------------------------------------------
# circuit breaker: the state machine, driven by a fake clock
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=3, reset=5.0):
        now = [0.0]
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=threshold, reset_timeout_s=reset),
            clock=lambda: now[0],
        )
        return breaker, now

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # streak broken: 1, not 2

    def test_open_breaker_sheds_with_remaining_cooldown(self):
        breaker, now = self.make(threshold=1, reset=5.0)
        breaker.record_failure()
        now[0] = 2.0
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.admit()
        assert excinfo.value.retry_after_s == pytest.approx(3.0)

    def test_cooldown_admits_a_probe_as_half_open(self):
        breaker, now = self.make(threshold=1, reset=5.0)
        breaker.record_failure()
        now[0] = 5.0
        breaker.admit()  # does not raise: the probe flows through
        assert breaker.state == "half_open"

    def test_successful_probe_closes(self):
        breaker, now = self.make(threshold=1, reset=1.0)
        breaker.record_failure()
        now[0] = 1.0
        breaker.admit()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        breaker, now = self.make(threshold=3, reset=5.0)
        for _ in range(3):
            breaker.record_failure()
        now[0] = 5.0
        breaker.admit()
        breaker.record_failure()  # a single half-open failure re-trips
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.admit()  # cooldown restarted at t=5

    def test_policy_validation(self):
        with pytest.raises(ServiceError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ServiceError):
            BreakerPolicy(reset_timeout_s=0.0)


# ---------------------------------------------------------------------------
# job table hard cap: overload is 429 backpressure, not growth
# ---------------------------------------------------------------------------


class TestJobTableCap:
    def open_job(self):
        return Job(
            job_id=new_job_id(),
            tenant="t",
            request=tiny_request(),
            cell_key="k",
        )

    def test_open_jobs_hit_the_hard_cap(self):
        store = JobStore(retain=1, max_jobs=3)
        for _ in range(3):
            store.add(self.open_job())
        with pytest.raises(ServiceOverloadedError) as excinfo:
            store.reserve()
        assert excinfo.value.retry_after_s > 0
        # ServiceOverloadedError IS QuotaExceededError, so the HTTP
        # layer's existing 429 + Retry-After branch handles it.
        assert isinstance(excinfo.value, QuotaExceededError)

    def test_terminal_jobs_are_evicted_to_make_room(self):
        store = JobStore(retain=1, max_jobs=2)
        done = self.open_job()
        store.add(done)
        done.complete({}, source="warm")
        store.note_closed(done)
        store.add(self.open_job())
        store.reserve()  # trims the terminal job instead of raising
        assert len(store) < store.max_jobs

    def test_open_job_accounting(self):
        store = JobStore(retain=2, max_jobs=4)
        job = self.open_job()
        store.add(job)
        assert store.open_jobs() == 1
        job.fail("x")
        store.note_closed(job)
        assert store.open_jobs() == 0

    def test_broker_rejects_when_table_is_full(self):
        async def drill():
            broker = SweepBroker(
                engine=ExperimentEngine(),
                quota_policy=QuotaPolicy(burst=64, max_inflight=64),
                batch_window_s=30.0,  # jobs stay queued for the test
                jobs_retain=1,
                max_jobs=1,
            )
            await broker.start()
            try:
                await broker.submit(tiny_request())
                with pytest.raises(ServiceOverloadedError):
                    await broker.submit(tiny_request(workload="li"))
            finally:
                await broker.close(drain_s=0.1)

        run_coro(drill())


# ---------------------------------------------------------------------------
# deadlines: validation, propagation, 504
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_deadline_must_be_positive(self):
        with pytest.raises(ApiError):
            tiny_request(deadline_s=0)
        with pytest.raises(ApiError):
            tiny_request(deadline_s=-1.5)

    def test_deadline_is_normalised_to_float(self):
        request = tiny_request(deadline_s=5)
        assert request.deadline_s == 5.0
        assert isinstance(request.deadline_s, float)

    def test_deadline_not_part_of_cell_identity(self):
        with_deadline = tiny_request(deadline_s=5.0)
        without = tiny_request()
        assert with_deadline.cache_identity() == without.cache_identity()

    def test_expired_job_answers_504(self):
        # A deadline far smaller than the batch window expires while
        # queued; the fail-fast path must answer 504 without spending
        # any engine time on it.
        engine = ExperimentEngine()
        config = ServiceConfig(batch_window_s=0.3)
        with ServiceThread(engine, config) as thread:
            client = ServiceClient(thread.url)
            with pytest.raises(DeadlineExceededError):
                client.submit(tiny_request(deadline_s=0.01), wait=True)
        assert engine.stats.cache_misses == 0

    def test_deadline_header_sets_the_budget(self):
        config = ServiceConfig(batch_window_s=0.3)
        with ServiceThread(ExperimentEngine(), config) as thread:
            client = ServiceClient(thread.url)
            status, _, _ = client._request(
                "POST",
                "/v1/optimize?wait=1",
                tiny_request().to_dict(),
                extra_headers={"X-Repro-Deadline": "0.01"},
            )
            assert status == 504

    def test_malformed_deadline_header_is_400(self):
        with ServiceThread(ExperimentEngine(), ServiceConfig()) as thread:
            client = ServiceClient(thread.url)
            status, _, document = client._request(
                "POST",
                "/v1/optimize",
                tiny_request().to_dict(),
                extra_headers={"X-Repro-Deadline": "soonish"},
            )
            assert status == 400
            assert "X-Repro-Deadline" in document["error"]

    def test_generous_deadline_completes_normally(self):
        with ServiceThread(ExperimentEngine(), ServiceConfig()) as thread:
            client = ServiceClient(thread.url)
            status = client.submit(tiny_request(deadline_s=60.0), wait=True)
            assert status.state.value == "done"

    def test_deadline_passing_in_the_pool_ends_the_map(self):
        # A cold iqueue cell sized to run well past its 0.3 s budget:
        # the engine stops waiting when the deadline passes and drops
        # the pool, with no respawn, re-run or serial fallback.  A job
        # sharing the batch without a deadline is re-queued and served.
        names = (
            "repro_engine_chunk_timeouts_total",
            "repro_engine_pool_respawns_total",
            "repro_engine_serial_fallbacks_total",
        )

        def counts():
            return [metrics().counter(name).value() for name in names]

        engine = ExperimentEngine(pooled=True)
        # The window puts both jobs in one batch.
        config = ServiceConfig(batch_window_s=0.1)
        with ServiceThread(engine, config) as thread:
            client = ServiceClient(thread.url)
            client.submit(tiny_request(), wait=True)  # boots the pool
            pool = engine._pool._executor
            before = counts()
            patient = client.submit(tiny_request(workload="li"), wait=False)
            late = OptimizationRequest(
                "iqueue", "swim", n_instructions=400_000, deadline_s=0.3
            )
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                client.submit(late, wait=True)
            assert time.monotonic() - start < 1.0
            patient = client.wait(patient.job_id, 60)
            assert patient.state.value == "done"
            assert patient.attempts == 2  # in the late job's batch, then alone
            assert [a - b for a, b in zip(counts(), before)] == [1, 0, 0]
            assert thread.service.broker.breaker.state == "closed"
            status = client.submit(tiny_request(workload="ijpeg"), wait=True)
            assert status.state.value == "done"
            assert engine._pool._executor not in (None, pool)


# ---------------------------------------------------------------------------
# idempotency keys
# ---------------------------------------------------------------------------


class TestIdempotency:
    def test_same_key_returns_the_original_job(self):
        with ServiceThread(ExperimentEngine(), ServiceConfig()) as thread:
            client = ServiceClient(thread.url)
            first = client.submit(
                tiny_request(), wait=True, idempotency_key="retry-1"
            )
            second = client.submit(
                tiny_request(), wait=False, idempotency_key="retry-1"
            )
            assert second.job_id == first.job_id

    def test_keys_are_tenant_scoped(self):
        with ServiceThread(ExperimentEngine(), ServiceConfig()) as thread:
            client = ServiceClient(thread.url)
            a = client.submit(
                tiny_request(tenant="a"), wait=True, idempotency_key="k"
            )
            b = client.submit(
                tiny_request(tenant="b"), wait=True, idempotency_key="k"
            )
            assert a.job_id != b.job_id

    def test_without_key_every_post_is_a_new_job(self):
        with ServiceThread(ExperimentEngine(), ServiceConfig()) as thread:
            client = ServiceClient(thread.url)
            first = client.submit(tiny_request(), wait=True)
            second = client.submit(tiny_request(), wait=True)
            assert first.job_id != second.job_id  # warm-served, still new


# ---------------------------------------------------------------------------
# circuit breaker over HTTP: shed, probe, recover; warm hits still served
# ---------------------------------------------------------------------------


class _FailingNTimesEngine:
    """Duck-typed engine: the first ``n`` map calls raise, then delegate."""

    def __init__(self, n, error=None):
        self._inner = ExperimentEngine()
        self.failures_left = n
        self.error = error or TransientError("injected batch failure")

    @property
    def stats(self):
        return self._inner.stats

    def map(self, cells, deadline_s=None):
        if self.failures_left > 0:
            self.failures_left -= 1
            raise self.error
        return self._inner.map(cells, deadline_s=deadline_s)

    def close(self):
        self._inner.close()


class TestBreakerOverHttp:
    def test_open_breaker_sheds_and_recovers(self):
        config = ServiceConfig(
            batch_window_s=0.0,
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout_s=0.3),
        )
        engine = _FailingNTimesEngine(2)
        with ServiceThread(engine, config) as thread:
            broker = thread.service.broker
            client = ServiceClient(thread.url)
            for i, workload in enumerate(("compress", "li")):
                status = client.submit(tiny_request(workload=workload), wait=True)
                assert status.state.value == "failed"
            assert broker.breaker.state == "open"
            with pytest.raises(CircuitOpenError) as excinfo:
                client.submit(tiny_request(workload="ijpeg"), wait=False)
            assert excinfo.value.retry_after_s > 0
            time.sleep(0.35)
            status = client.submit(tiny_request(workload="ijpeg"), wait=True)
            assert status.state.value == "done"
            assert broker.breaker.state == "closed"

    def test_an_engine_side_shed_fails_the_batch_like_any_error(self):
        # The broker re-runs nothing: an engine that sheds is a failing
        # engine, and the broker's own breaker counts it.
        config = ServiceConfig(
            batch_window_s=0.0,
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout_s=60.0),
        )
        engine = _FailingNTimesEngine(
            1, CircuitOpenError("engine shedding", retry_after_s=0.05)
        )
        with ServiceThread(engine, config) as thread:
            status = ServiceClient(thread.url).submit(tiny_request(), wait=True)
            assert status.state.value == "failed"
            assert "CircuitOpenError" in (status.error or "")
            assert thread.service.broker.breaker.state == "open"

    def test_warm_hits_are_served_while_open(self):
        config = ServiceConfig(
            batch_window_s=0.0,
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout_s=60.0),
        )
        engine = _FailingNTimesEngine(0)
        with ServiceThread(engine, config) as thread:
            client = ServiceClient(thread.url)
            client.submit(tiny_request(), wait=True)  # warms the store
            thread.service.broker.breaker.record_failure()  # trip it
            assert thread.service.broker.breaker.state == "open"
            warm = client.submit(tiny_request(tenant="other"), wait=True)
            assert warm.source == "warm"
            with pytest.raises(CircuitOpenError):
                client.submit(tiny_request(workload="li"), wait=False)


# ---------------------------------------------------------------------------
# recovery: journal replay resurrects acked work
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_journaled_jobs_recover_in_a_fresh_service(self, tmp_path):
        # Simulate "server died after acking": write admits straight to
        # the journal, then boot a service pointed at it.  The jobs
        # must complete under their original ids without resubmission.
        journal_path = tmp_path / "jobs.jsonl"
        journal = JobJournal(journal_path)
        requests = [
            tiny_request(tenant="acme"),
            tiny_request(tenant="acme", workload="li"),
        ]
        for i, request in enumerate(requests):
            journal.record_admit(
                f"job-pre-{i}", "acme", f"key-{i}", request,
                idempotency_key=f"idem-{i}",
            )
        config = ServiceConfig(journal_path=journal_path)
        with ServiceThread(ExperimentEngine(), config) as thread:
            client = ServiceClient(thread.url)
            for i in range(len(requests)):
                status = client.wait(f"job-pre-{i}", timeout_s=60.0)
                assert status.state.value == "done"
            # And the idempotency map survived the replay too.
            echo = client.submit(
                requests[0], wait=False, idempotency_key="idem-0"
            )
            assert echo.job_id == "job-pre-0"
        replay = JobJournal(journal_path).replay()
        assert replay.incomplete == ()  # terminal records were journaled

    def test_recovery_is_idempotent_against_the_warm_store(self, tmp_path):
        # Recovery re-enters the warm/single-flight ladder: a journal
        # with two incomplete admits of the SAME cell costs at most one
        # evaluation after restart.
        journal_path = tmp_path / "jobs.jsonl"
        journal = JobJournal(journal_path)
        journal.record_admit("job-a", "t", "k", tiny_request())
        journal.record_admit("job-b", "t", "k", tiny_request())
        engine = ExperimentEngine()
        config = ServiceConfig(journal_path=journal_path)
        with ServiceThread(engine, config) as thread:
            client = ServiceClient(thread.url)
            assert client.wait("job-a", timeout_s=60.0).state.value == "done"
            assert client.wait("job-b", timeout_s=60.0).state.value == "done"
        assert engine.stats.cache_misses == 1  # single-flight merged them

    def test_sigkilled_service_recovers_every_acked_job(self, tmp_path):
        # The real thing, mirroring the engine-layer SIGKILL test: a
        # real `repro serve` process is SIGKILLed inside the batch
        # window (no cleanup of any kind runs), restarted against the
        # same journal, and every job it acked reaches a terminal state.
        journal = tmp_path / "jobs.jsonl"
        cache_dir = tmp_path / "cache"
        workloads = ("compress", "li")
        env = serve_env()
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--jobs", "1",
            "--cache-dir", str(cache_dir),
            "--job-journal", str(journal),
            "--batch-window", "1.0",
            "--quota-burst", "64", "--quota-rate", "1000",
        ]
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            url = wait_ready(proc)
            client = ServiceClient(url, timeout_s=30.0)
            acked = [
                client.submit(
                    tiny_request(workload=w), wait=False,
                    idempotency_key=f"crash-{w}",
                ).job_id
                for w in workloads
            ]
            proc.send_signal(signal.SIGKILL)  # inside the batch window
        finally:
            proc.kill()
            proc.wait(timeout=10)

        replay = JobJournal(journal).replay()
        assert replay.n_corrupt == 0  # fsynced admits survive SIGKILL intact
        assert {j.job_id for j in replay.incomplete} == set(acked)

        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            url = wait_ready(proc)
            client = ServiceClient(url, timeout_s=60.0)
            for job_id in acked:
                status = client.wait(job_id, timeout_s=60.0)
                assert status.state.is_terminal()
                assert status.state.value == "done"
            # A retried POST maps to the original job, never to a twin.
            for w, job_id in zip(workloads, acked):
                again = client.submit(
                    tiny_request(workload=w), wait=False,
                    idempotency_key=f"crash-{w}",
                )
                assert again.job_id == job_id
        finally:
            proc.terminate()
            try:
                assert proc.wait(timeout=30) == 0  # graceful drain
            except subprocess.TimeoutExpired:
                proc.kill()
                pytest.fail("server did not drain after SIGTERM")

    @pytest.mark.skipif(
        not Path(f"/proc/{os.getpid()}/task").is_dir(),
        reason="reads child processes from /proc",
    )
    def test_sigkilled_server_leaves_no_pool_worker_behind(self):
        # A worker blocked on its pool's call queue would outlive a
        # SIGKILLed parent forever; each one watches its parent instead.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=serve_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            url = wait_ready(proc)
            status = ServiceClient(url, timeout_s=60.0).submit(
                tiny_request(), wait=True
            )
            assert status.source == "computed"
            workers = [
                pid for pid in child_pids(proc.pid)
                if b"spawn_main" in Path(f"/proc/{pid}/cmdline").read_bytes()
            ]
            assert len(workers) == 1  # --jobs 1: one worker process
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(map(is_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(is_alive, workers))
        finally:
            proc.kill()
            proc.wait(timeout=10)


# ---------------------------------------------------------------------------
# worker plane: a SIGKILLed lease holder costs one failover
# ---------------------------------------------------------------------------


class TestWorkerKill:
    def test_sigkilled_lease_holder_fails_over_once(self):
        # Two real `repro worker` processes serve a workers-enabled
        # service.  Chunk 0's first attempt hangs, which holds its lease
        # on the first-registered worker until that worker is SIGKILLed
        # mid-batch.  The 60 s lease means the one failover can only
        # come from the kill.
        requests = [
            tiny_request(workload=w) for w in ("compress", "li", "ijpeg", "perl")
        ]
        config = ServiceConfig(batch_window_s=0.0)
        with ServiceThread(ExperimentEngine(), config) as thread:
            client = ServiceClient(thread.url, timeout_s=60.0)
            baseline = [client.submit(r, wait=True) for r in requests]
        assert [s.state.value for s in baseline] == ["done"] * len(requests)

        plan = FaultPlan(
            events=(FaultEvent("hang", chunk=0, attempt=0, hang_s=30.0),)
        )
        config = ServiceConfig(
            batch_window_s=0.75,  # the four jobs share one batch
            workers=True,
            dispatch=DispatchPolicy(
                lease_s=60.0, heartbeat_interval_s=0.25, heartbeat_timeout_s=1.5
            ),
        )
        failovers = metrics().counter("repro_dispatch_failovers_total")
        duplicates = metrics().counter("repro_dispatch_duplicate_results_total")
        failovers_before = failovers.value()
        duplicates_before = duplicates.value()
        workers = []
        try:
            engine = ExperimentEngine(jobs=2, chunk_size=1, fault_plan=plan)
            with ServiceThread(engine, config) as thread:
                registry = thread.service.plane.registry
                for n in (1, 2):
                    workers.append(subprocess.Popen(
                        [
                            sys.executable, "-m", "repro", "worker",
                            "--broker", thread.url, "--port", "0",
                        ],
                        env=serve_env(), stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                    ))
                    wait_until(
                        lambda: len(registry.workers()) == n,
                        f"worker {n} to register",
                    )
                # The plane offers chunk 0 to the lowest worker id, which
                # is the first registration.
                victim = registry.workers()[0]
                client = ServiceClient(thread.url, timeout_s=60.0)
                acked = [client.submit(r, wait=False).job_id for r in requests]
                wait_until(lambda: 0 in victim.leases, "the hung lease")
                workers[0].send_signal(signal.SIGKILL)
                workers[0].wait(timeout=10)
                results = [client.wait(j, timeout_s=60.0) for j in acked]
        finally:
            for proc in workers:
                proc.kill()
                proc.wait(timeout=10)

        assert [s.state.value for s in results] == ["done"] * len(requests)

        def canonical(statuses):
            return json.dumps(
                [s.result.to_dict() for s in statuses], sort_keys=True
            )

        assert canonical(results) == canonical(baseline)
        assert failovers.value() == failovers_before + 1
        assert duplicates.value() == duplicates_before


# ---------------------------------------------------------------------------
# shutdown drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drain_budget_fails_stuck_jobs_instead_of_hanging(self):
        class _StuckEngine:
            # Slower than the drain budget: the drain must cut it
            # loose, not wait it out.
            stats = ExperimentEngine().stats

            def map(self, cells, deadline_s=None):
                time.sleep(5.0)
                return ExperimentEngine().map(cells)

        async def drill():
            broker = SweepBroker(
                engine=_StuckEngine(),  # type: ignore[arg-type]
                batch_window_s=0.0,
            )
            await broker.start()
            job = await broker.submit(tiny_request())
            start = time.monotonic()
            await broker.close(drain_s=0.2)
            assert time.monotonic() - start < 5.0
            assert job.done.is_set()
            assert "shut down" in (job.error or "")

        run_coro(drill())

    def test_submit_after_close_is_rejected(self):
        async def drill():
            broker = SweepBroker(engine=ExperimentEngine())
            await broker.start()
            await broker.close()
            with pytest.raises(ServiceError):
                await broker.submit(tiny_request())

        run_coro(drill())


# ---------------------------------------------------------------------------
# client backoff: deterministic, Retry-After-honouring
# ---------------------------------------------------------------------------


class TestClientBackoff:
    def test_poll_schedule_is_deterministic(self):
        policy_a = RetryPolicy(base_delay_s=0.05, backoff=1.5, max_delay_s=1.0)
        policy_b = RetryPolicy(base_delay_s=0.05, backoff=1.5, max_delay_s=1.0)
        schedule_a = [policy_a.delay_s(n, token="job-x") for n in range(1, 8)]
        schedule_b = [policy_b.delay_s(n, token="job-x") for n in range(1, 8)]
        assert schedule_a == schedule_b  # hash jitter, not a PRNG

    def test_distinct_jobs_desynchronise(self):
        policy = RetryPolicy(base_delay_s=0.05, backoff=1.5, max_delay_s=1.0)
        assert policy.delay_s(3, token="job-x") != policy.delay_s(
            3, token="job-y"
        )

    def test_wait_polls_until_terminal(self):
        config = ServiceConfig(batch_window_s=0.05)
        with ServiceThread(ExperimentEngine(), config) as thread:
            client = ServiceClient(thread.url)
            submitted = client.submit(tiny_request(), wait=False)
            status = client.wait(submitted.job_id, timeout_s=60.0)
            assert status.state.value == "done"

    def test_wait_times_out_with_a_clear_error(self):
        config = ServiceConfig(batch_window_s=60.0)
        with ServiceThread(ExperimentEngine(), config) as thread:
            client = ServiceClient(thread.url)
            submitted = client.submit(tiny_request(), wait=False)
            with pytest.raises(ServiceError, match="still"):
                client.wait(submitted.job_id, timeout_s=0.3)


# ---------------------------------------------------------------------------
# journal appends run off the event loop (the lint RPR009 fix)
# ---------------------------------------------------------------------------


class _SpyJournal(JobJournal):
    """A JobJournal that notes which thread each append lands on."""

    def __init__(self, path):
        super().__init__(path)
        self.events = []  # (event, job_id, thread ident) in append order

    def _note(self, event, job_id):
        self.events.append((event, job_id, threading.get_ident()))

    def record_admit(self, job_id, tenant, cell_key, request,
                     idempotency_key=None):
        self._note("admit", job_id)
        super().record_admit(
            job_id, tenant, cell_key, request, idempotency_key=idempotency_key
        )

    def record_running(self, job_id):
        self._note("running", job_id)
        super().record_running(job_id)

    def record_done(self, job_id, source):
        self._note("done", job_id)
        super().record_done(job_id, source)

    def record_failed(self, job_id, error):
        self._note("failed", job_id)
        super().record_failed(job_id, error)


class TestJournalOffload:
    """The journal's fsyncs must never run on the broker's event loop.

    (The cross-module analyzer's RPR009 found exactly this; these pin
    the fix: a single journal thread, an awaited admit, and a close()
    that drains the queued terminal records.)
    """

    def test_appends_run_off_the_loop_on_one_thread(self, tmp_path):
        journal = _SpyJournal(tmp_path / "j.jsonl")

        async def drill():
            broker = SweepBroker(
                engine=ExperimentEngine(), journal=journal, batch_window_s=0.0
            )
            await broker.start()
            try:
                job = await broker.submit(tiny_request())
                await asyncio.wait_for(job.done.wait(), 60.0)
            finally:
                await broker.close()

        loop_ident = threading.get_ident()  # asyncio.run uses this thread
        run_coro(drill())
        assert journal.events
        idents = {ident for _, _, ident in journal.events}
        assert loop_ident not in idents  # fsyncs never block the loop
        assert len(idents) == 1  # one writer thread keeps append order

    def test_submit_acks_only_after_admit_is_on_disk(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        journal = _SpyJournal(journal_path)

        async def drill():
            broker = SweepBroker(
                engine=ExperimentEngine(),
                journal=journal,
                batch_window_s=30.0,  # stays queued: only the admit lands
            )
            await broker.start()
            try:
                job = await broker.submit(tiny_request())
                # The durability point: by the time submit returns, a
                # *fresh* reader sees the admit on disk.
                replay = JobJournal(journal_path).replay()
                assert [j.job_id for j in replay.incomplete] == [job.job_id]
            finally:
                await broker.close(drain_s=0.1)

        run_coro(drill())

    def test_lifecycle_order_survives_the_offload(self, tmp_path):
        journal = _SpyJournal(tmp_path / "j.jsonl")

        async def drill():
            broker = SweepBroker(
                engine=ExperimentEngine(), journal=journal, batch_window_s=0.0
            )
            await broker.start()
            job = await broker.submit(tiny_request())
            await asyncio.wait_for(job.done.wait(), 60.0)
            # close() drains the journal thread, so the fire-and-forget
            # running/done records are on disk when it returns.
            await broker.close()
            return job.job_id

        job_id = run_coro(drill())
        assert [(e, j) for e, j, _ in journal.events] == [
            ("admit", job_id), ("running", job_id), ("done", job_id)
        ]
