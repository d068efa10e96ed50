"""The sweep broker: admission -> warm store -> single-flight -> batch.

:class:`SweepBroker` is the service's decision core, independent of any
transport.  One :meth:`submit` call walks an admitted request through
the cost ladder cheapest-first:

1. **validate** — the request is mapped to its engine cell
   (:func:`repro.api.request_cell`); malformed requests fail here
   before consuming any quota token;
2. **quota** — per-tenant token-bucket admission
   (:class:`~repro.service.quotas.TenantQuotas`); over-quota raises
   :class:`~repro.errors.QuotaExceededError` for the HTTP layer to turn
   into ``429`` + ``Retry-After``;
3. **warm store** — the shared in-memory
   :class:`~repro.service.warmcache.WarmResultStore`, keyed by the
   cell's content address, answers repeats across tenants instantly;
4. **single-flight** — a miss whose cell is already being computed
   attaches to the open flight instead of enqueueing a duplicate, so N
   concurrent identical queries cost exactly one engine evaluation;
5. **batch** — genuinely new cells fan out through *one*
   ``engine.map`` call, which preserves the engine's process-pool
   parallelism, content-addressed disk cache and resilience (retries,
   pool respawn, serial fallback) across tenants.  A batch starts as
   soon as the previous one returns (after ``batch_window_s``, when
   set), and cells that arrive while one runs join the next.

Everything runs on one asyncio loop — submissions, the batch task and
completion fan-out — so the broker needs no locks; the blocking
``engine.map`` is pushed to a thread via ``run_in_executor``, and the
sweep service's engine evaluates in its worker processes.

Crash-safety and overload-safety wrap this ladder (see
``docs/service.md``):

* an optional :class:`~repro.service.journal.JobJournal` records every
  admission durably before it is acknowledged and every terminal
  transition after, so :meth:`SweepBroker.recover` can resurrect the
  jobs a killed server acked but never finished — idempotently, because
  resurrection re-enters the same warm-store/single-flight ladder;
* an ``Idempotency-Key`` maps retried POSTs (e.g. after a crash or a
  lost response) back to the original job instead of a duplicate;
* every job may carry an end-to-end deadline: a batch never runs a job
  whose deadline already passed (fail fast as 504), and the engine
  waits on no chunk past the batch's tightest deadline.  When that
  passes mid-batch, its jobs answer 504 and the batch's other flights
  go back to the front of the queue;
* a :class:`~repro.service.breaker.CircuitBreaker` around the engine
  call sheds submissions with ``503`` + ``Retry-After`` while the
  engine is failing batches back to back (warm hits are still served).

The broker re-runs nothing itself, except flights whose batch ended on
another job's deadline.  Any other error out of ``engine.map``
counts against the breaker and fails the batch's jobs; the engine's
:class:`~repro.resilience.RetryPolicy` and executors have already
retried what a retry can fix, and a shed caller retries after
``Retry-After`` (as :class:`~repro.service.client.ServiceClient` does).
"""

from __future__ import annotations

import asyncio
import functools
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api.query import request_cell
from repro.api.types import OptimizationRequest
from repro.engine.cache import CellKeyer
from repro.engine.cells import SweepCell
from repro.engine.engine import ExperimentEngine
from repro.errors import (
    ApiError,
    DeadlineExceededError,
    QuotaExceededError,
    ServiceError,
)
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.obs.stitch import TraceContext
from repro.service.breaker import BreakerPolicy, CircuitBreaker
from repro.service.jobs import Job, JobStore, new_job_id
from repro.service.journal import JobJournal
from repro.service.quotas import QuotaPolicy, TenantQuotas
from repro.service.warmcache import WarmResultStore

_LOG = logging.getLogger("repro.service.broker")

#: Most distinct cells evaluated per engine ``map`` call.
MAX_BATCH: int = 64


def _note_journal_error(future: "asyncio.Future[Any]") -> None:
    """Surface a failed fire-and-forget journal append in the log.

    A lost running/done record only costs a re-run on recovery; the
    admit path is awaited and propagates its errors to the submitter.
    """
    if future.cancelled():
        return
    exc = future.exception()
    if exc is not None:
        _LOG.error("journal append failed: %s", exc)


@dataclass
class _Flight:
    """One in-progress engine evaluation and every job awaiting it."""

    key: str
    cell: SweepCell
    jobs: list[Job] = field(default_factory=list)


@dataclass
class SweepBroker:
    """Batches optimization requests into shared engine evaluations."""

    engine: ExperimentEngine
    quota_policy: QuotaPolicy = field(default_factory=QuotaPolicy)
    warm: WarmResultStore = field(default_factory=WarmResultStore)
    #: How long a freshly queued cell waits for companions before the
    #: batch is flushed to the engine; ``0`` flushes as soon as the
    #: engine is free.
    batch_window_s: float = 0.0
    jobs_retain: int = 1024
    #: Hard cap on the job table; past it admission answers 429.
    max_jobs: int = 4096
    #: Durable job journal; ``None`` (the default) disables journaling
    #: and the crash-recovery path with it.
    journal: JobJournal | None = None
    #: Circuit-breaker policy for the engine ``map`` call.
    breaker_policy: BreakerPolicy = field(default_factory=BreakerPolicy)

    def __post_init__(self) -> None:
        if self.batch_window_s < 0:
            raise ServiceError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        self.quotas = TenantQuotas(policy=self.quota_policy)
        # A table capped below the retain target can never hold that
        # many terminal jobs anyway; clamp so a small --max-jobs works
        # without also tuning retention.
        retain = min(self.jobs_retain, self.max_jobs)
        self.jobs = JobStore(retain=retain, max_jobs=self.max_jobs)
        self.breaker = CircuitBreaker(self.breaker_policy)
        self._flights: dict[str, _Flight] = {}
        self._pending: list[_Flight] = []
        #: ``tenant:idempotency-key`` -> job id of the original admission.
        self._idempotent: dict[str, str] = {}
        self._wake: asyncio.Event | None = None
        # All journal appends run on this single thread: one writer
        # preserves the admit -> running -> done record order while the
        # fsyncs stay off the event loop (RPR009).
        self._journal_pool: ThreadPoolExecutor | None = None
        self._batch_task: asyncio.Task | None = None
        self._closed = False
        #: Cell identity of every job, under a fingerprint captured and
        #: serialized once: deriving the timing tables per request would
        #: dominate the cost of a warm hit.
        self.keyer = CellKeyer()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Start the batch task on the running loop."""
        if self._batch_task is not None:
            raise ServiceError("broker already started")
        self._closed = False
        self._wake = asyncio.Event()
        if self.journal is not None and self._journal_pool is None:
            self._journal_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="job-journal"
            )
        self._batch_task = asyncio.create_task(self._batch_loop())

    async def close(self, drain_s: float | None = None) -> None:
        """Stop accepting work, drain in-flight batches, stop the task.

        ``drain_s`` bounds how long the drain may take (the SIGTERM
        drain budget): past it the batch task is cancelled and every
        job still open fails as ``shutdown`` rather than hanging its
        waiters.  ``None`` drains without a bound.
        """
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        task = self._batch_task
        if task is not None:
            if drain_s is None:
                await task
            else:
                try:
                    await asyncio.wait_for(asyncio.shield(task), drain_s)
                except asyncio.TimeoutError:
                    task.cancel()
                    try:
                        await task
                    except asyncio.CancelledError:
                        pass
            self._batch_task = None
        for flight in list(self._flights.values()):
            for job in flight.jobs:
                if not job.done.is_set():
                    self._fail(
                        job, "service shut down before the job completed"
                    )
        self._flights.clear()
        self._pending.clear()
        pool = self._journal_pool
        if pool is not None:
            self._journal_pool = None
            # Drain the journal thread so every record queued above
            # (including the shutdown failures) is on disk before close
            # returns, so a restart resurrects none of those jobs.
            # shutdown(wait=True) joins the thread, so it runs off-loop.
            await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(pool.shutdown, True)
            )

    # -- crash recovery ---------------------------------------------------

    async def recover(self) -> int:
        """Resurrect the journal's incomplete jobs; returns how many.

        Called once after :meth:`start`, before the listener opens.
        Replayed jobs keep their original ids (so ``GET /v1/jobs/{id}``
        keeps working across the restart) and re-enter the normal
        warm-store/single-flight ladder, which is what makes recovery
        idempotent — a cell answered meanwhile is served, not re-run.
        Quota tokens are *not* re-charged: the work was already paid
        for when it was first admitted.  Deadlines are not restored
        either — they were relative to a dead process's clock.
        """
        if self.journal is None:
            return 0
        replay = self.journal.replay()
        self._idempotent.update(replay.idempotency)
        recovered = 0
        for entry in replay.incomplete:
            try:
                cell = request_cell(entry.request)
            except ApiError as exc:
                _LOG.warning(
                    "journal job %s no longer maps to a cell (%s); dropping",
                    entry.job_id,
                    exc,
                )
                continue
            # Re-derived under the *current* fingerprint — a journal
            # from before a recalibration resurrects the question,
            # never a stale answer.
            key = self.keyer.key(cell)
            job = Job(
                job_id=entry.job_id,
                tenant=entry.tenant,
                request=entry.request,
                cell_key=key,
                idempotency_key=entry.idempotency_key,
                recovered=True,
            )
            self.jobs.add(job)
            obs.event(
                "service.job_recovered",
                job_id=job.job_id,
                tenant=job.tenant,
                cell_key=key,
            )
            self._dispatch(job, cell, key, self.warm.get(key))
            recovered += 1
        if recovered:
            metrics().counter(
                "repro_service_jobs_recovered_total",
                "incomplete jobs resurrected from the job journal",
            ).inc(recovered)
        obs.event(
            "service.journal_replayed",
            path=str(self.journal.path),
            records=replay.n_records,
            complete=replay.n_complete,
            corrupt=replay.n_corrupt,
            recovered=recovered,
        )
        return recovered

    # -- submission -------------------------------------------------------

    async def submit(
        self,
        request: OptimizationRequest,
        trace: TraceContext | None = None,
        idempotency_key: str | None = None,
    ) -> Job:
        """Admit one request; returns its job (possibly already done).

        ``trace`` carries the HTTP layer's trace id and request-span id
        so the job's queue wait and batch appear in the request's
        distributed trace.  ``idempotency_key`` maps a retried POST
        back to the original job while that job is still in the table.
        Raises :class:`~repro.errors.ApiError` on a malformed request,
        :class:`~repro.errors.QuotaExceededError` when the tenant is
        over quota (its :class:`~repro.errors.ServiceOverloadedError`
        subtype when the whole job table is full),
        :class:`~repro.errors.CircuitOpenError` while the breaker sheds
        engine work, and :class:`~repro.errors.ServiceError` after
        :meth:`close`.
        """
        if self._closed or self._batch_task is None:
            raise ServiceError("service is shutting down; submit rejected")
        cell = request_cell(request)  # ApiError before any quota spend
        key = self.keyer.key(cell)

        idem_key: str | None = None
        if idempotency_key is not None:
            idem_key = f"{request.tenant}:{idempotency_key}"
            known = self._idempotent.get(idem_key)
            if known is not None and known in self.jobs:
                job = self.jobs.get(known)
                metrics().counter(
                    "repro_service_idempotent_hits_total",
                    "retried POSTs answered with their original job",
                ).inc(tenant=request.tenant)
                obs.event(
                    "service.idempotent_hit",
                    job_id=job.job_id,
                    tenant=request.tenant,
                    idempotency_key=idempotency_key,
                )
                return job
            self._idempotent.pop(idem_key, None)  # job evicted: stale

        # The breaker guards the *engine*: a warm hit costs no engine
        # work, so it is served even while the breaker sheds.
        warm_payload = self.warm.get(key)
        if warm_payload is None:
            self.breaker.admit()
        self.jobs.reserve()  # 429 before any quota token is consumed
        try:
            self.quotas.admit(request.tenant)
        except QuotaExceededError:
            obs.event(
                "service.quota_reject",
                tenant=request.tenant,
                structure=request.structure,
                workload=request.workload,
            )
            raise
        metrics().counter(
            "repro_service_requests_total", "optimization requests admitted"
        ).inc(tenant=request.tenant, structure=request.structure)

        job = Job(
            job_id=new_job_id(),
            tenant=request.tenant,
            request=request,
            cell_key=key,
            trace=trace,
            idempotency_key=idempotency_key,
        )
        if request.deadline_s is not None:
            job.deadline = job.created + request.deadline_s
        if self.journal is not None:
            # The durability point: on disk before the POST is acked.
            # The append (and its fsync) runs on the journal thread so
            # the event loop never blocks; awaiting the future keeps
            # durable-before-ack intact.
            await asyncio.get_running_loop().run_in_executor(
                self._journal_pool,
                functools.partial(
                    self.journal.record_admit,
                    job.job_id, job.tenant, key, request,
                    idempotency_key=idempotency_key,
                ),
            )
        self.jobs.add(job)
        if idem_key is not None:
            self._remember_idempotent(idem_key, job.job_id)
        obs.event(
            "service.job_queued",
            job_id=job.job_id,
            tenant=job.tenant,
            cell_key=key,
            structure=request.structure,
            workload=request.workload,
        )
        self._dispatch(job, cell, key, warm_payload)
        return job

    def _remember_idempotent(self, idem_key: str, job_id: str) -> None:
        if len(self._idempotent) >= 4 * self.max_jobs:
            # Lazy bound: drop mappings whose job already left the table.
            self._idempotent = {
                k: v for k, v in self._idempotent.items() if v in self.jobs
            }
        self._idempotent[idem_key] = job_id

    def _dispatch(
        self, job: Job, cell: SweepCell, key: str, warm_payload: dict | None
    ) -> None:
        """Route one admitted job: warm hit, flight merge, or new flight."""
        if warm_payload is not None:
            obs.event("service.warm_hit", job_id=job.job_id, cell_key=key)
            self._finish(job, warm_payload, source="warm")
            return
        flight = self._flights.get(key)
        if flight is not None:
            flight.jobs.append(job)
            metrics().counter(
                "repro_service_singleflight_merged_total",
                "duplicate in-flight requests merged into one evaluation",
            ).inc()
            obs.event(
                "service.singleflight_merge", job_id=job.job_id, cell_key=key
            )
            return
        flight = _Flight(key=key, cell=cell, jobs=[job])
        self._flights[key] = flight
        self._pending.append(flight)
        assert self._wake is not None
        self._wake.set()

    async def wait(self, job: Job, timeout: float | None = None) -> Job:
        """Block until ``job`` reaches a terminal state."""
        await asyncio.wait_for(job.done.wait(), timeout)
        return job

    # -- batch execution --------------------------------------------------

    async def _batch_loop(self) -> None:
        assert self._wake is not None
        while True:
            if not self._pending:
                if self._closed:
                    return
                await self._wake.wait()
                self._wake.clear()
                continue
            if self.batch_window_s > 0 and not self._closed:
                await asyncio.sleep(self.batch_window_s)
            batch = self._pending[:MAX_BATCH]
            del self._pending[: len(batch)]
            await self._run_batch(batch)

    async def _run_batch(self, batch: list[_Flight]) -> None:
        loop = asyncio.get_running_loop()
        # Deadline fail-fast: never spend engine time on a job whose
        # end-to-end budget already expired while it queued.
        now = time.monotonic()
        batch = self._drop_expired(batch, now)
        if not batch:
            return
        cells = [flight.cell for flight in batch]
        n_jobs = sum(len(f.jobs) for f in batch)
        tracer = obs.current_tracer()
        wait_hist = metrics().histogram(
            "repro_service_queue_wait_seconds",
            "submit-to-batch-start queue wait per job",
        )
        # The tightest surviving deadline bounds the whole batch: the
        # engine waits on no chunk past it.
        deadline_s: float | None = None
        # (job, pre-allocated broker.batch span id) per job whose
        # request carries a trace.  Queue wait and batch are recorded
        # as *sibling* phases under the request span — the batch runs
        # after the wait ends, so nesting it inside would break the
        # temporal containment critical-path analysis relies on.
        traced: list[tuple[Job, str]] = []
        for flight in batch:
            for job in flight.jobs:
                job.attempts += 1
                job.mark_running()
                if self.journal is not None:
                    self._journal_soon(
                        self.journal.record_running, job.job_id
                    )
                remaining = job.remaining_s(now)
                if remaining is not None:
                    deadline_s = (
                        remaining
                        if deadline_s is None
                        else min(deadline_s, remaining)
                    )
                wait_s = max(0.0, time.monotonic() - job.created)
                wait_hist.observe(wait_s, tenant=job.tenant)
                if tracer.enabled and job.trace is not None:
                    tracer.record_span(
                        "service.queue_wait",
                        trace_id=job.trace.trace_id,
                        parent=job.trace.parent_id,
                        ts=job.created_wall,
                        dur_s=wait_s,
                        job_id=job.job_id,
                        tenant=job.tenant,
                    )
                    traced.append((job, tracer.new_span_id()))
        # The engine's spans can live in exactly one trace; the first
        # traced job's request is the *primary* and carries the full
        # engine.map/worker subtree.  Sibling requests sharing the
        # batch get their own broker.batch span linking to it.
        primary = traced[0] if traced else None
        batch_ts = time.time()
        misses_before = self.engine.stats.cache_misses
        start = time.perf_counter()

        def call_engine() -> list[dict]:
            # ``deadline_s`` is passed only when a job set one, so any
            # duck-typed engine exposing plain ``map(cells)`` still works.
            if deadline_s is not None:
                return self.engine.map(cells, deadline_s=deadline_s)
            return self.engine.map(cells)

        # When the executor thread started and finished the engine call.
        on_thread: list[float] = []

        def mapped() -> list[dict]:
            on_thread.append(time.time())
            try:
                if primary is not None:
                    job0, batch_span_id = primary
                    assert job0.trace is not None
                    with obs.scoped_trace(
                        tracer, job0.trace.trace_id, batch_span_id
                    ):
                        return call_engine()
                return call_engine()
            finally:
                on_thread.append(time.time())

        error: Exception | None = None
        try:
            payloads = await loop.run_in_executor(None, mapped)
        except Exception as exc:  # noqa: BLE001 - batch boundary: every
            # failure mode of the engine stack must land on the waiting
            # jobs as a failed state, never escape into the batch task.
            error = exc
        elapsed = time.perf_counter() - start
        if error is None:
            self._deliver(batch, payloads, misses_before, elapsed)
        elif isinstance(error, DeadlineExceededError):
            # The batch's tightest deadline passed, which says nothing
            # about the engine's health: no breaker failure.  Its jobs
            # answer 504; flights with budget left run next.
            self._pending[:0] = self._drop_expired(batch, time.monotonic())
        else:
            self.breaker.record_failure()
            for flight in batch:
                self._flights.pop(flight.key, None)
                for job in flight.jobs:
                    self._fail(job, f"{type(error).__name__}: {error}")
        if tracer.enabled:
            self._record_batch(
                tracer, traced, batch_ts, on_thread, len(cells), n_jobs, error
            )

    def _drop_expired(self, batch: list[_Flight], now: float) -> list[_Flight]:
        """Answer 504 to every job whose deadline passed by ``now``.

        Returns the flights that still have a job waiting; the others
        leave the single-flight table.
        """
        live: list[_Flight] = []
        for flight in batch:
            keep: list[Job] = []
            for job in flight.jobs:
                if job.expired(now):
                    self._fail_deadline(job)
                else:
                    keep.append(job)
            flight.jobs = keep
            if keep:
                live.append(flight)
            else:
                self._flights.pop(flight.key, None)
        return live

    def _deliver(
        self,
        batch: list[_Flight],
        payloads: list[dict],
        misses_before: int,
        elapsed: float,
    ) -> None:
        """Account one successful batch and answer its jobs."""
        self.breaker.record_success()
        computed = self.engine.stats.cache_misses - misses_before
        metrics().counter(
            "repro_service_batches_total", "engine batches flushed"
        ).inc()
        metrics().histogram(
            "repro_service_batch_cells", "distinct cells per engine batch"
        ).observe(len(batch))
        obs.event(
            "service.batch_flush",
            n_cells=len(batch),
            computed=computed,
            elapsed_s=elapsed,
        )
        now = time.monotonic()
        for flight, payload in zip(batch, payloads):
            self._flights.pop(flight.key, None)
            # The payload warms the store either way: a deadline is a
            # property of the request, not of the answer.
            self.warm.admit(flight.key, payload)
            for job in flight.jobs:
                if job.expired(now):
                    self._fail_deadline(job)
                else:
                    self._finish(job, payload, source="computed")

    @staticmethod
    def _record_batch(
        tracer: obs.Tracer,
        traced: list[tuple[Job, str]],
        batch_ts: float,
        on_thread: list[float],
        n_cells: int,
        n_jobs: int,
        error: Exception | None,
    ) -> None:
        """Record each traced job's ``broker.batch`` span, answers included.

        The primary's span also names its two hand-offs: to the executor
        thread that runs the engine (``broker.to_thread``), and from the
        engine's return until every job has its answer
        (``broker.fan_out``).
        """
        end_ts = time.time()
        for job, batch_span_id in traced:
            assert job.trace is not None
            attrs: dict = {
                "n_cells": n_cells,
                "n_jobs": n_jobs,
                "shared": len(traced) > 1,
            }
            if job is not traced[0][0]:
                # Trace link: the engine subtree lives over there.
                assert traced[0][0].trace is not None
                attrs["engine_trace"] = traced[0][0].trace.trace_id
            if error is not None:
                attrs["error"] = f"{type(error).__name__}: {error}"
            tracer.record_span(
                "broker.batch",
                level="engine",
                trace_id=job.trace.trace_id,
                span_id=batch_span_id,
                parent=job.trace.parent_id,
                ts=batch_ts,
                dur_s=end_ts - batch_ts,
                **attrs,
            )
        if traced and len(on_thread) == 2:
            job, batch_span_id = traced[0]
            assert job.trace is not None
            for name, begin, finish in (
                ("broker.to_thread", batch_ts, on_thread[0]),
                ("broker.fan_out", on_thread[1], end_ts),
            ):
                tracer.record_span(
                    name,
                    level="engine",
                    trace_id=job.trace.trace_id,
                    parent=batch_span_id,
                    ts=begin,
                    dur_s=max(0.0, finish - begin),
                )

    # -- completion -------------------------------------------------------

    def _journal_soon(self, fn: Callable[..., Any], *args: Any) -> None:
        """Queue one journal append on the journal thread, off the loop.

        Fire-and-forget is sound for the non-admit records: the single
        journal thread preserves append order behind the (awaited)
        admit, and running/done/failed durability is a recovery
        optimisation, not part of the ack contract — a record lost to a
        crash re-runs the job, it never loses an acked admission.
        """
        future = asyncio.get_running_loop().run_in_executor(
            self._journal_pool, functools.partial(fn, *args)
        )
        future.add_done_callback(_note_journal_error)

    def _fail_deadline(self, job: Job) -> None:
        """Fail one job whose end-to-end deadline passed (HTTP 504)."""
        job.deadline_hit = True
        metrics().counter(
            "repro_service_deadline_exceeded_total",
            "jobs failed because their end-to-end deadline passed",
        ).inc(tenant=job.tenant)
        obs.event(
            "service.deadline_exceeded",
            job_id=job.job_id,
            tenant=job.tenant,
            deadline_s=job.request.deadline_s,
        )
        self._fail(
            job,
            f"deadline exceeded: the {job.request.deadline_s}s end-to-end "
            "budget passed before the job could be served",
        )

    def _finish(self, job: Job, payload: dict, source: str) -> None:
        job.complete(payload, source)
        self.jobs.note_closed(job)
        self.quotas.release(job.tenant)
        if self.journal is not None:
            self._journal_soon(self.journal.record_done, job.job_id, source)
        queued_s, wall_s = job.timings()
        metrics().counter(
            "repro_service_jobs_total", "jobs reaching a terminal state"
        ).inc(state="done", source=source)
        metrics().histogram(
            "repro_service_job_wall_seconds",
            "admission-to-completion wall time per job",
        ).observe(queued_s + wall_s, source=source)
        obs.event(
            "service.job_done",
            job_id=job.job_id,
            tenant=job.tenant,
            source=source,
            wall_s=wall_s,
        )

    def _fail(self, job: Job, error: str) -> None:
        job.fail(error)
        self.jobs.note_closed(job)
        self.quotas.release(job.tenant)
        if self.journal is not None:
            self._journal_soon(self.journal.record_failed, job.job_id, error)
        metrics().counter(
            "repro_service_jobs_total", "jobs reaching a terminal state"
        ).inc(state="failed", source="error")
        obs.event(
            "service.job_failed",
            job_id=job.job_id,
            tenant=job.tenant,
            error=error,
        )
