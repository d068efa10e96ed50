"""Job lifecycle: the service's unit of asynchronous work.

A :class:`Job` tracks one admitted :class:`~repro.api.OptimizationRequest`
from ``queued`` through ``running`` to ``done``/``failed``, carrying the
raw engine payload (the JSON-able dict the evaluator produced) rather
than the assembled result, so duplicate jobs merged by single-flight
share one payload object and assembly stays a pure function of it.

The :class:`JobStore` is a bounded id -> job map: completed jobs are
kept for ``retain`` lookups (clients poll ``GET /v1/jobs/{id}`` after
the fact) and the oldest terminal jobs are dropped past the bound, so
a long-running service cannot leak memory through its job table.  Only
terminal jobs are evictable, so a flood of queued work could once grow
the table without limit; ``max_jobs`` is the hard cap — admission past
it raises :class:`~repro.errors.ServiceOverloadedError`, which the HTTP
layer turns into ``429`` + ``Retry-After``.  The live population is
exported as the ``repro_service_jobs_inflight`` gauge.
"""

from __future__ import annotations

import asyncio
import itertools
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.api.types import (
    JobState,
    JobStatus,
    OptimizationRequest,
    OptimizationResult,
)
from repro.api.query import result_from_payload
from repro.errors import ServiceError, ServiceOverloadedError
from repro.obs.metrics import metrics
from repro.obs.stitch import TraceContext

_JOB_COUNTER = itertools.count(1)


def new_job_id() -> str:
    """A unique, roughly ordered job identifier."""
    return f"job-{next(_JOB_COUNTER):06d}-{uuid.uuid4().hex[:8]}"


@dataclass
class Job:
    """One request moving through the service."""

    job_id: str
    tenant: str
    request: OptimizationRequest
    cell_key: str
    state: JobState = JobState.QUEUED
    source: str | None = None
    payload: dict | None = None
    error: str | None = None
    attempts: int = 0
    created: float = field(default_factory=time.monotonic)
    #: Wall-clock twin of ``created`` — span records carry epoch
    #: timestamps, so queue-wait spans need both clocks.
    created_wall: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    #: The request's distributed-trace handle (trace id + the HTTP
    #: ``service.request`` span id), or ``None`` outside a traced run.
    trace: TraceContext | None = None
    #: Monotonic instant the job must be answered by (``created`` +
    #: the request's ``deadline_s``); ``None`` means no deadline.
    deadline: float | None = None
    #: The client's ``Idempotency-Key``, when it sent one.
    idempotency_key: str | None = None
    #: Whether this job was resurrected from the job journal on restart.
    recovered: bool = False
    #: Whether the terminal ``failed`` state was caused by the deadline
    #: (the HTTP layer maps this to ``504`` instead of a generic error).
    deadline_hit: bool = False
    done: asyncio.Event = field(default_factory=asyncio.Event)

    def mark_running(self) -> None:
        self.state = JobState.RUNNING
        self.started = time.monotonic()

    def complete(self, payload: dict, source: str) -> None:
        self.state = JobState.DONE
        self.payload = payload
        self.source = source
        self.finished = time.monotonic()
        self.done.set()

    def fail(self, error: str) -> None:
        self.state = JobState.FAILED
        self.error = error
        self.finished = time.monotonic()
        self.done.set()

    def expired(self, now: float | None = None) -> bool:
        """Whether this job's deadline (if any) has already passed."""
        if self.deadline is None:
            return False
        moment = now if now is not None else time.monotonic()
        return moment >= self.deadline

    def remaining_s(self, now: float | None = None) -> float | None:
        """Seconds left until the deadline, or ``None`` without one."""
        if self.deadline is None:
            return None
        moment = now if now is not None else time.monotonic()
        return self.deadline - moment

    def result(self) -> OptimizationResult | None:
        """The assembled result (``done`` jobs only)."""
        if self.payload is None:
            return None
        return result_from_payload(self.request, self.payload)

    def timings(self) -> tuple[float, float]:
        """``(queued_s, wall_s)``: admission to start, start to finish.

        A job never started (a warm hit, a fail-fast) queued for no
        time; an unfinished one has run for no time yet.
        """
        started = self.started if self.started is not None else self.created
        queued_s = max(0.0, started - self.created)
        wall_s = 0.0
        if self.finished is not None:
            wall_s = max(0.0, self.finished - started)
        return queued_s, wall_s

    def status(self) -> JobStatus:
        """Externally visible snapshot of this job."""
        queued_s, wall_s = self.timings()
        return JobStatus(
            job_id=self.job_id,
            tenant=self.tenant,
            state=self.state,
            request=self.request,
            result=self.result(),
            error=self.error,
            source=self.source,
            attempts=self.attempts,
            queued_s=queued_s,
            wall_s=wall_s,
            trace_id=self.trace.trace_id if self.trace is not None else None,
        )


@dataclass
class JobStore:
    """Bounded id -> :class:`Job` map with terminal-job retention.

    ``retain`` is the soft bound terminal jobs are trimmed down to;
    ``max_jobs`` is the hard cap on the whole table.  ``_trim`` can
    only evict terminal jobs, so when a flood of *open* (queued or
    running) jobs fills the table to ``max_jobs``, :meth:`reserve`
    rejects further admissions with
    :class:`~repro.errors.ServiceOverloadedError` instead of growing
    without limit.
    """

    retain: int = 1024
    max_jobs: int = 4096
    _jobs: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _open: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.retain < 1:
            raise ServiceError(f"retain must be >= 1, got {self.retain}")
        if self.max_jobs < self.retain:
            raise ServiceError(
                f"max_jobs must be >= retain ({self.retain}), "
                f"got {self.max_jobs}"
            )

    def reserve(self) -> None:
        """Check the hard cap *before* a new job is built and journaled.

        Raises :class:`~repro.errors.ServiceOverloadedError` when the
        table is full and trimming terminal jobs cannot make room.
        """
        if len(self._jobs) < self.max_jobs:
            return
        self._trim(bound=self.max_jobs - 1)
        if len(self._jobs) >= self.max_jobs:
            metrics().counter(
                "repro_service_overload_rejections_total",
                "admissions rejected because the job table hit max_jobs",
            ).inc()
            raise ServiceOverloadedError(
                f"job table full: {self._open} open job(s) of "
                f"{self.max_jobs} max; retry shortly",
                retry_after_s=1.0,
            )

    def add(self, job: Job) -> None:
        self._jobs[job.job_id] = job
        self._open += 1
        self._export_inflight()
        self._trim()

    def note_closed(self, job: Job) -> None:
        """Account one job's transition to a terminal state."""
        if job.job_id in self._jobs and self._open > 0:
            self._open -= 1
        self._export_inflight()

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return job

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def __len__(self) -> int:
        return len(self._jobs)

    def open_jobs(self) -> int:
        """Jobs currently queued or running (not yet terminal)."""
        return self._open

    def _trim(self, bound: int | None = None) -> None:
        """Drop the oldest *terminal* jobs past the retention bound.

        Walks from the oldest job and stops once the excess is found,
        so a table one job over its bound drops one without a copy.
        """
        excess = len(self._jobs) - (bound if bound is not None else self.retain)
        if excess <= 0:
            return
        doomed: list[str] = []
        for job_id, job in self._jobs.items():
            if job.done.is_set():
                doomed.append(job_id)
                if len(doomed) == excess:
                    break
        for job_id in doomed:
            del self._jobs[job_id]

    def _export_inflight(self) -> None:
        metrics().gauge(
            "repro_service_jobs_inflight",
            "jobs admitted and not yet terminal",
        ).set(float(self._open))
