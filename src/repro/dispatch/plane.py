"""Broker-side dispatch plane: registry, leases, failover.

The plane is the engine's window onto remote ``repro worker``
processes.  Three pieces cooperate:

:class:`WorkerRegistry`
    Thread-safe roster of registered workers.  Each worker carries its
    own :class:`~repro.service.breaker.CircuitBreaker` (the same class
    that guards the broker's engine, built unexported so it never
    writes the broker's ``repro_service_breaker_*`` metrics) so a
    flapping host is quarantined without shedding the whole plane,
    plus heartbeat bookkeeping: a worker that misses
    ``heartbeat_timeout_s`` is declared dead and its leases fail over.

:class:`RemoteExecutor`
    Drop-in sibling of :class:`~repro.resilience.ResilientExecutor`
    behind the engine's executor seam.  Chunks are assigned to workers
    under **time-bounded leases** (the lease deadline doubles as the
    HTTP timeout); a dead connection, an expired lease, or a reaped
    worker re-enqueues the chunk onto the next healthy worker (and
    drops a refused or disconnected worker from the roster), and after
    three failovers onto the local pool.  A chunk holds at most one
    lease at a time, so each chunk reaches the engine exactly once; a
    slow but live worker keeps its chunk until the lease expires.

:class:`DispatchPlane`
    The factory the engine holds.  ``executor(...)`` returns a
    :class:`RemoteExecutor` when healthy workers exist and ``None``
    otherwise — the ``None`` is the whole cost of the feature when no
    workers are registered, which keeps the local hot path unchanged.

Everything is observable: ``repro_dispatch_*`` metrics plus
``dispatch.*`` span events (see :mod:`repro.obs.names`).
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from http.client import HTTPException
from typing import Callable, Sequence

from repro.dispatch.wire import decode_pairs, evaluate_request
from repro.engine.cells import SweepCell
from repro.errors import (
    CircuitOpenError,
    EngineError,
    FatalError,
    ServiceError,
    TransientError,
    WorkerLostError,
)
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.obs.stitch import TraceContext
from repro.resilience.executor import (
    ChunkCallback,
    ChunkResult,
    ExecutionReport,
    Handoff,
    ResilientExecutor,
    WorkerPool,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.service.breaker import BreakerPolicy, CircuitBreaker
from repro.service.http import request_json

_LOG = logging.getLogger("repro.dispatch.plane")

#: Lost leases tolerated per chunk before it stops being offered to
#: workers and falls back to local evaluation.
_MAX_LEASE_FAILOVERS: int = 3

#: Scheduler wait quantum while leases are outstanding.
_POLL_INTERVAL_S: float = 0.02


@dataclass(frozen=True)
class DispatchPolicy:
    """Tunables of the worker plane.

    Parameters
    ----------
    lease_s:
        Per-chunk lease duration; doubles as the HTTP timeout of one
        evaluate call, so a hung worker forfeits the chunk exactly when
        the lease expires.
    heartbeat_interval_s:
        How often a worker should heartbeat (returned to the worker at
        registration).
    heartbeat_timeout_s:
        Silence after which a worker is declared dead and reaped.
    worker_failure_threshold, worker_breaker_reset_s:
        Per-worker circuit breaker: consecutive transport failures
        before the worker is quarantined, and the cooldown before a
        probe.
    """

    lease_s: float = 30.0
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 5.0
    worker_failure_threshold: int = 2
    worker_breaker_reset_s: float = 5.0

    def __post_init__(self) -> None:
        if self.lease_s <= 0:
            raise ServiceError(f"lease_s must be > 0, got {self.lease_s}")
        if self.heartbeat_interval_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ServiceError(
                "heartbeat interval/timeout must be > 0, got "
                f"{self.heartbeat_interval_s}/{self.heartbeat_timeout_s}"
            )
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ServiceError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s "
                f"({self.heartbeat_timeout_s} <= {self.heartbeat_interval_s})"
            )


@dataclass
class WorkerState:
    """One registered worker as the plane sees it."""

    worker_id: str
    url: str
    slots: int
    breaker: CircuitBreaker
    registered_at: float
    last_beat: float
    leases: set[int] = field(default_factory=set)
    dead: bool = False

    def describe(self) -> dict:
        """JSON summary for ``GET /v1/workers``."""
        return {
            "worker_id": self.worker_id,
            "url": self.url,
            "slots": self.slots,
            "leases": sorted(self.leases),
            "breaker": self.breaker.state,
            "dead": self.dead,
        }


class WorkerRegistry:
    """Thread-safe roster of workers with heartbeats and breakers.

    Worker ids are assigned in registration order (``w0001``,
    ``w0002``, …) so scheduling — which tie-breaks on id — is
    deterministic for a fixed registration order.
    """

    def __init__(
        self,
        policy: DispatchPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else DispatchPolicy()
        self.clock = clock
        self._lock = threading.Lock()
        self._workers: dict[str, WorkerState] = {}
        self._count = 0

    # -- membership --------------------------------------------------------

    def register(self, url: str, slots: int = 1) -> WorkerState:
        """Admit (or re-admit) the worker serving at ``url``."""
        if not url.startswith("http://") and not url.startswith("https://"):
            raise ServiceError(f"worker url must be http(s), got {url!r}")
        if slots < 1:
            raise ServiceError(f"worker slots must be >= 1, got {slots}")
        now = self.clock()
        with self._lock:
            # A worker restarting on the same address replaces its old
            # registration: the stale entry would only soak up leases.
            for stale in list(self._workers.values()):
                if stale.url == url and not stale.dead:
                    stale.dead = True
                    self._workers.pop(stale.worker_id, None)
            self._count += 1
            state = WorkerState(
                worker_id=f"w{self._count:04d}",
                url=url,
                slots=slots,
                breaker=CircuitBreaker(
                    BreakerPolicy(
                        failure_threshold=self.policy.worker_failure_threshold,
                        reset_timeout_s=self.policy.worker_breaker_reset_s,
                    ),
                    clock=self.clock,
                    exported=False,
                ),
                registered_at=now,
                last_beat=now,
            )
            self._workers[state.worker_id] = state
        metrics().counter(
            "repro_dispatch_registrations_total", "worker registrations accepted"
        ).inc()
        obs.event(
            "dispatch.worker_registered",
            worker_id=state.worker_id, url=url, slots=slots,
        )
        self._export_gauge()
        return state

    def heartbeat(self, worker_id: str) -> bool:
        """Record one heartbeat; ``False`` if the worker is unknown."""
        with self._lock:
            state = self._workers.get(worker_id)
            if state is None or state.dead:
                return False
            state.last_beat = self.clock()
        metrics().counter(
            "repro_dispatch_heartbeats_total", "worker heartbeats accepted"
        ).inc()
        return True

    def deregister(self, worker_id: str) -> bool:
        """Politely remove a worker; ``False`` if it was unknown."""
        with self._lock:
            state = self._workers.pop(worker_id, None)
        if state is None:
            return False
        state.dead = True
        obs.event("dispatch.worker_deregistered", worker_id=worker_id)
        self._export_gauge()
        return True

    # -- liveness ----------------------------------------------------------

    def reap(self) -> list[WorkerState]:
        """Declare workers dead after ``heartbeat_timeout_s`` of silence."""
        cutoff = self.clock() - self.policy.heartbeat_timeout_s
        reaped: list[WorkerState] = []
        with self._lock:
            for state in list(self._workers.values()):
                if not state.dead and state.last_beat < cutoff:
                    state.dead = True
                    self._workers.pop(state.worker_id, None)
                    reaped.append(state)
        for state in reaped:
            metrics().counter(
                "repro_dispatch_missed_heartbeats_total",
                "workers reaped after missing their heartbeat deadline",
            ).inc()
            obs.event(
                "dispatch.worker_dead",
                worker_id=state.worker_id,
                url=state.url,
                leases=sorted(state.leases),
            )
            _LOG.warning(
                "worker %s (%s) missed its heartbeat deadline; reaping "
                "(%d lease(s) will fail over)",
                state.worker_id, state.url, len(state.leases),
            )
        if reaped:
            self._export_gauge()
        return reaped

    def workers(self) -> list[WorkerState]:
        """Every live registration, in id order."""
        with self._lock:
            return sorted(
                (s for s in self._workers.values() if not s.dead),
                key=lambda s: s.worker_id,
            )

    def healthy(self) -> list[WorkerState]:
        """Live workers whose breaker admits traffic, in id order.

        Calling :meth:`CircuitBreaker.admit` here is deliberate: an
        open breaker whose cooldown elapsed flips to half-open and the
        next lease is its probe.
        """
        self.reap()
        admitted: list[WorkerState] = []
        for state in self.workers():
            try:
                state.breaker.admit()
            except CircuitOpenError:
                continue
            admitted.append(state)
        return admitted

    # -- leases ------------------------------------------------------------

    def lease(self, worker_id: str, chunk: int) -> None:
        """Record that ``worker_id`` holds the lease on ``chunk``."""
        with self._lock:
            state = self._workers.get(worker_id)
            if state is not None:
                state.leases.add(chunk)
        metrics().counter(
            "repro_dispatch_leases_total", "chunk leases issued to workers"
        ).inc()

    def release(self, worker_id: str, chunk: int) -> None:
        """Drop ``worker_id``'s lease on ``chunk`` (if still recorded)."""
        with self._lock:
            state = self._workers.get(worker_id)
            if state is not None:
                state.leases.discard(chunk)

    def _export_gauge(self) -> None:
        with self._lock:
            alive = sum(1 for s in self._workers.values() if not s.dead)
        metrics().gauge(
            "repro_dispatch_workers", "live registered dispatch workers"
        ).set(float(alive))


@dataclass
class _Lease:
    """One outstanding evaluate call."""

    chunk: int
    attempt: int
    worker_id: str
    url: str
    started: float


class RemoteExecutor:
    """Drives chunks over the worker plane; the engine's remote seam.

    Mirrors :class:`~repro.resilience.ResilientExecutor`'s construction
    and ``run`` contract (including ``ExecutionReport`` and the
    delivered chunks' span ``records``), so the engine treats both
    identically.  Lease losses are reported as ``lost_chunks``, expired
    leases additionally as ``timeouts``, and a mid-run degradation to
    the local pool sets ``serial_fallback`` semantics via the wrapped
    local executor's own report.
    """

    def __init__(
        self,
        plane: "DispatchPlane",
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        span=None,
        sleep: Callable[[float], None] = time.sleep,
        trace_ctx: TraceContext | None = None,
        pool: WorkerPool | None = None,
        deadline: float | None = None,
    ) -> None:
        self.plane = plane
        #: The engine's local pool, for the degraded path.
        self.pool = pool
        #: The caller's absolute deadline (``time.monotonic``), if any.
        self.deadline = deadline
        self.policy = policy if policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.span = span
        self._sleep = sleep
        self.trace_ctx = trace_ctx
        self._clock = plane.clock
        self.report = ExecutionReport()
        #: The span records returned with every delivered chunk.
        self.records: list[dict] = []
        #: Hand-offs of the chunks the local fallback evaluated.
        self.handoffs: list[Handoff] = []
        # The lease deadline never outlives the engine's per-chunk
        # timeout or the caller's remaining budget: whichever is
        # tighter bounds the evaluate call.
        lease_s = plane.policy.lease_s
        if self.policy.timeout_s is not None:
            lease_s = min(lease_s, self.policy.timeout_s)
        if deadline is not None:
            lease_s = min(lease_s, max(deadline - time.monotonic(), 0.001))
        self._lease_timeout_s = lease_s

    # -- public API --------------------------------------------------------

    def run(
        self,
        chunks: Sequence[Sequence[SweepCell]],
        on_chunk_done: ChunkCallback | None = None,
    ) -> list[ChunkResult]:
        """Evaluate every chunk remotely, returning results in order."""
        chunks = [list(c) for c in chunks]
        self.report = ExecutionReport()
        self.records = []
        if not chunks:
            return []
        n = len(chunks)
        results: dict[int, ChunkResult] = {}
        attempts = {i: 0 for i in range(n)}
        lease_failures = {i: 0 for i in range(n)}
        ready_at = {i: 0.0 for i in range(n)}
        pending: list[int] = list(range(n))
        inflight: dict[Future, _Lease] = {}
        slots = sum(w.slots for w in self.plane.registry.workers())
        pool = ThreadPoolExecutor(
            max_workers=max(2, min(32, 2 * max(1, slots))),
            thread_name_prefix="repro-dispatch",
        )
        try:
            while pending or inflight:
                self._assign(pool, chunks, pending, attempts, ready_at, inflight)
                if not inflight:
                    if not self.plane.registry.healthy():
                        break  # nobody left to lease to: go local below
                    self._sleep(_POLL_INTERVAL_S)
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=_POLL_INTERVAL_S,
                    return_when=FIRST_COMPLETED,
                )
                for fut in done:
                    self._harvest(
                        fut, inflight.pop(fut), pending, attempts,
                        lease_failures, ready_at, results, on_chunk_done,
                    )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        remaining = sorted(i for i in range(n) if i not in results)
        if remaining:
            self._run_local_fallback(chunks, remaining, results, on_chunk_done)
        return [results[i] for i in range(n)]

    # -- scheduling --------------------------------------------------------

    def _assign(self, pool, chunks, pending, attempts, ready_at, inflight) -> None:
        """Lease every ready pending chunk while a worker has a free slot."""
        now = self._clock()
        for i in sorted(pending):
            if ready_at[i] > now:
                continue
            worker = self._pick_worker()
            if worker is None:
                return
            pending.remove(i)
            self.plane.registry.lease(worker.worker_id, i)
            lease = _Lease(
                chunk=i,
                attempt=attempts[i],
                worker_id=worker.worker_id,
                url=worker.url,
                started=self._clock(),
            )
            inflight[pool.submit(self._call, lease, chunks[i])] = lease

    def _pick_worker(self) -> WorkerState | None:
        candidates = [
            w for w in self.plane.registry.healthy() if len(w.leases) < w.slots
        ]
        return min(
            candidates, key=lambda w: (len(w.leases), w.worker_id), default=None
        )

    # -- one evaluate call -------------------------------------------------

    def _call(self, lease: _Lease, cells: list[SweepCell]):
        body = evaluate_request(
            cells, lease.chunk, lease.attempt,
            plan=self.fault_plan, trace=self.trace_ctx,
        )
        try:
            status, _, doc = request_json(
                lease.url, "POST", "/v1/evaluate", body,
                timeout_s=self._lease_timeout_s,
            )
        except TimeoutError as exc:
            err = WorkerLostError(
                f"worker {lease.worker_id}: lease of {self._lease_timeout_s:.3g}s "
                f"expired on chunk {lease.chunk} (attempt {lease.attempt})"
            )
            err.lease_expired = True
            raise err from exc
        except (OSError, HTTPException, ValueError) as exc:
            raise WorkerLostError(
                f"worker {lease.worker_id} lost mid-lease on chunk "
                f"{lease.chunk}: {type(exc).__name__}: {exc}"
            ) from exc
        if status == 200:
            try:
                pairs = decode_pairs(doc.get("pairs"))
            except ServiceError as exc:
                raise WorkerLostError(
                    f"worker {lease.worker_id} answered chunk {lease.chunk} "
                    f"with a malformed payload: {exc}"
                ) from exc
            # Outside input: the engine's stitch drops and counts any
            # record that does not join its trace.
            spans = doc.get("spans") or []
            return pairs, spans if isinstance(spans, list) else [spans]
        message = str(doc.get("error") or f"HTTP {status}")
        if doc.get("transient"):
            raise TransientError(message)
        raise EngineError(
            f"worker {lease.worker_id} failed chunk {lease.chunk}: {message}"
        )

    # -- harvesting --------------------------------------------------------

    def _harvest(
        self, future, lease, pending, attempts, lease_failures, ready_at,
        results, on_chunk_done,
    ) -> None:
        chunk = lease.chunk
        self.plane.registry.release(lease.worker_id, chunk)
        worker = self._worker_state(lease.worker_id)
        try:
            pairs, spans = future.result()
        except WorkerLostError as exc:
            if worker is not None:
                worker.breaker.record_failure()
            if getattr(exc, "lease_expired", False):
                self._note_lease_expired(lease)
            elif isinstance(exc.__cause__, ConnectionError):
                # Refused, reset or dropped: the host is dead or
                # restarting.  Drop it now, as the reaper would after the
                # heartbeat timeout, so the chunk is not offered back to
                # it; a live worker re-registers on its next heartbeat.
                self.plane.registry.deregister(lease.worker_id)
            attempts[chunk] += 1  # advance the fault schedule, like _reap_after_death
            lease_failures[chunk] += 1
            self.report.lost_chunks += 1
            self._note_failover(lease, attempts[chunk], exc)
            if lease_failures[chunk] <= _MAX_LEASE_FAILOVERS:
                ready_at[chunk] = self._clock()
                pending.append(chunk)
            # else: left unscheduled; the local fallback sweeps it up.
            return
        except Exception as exc:
            if worker is not None:
                # The worker answered coherently; its transport is fine.
                worker.breaker.record_success()
            if (
                self.policy.is_transient(exc)
                and attempts[chunk] + 1 < self.policy.max_attempts
            ):
                attempts[chunk] += 1
                self._note_retry(chunk, attempts[chunk], exc)
                ready_at[chunk] = self._clock() + self.policy.delay_s(
                    attempts[chunk], token=str(chunk)
                )
                pending.append(chunk)
                return
            raise FatalError(
                f"chunk {chunk} failed after {attempts[chunk] + 1} "
                f"attempt(s): {exc}"
            ) from exc
        if worker is not None:
            worker.breaker.record_success()
        wall_s = self._clock() - lease.started
        if not self._deliver(
            chunk, pairs, results, lease.worker_id, on_chunk_done
        ):
            return
        metrics().counter(
            "repro_dispatch_remote_chunks_total",
            "chunks completed by remote workers",
        ).inc()
        metrics().histogram(
            "repro_dispatch_chunk_seconds",
            "remote chunk wall time, lease issue to delivery",
        ).observe(wall_s)
        self.records.extend(spans)

    def _deliver(
        self, chunk, pairs, results, worker_id, on_chunk_done
    ) -> bool:
        """Hand one chunk's result to the engine callback, at most once."""
        if chunk in results:
            self._note_duplicate(chunk, worker_id)
            return False
        results[chunk] = pairs
        if on_chunk_done is not None:
            on_chunk_done(chunk, pairs)
        return True

    def _worker_state(self, worker_id: str) -> WorkerState | None:
        for state in self.plane.registry.workers():
            if state.worker_id == worker_id:
                return state
        return None

    # -- local degradation -------------------------------------------------

    def _run_local_fallback(
        self, chunks, remaining, results, on_chunk_done
    ) -> None:
        """Finish leftover chunks on the local pool.

        The fault plan is *not* forwarded: planned faults are a
        property of the remote attempt that already fired (and likely
        caused this fallback); the degraded path exists to complete the
        sweep, and results are fault-independent by construction.
        """
        self._note_local_fallback(len(remaining))
        fallback = ResilientExecutor(
            policy=self.policy,
            fault_plan=None,
            span=self.span,
            sleep=self._sleep,
            trace_ctx=self.trace_ctx,
            pool=self.pool,
            deadline=self.deadline,
        )

        def relay(j: int, pairs: ChunkResult) -> None:
            self._deliver(remaining[j], pairs, results, "local", on_chunk_done)

        fallback.run([chunks[i] for i in remaining], on_chunk_done=relay)
        self.records.extend(fallback.records)
        self.handoffs.extend(fallback.handoffs)
        local = fallback.report
        self.report.retries += local.retries
        self.report.timeouts += local.timeouts
        self.report.lost_chunks += local.lost_chunks
        self.report.pool_respawns += local.pool_respawns
        self.report.serial_fallback = (
            self.report.serial_fallback or local.serial_fallback
        )

    # -- notes (counter + span event + log) --------------------------------

    def _event(self, name: str, **attrs) -> None:
        if self.span is not None:
            self.span.event(name, **attrs)
        else:
            obs.event(name, **attrs)

    def _note_failover(self, lease: _Lease, attempt: int, exc) -> None:
        metrics().counter(
            "repro_dispatch_failovers_total",
            "leases lost to dead or expired workers and re-enqueued",
        ).inc()
        self._event(
            "dispatch.failover",
            chunk=lease.chunk, attempt=attempt,
            worker_id=lease.worker_id, error=str(exc),
        )
        _LOG.warning(
            "chunk %d: lease on worker %s lost (%s); failing over",
            lease.chunk, lease.worker_id, exc,
        )

    def _note_lease_expired(self, lease: _Lease) -> None:
        self.report.timeouts += 1
        metrics().counter(
            "repro_dispatch_lease_expired_total",
            "chunk leases that ran out their deadline",
        ).inc()
        self._event(
            "dispatch.lease_expired",
            chunk=lease.chunk, attempt=lease.attempt,
            worker_id=lease.worker_id, lease_s=self._lease_timeout_s,
        )

    def _note_retry(self, chunk: int, attempt: int, exc) -> None:
        self.report.retries += 1
        metrics().counter(
            "repro_engine_retries_total", "sweep chunks re-queued after faults"
        ).inc()
        self._event("engine.retry", chunk=chunk, attempt=attempt, error=str(exc))
        _LOG.warning(
            "chunk %d: transient failure on worker (%s); retry %d/%d",
            chunk, exc, attempt, self.policy.max_attempts - 1,
        )

    def _note_duplicate(self, chunk: int, worker_id: str) -> None:
        metrics().counter(
            "repro_dispatch_duplicate_results_total",
            "completed chunks discarded because the chunk was already "
            "delivered",
        ).inc()
        self._event(
            "dispatch.duplicate_result", chunk=chunk, worker_id=worker_id
        )

    def _note_local_fallback(self, n_chunks: int) -> None:
        metrics().counter(
            "repro_dispatch_local_fallbacks_total",
            "chunk sets degraded to the local pool (no healthy workers "
            "or failover budget exhausted)",
        ).inc()
        self._event("dispatch.local_fallback", n_chunks=n_chunks)
        _LOG.warning(
            "dispatch plane degrading %d chunk(s) to the local pool",
            n_chunks,
        )


class DispatchPlane:
    """The engine-facing factory over a :class:`WorkerRegistry`."""

    def __init__(
        self,
        policy: DispatchPolicy | None = None,
        registry: WorkerRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else DispatchPolicy()
        self.clock = clock
        self.registry = (
            registry
            if registry is not None
            else WorkerRegistry(self.policy, clock=clock)
        )

    def ready(self) -> bool:
        """Whether at least one healthy worker can take a lease."""
        return bool(self.registry.healthy())

    def executor(
        self,
        *,
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        span=None,
        trace_ctx: TraceContext | None = None,
        pool: WorkerPool | None = None,
        deadline: float | None = None,
    ) -> RemoteExecutor | None:
        """A :class:`RemoteExecutor` for this batch, or ``None``.

        ``None`` means "use the local pool": returned silently when no
        worker was ever registered (plain local mode), and with a
        ``dispatch.local_fallback`` note when workers exist but none is
        currently healthy.
        """
        if not self.registry.workers():
            return None
        if not self.registry.healthy():
            metrics().counter(
                "repro_dispatch_local_fallbacks_total",
                "chunk sets degraded to the local pool (no healthy workers "
                "or failover budget exhausted)",
            ).inc()
            obs.event("dispatch.local_fallback", n_chunks=-1)
            _LOG.warning(
                "workers are registered but none is healthy; "
                "running this batch on the local pool"
            )
            return None
        return RemoteExecutor(
            self,
            policy=policy,
            fault_plan=fault_plan,
            span=span,
            trace_ctx=trace_ctx,
            pool=pool,
            deadline=deadline,
        )
