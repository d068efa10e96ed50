"""Broker-side dispatch plane: registry, leases, failover, hedging.

The plane is the engine's window onto remote ``repro worker``
processes.  Three pieces cooperate:

:class:`WorkerRegistry`
    Thread-safe roster of registered workers.  Each worker carries its
    own :class:`~repro.service.breaker.CircuitBreaker` (the same class
    that guards the broker's engine) so a flapping host is quarantined
    without shedding the whole plane, plus heartbeat bookkeeping: a
    worker that misses ``heartbeat_timeout_s`` is declared dead and its
    leases fail over.

:class:`RemoteExecutor`
    Drop-in sibling of :class:`~repro.resilience.ResilientExecutor`
    behind the engine's executor seam.  Chunks are assigned to workers
    under **time-bounded leases** (the lease deadline doubles as the
    HTTP timeout); a dead connection, an expired lease, or a reaped
    worker re-enqueues the chunk onto the next healthy worker.  When
    the queue drains but leases are still outstanding, the slowest are
    **hedged**: after a deterministic percentile-based delay the chunk
    is re-issued to a second worker and the first result wins.  Every
    delivery is deduplicated by the chunk's **cell content-address**
    before it reaches the engine, so double-completion after a
    failover or hedge can never double-write the cache.

:class:`DispatchPlane`
    The factory the engine holds.  ``executor(...)`` returns a
    :class:`RemoteExecutor` when healthy workers exist and ``None``
    otherwise — the ``None`` is the whole cost of the feature when no
    workers are registered, which keeps the local hot path unchanged.

Everything is observable: ``repro_dispatch_*`` metrics plus
``dispatch.*`` span events (see :mod:`repro.obs.names`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import urlsplit

from repro.dispatch.wire import decode_pairs, encode_cells, evaluate_request
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
from repro.obs.stitch import SHARD_SUFFIX, TraceContext
from repro.resilience.executor import (
    ChunkCallback,
    ChunkResult,
    ExecutionReport,
    ResilientExecutor,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import RetryPolicy
from repro.service.breaker import BreakerPolicy, CircuitBreaker

_LOG = logging.getLogger("repro.dispatch.plane")


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
    hedge_percentile, hedge_factor, hedge_min_completed, hedge_floor_s:
        A straggler is hedged once its lease has been outstanding for
        ``max(hedge_floor_s, factor * percentile(completed walls))``,
        computed over this run's completed chunks — deterministic, no
        randomness — and only once ``hedge_min_completed`` chunks have
        finished (before that there is no baseline to call anything a
        straggler against).
    max_lease_failovers:
        Lost leases tolerated per chunk before it stops being offered
        to workers and falls back to local evaluation.
    worker_failure_threshold, worker_breaker_reset_s:
        Per-worker circuit breaker: consecutive transport failures
        before the worker is quarantined, and the cooldown before a
        probe.
    poll_interval_s:
        Scheduler wait quantum while leases are outstanding.
    """

    lease_s: float = 30.0
    heartbeat_interval_s: float = 1.0
    heartbeat_timeout_s: float = 5.0
    hedge_percentile: float = 0.95
    hedge_factor: float = 3.0
    hedge_min_completed: int = 3
    hedge_floor_s: float = 0.05
    max_lease_failovers: int = 3
    worker_failure_threshold: int = 2
    worker_breaker_reset_s: float = 5.0
    poll_interval_s: float = 0.02

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
        if not 0.0 < self.hedge_percentile <= 1.0:
            raise ServiceError(
                f"hedge_percentile must be in (0, 1], got {self.hedge_percentile}"
            )
        if self.hedge_factor < 1.0:
            raise ServiceError(
                f"hedge_factor must be >= 1, got {self.hedge_factor}"
            )
        if self.hedge_min_completed < 1:
            raise ServiceError(
                f"hedge_min_completed must be >= 1, got {self.hedge_min_completed}"
            )
        if self.max_lease_failovers < 0:
            raise ServiceError(
                f"max_lease_failovers must be >= 0, got {self.max_lease_failovers}"
            )
        if self.poll_interval_s <= 0:
            raise ServiceError(
                f"poll_interval_s must be > 0, got {self.poll_interval_s}"
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


def _post_json(
    base_url: str, path: str, document: dict, timeout_s: float
) -> tuple[int, dict]:
    """One JSON POST to a worker; raises ``OSError`` family on transport."""
    parts = urlsplit(base_url)
    if parts.hostname is None:
        raise ServiceError(f"malformed worker url {base_url!r}")
    conn = HTTPConnection(parts.hostname, parts.port, timeout=timeout_s)
    try:
        body = json.dumps(document).encode("utf-8")
        conn.request(
            "POST",
            path,
            body=body,
            headers={
                "Content-Type": "application/json",
                "Content-Length": str(len(body)),
            },
        )
        response = conn.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else {})
    finally:
        conn.close()


def hedge_delay_s(walls: Sequence[float], policy: DispatchPolicy) -> float:
    """Deterministic straggler threshold from completed chunk walls.

    The nearest-rank percentile of the observed walls, scaled by the
    hedge factor and floored — pure arithmetic over this run's own
    completions, so the same run hedges at the same instant every time.
    """
    ordered = sorted(walls)
    rank = max(0, min(len(ordered) - 1,
                      int(policy.hedge_percentile * len(ordered) + 0.999999) - 1))
    return max(policy.hedge_floor_s, ordered[rank] * policy.hedge_factor)


@dataclass
class _Lease:
    """One outstanding evaluate call."""

    chunk: int
    attempt: int
    worker_id: str
    url: str
    started: float
    hedge: bool = False


class RemoteExecutor:
    """Drives chunks over the worker plane; the engine's remote seam.

    Mirrors :class:`~repro.resilience.ResilientExecutor`'s construction
    and ``run`` contract (including ``ExecutionReport``), so the engine
    treats both identically.  Lease losses are reported as
    ``lost_chunks``, expired leases additionally as ``timeouts``, and a
    mid-run degradation to the local pool sets ``serial_fallback``
    semantics via the wrapped local executor's own report.
    """

    def __init__(
        self,
        plane: "DispatchPlane",
        jobs: int,
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        span=None,
        sleep: Callable[[float], None] = time.sleep,
        trace_ctx: TraceContext | None = None,
        shard_dir: str | None = None,
    ) -> None:
        self.plane = plane
        self.jobs = jobs
        self.policy = policy if policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.span = span
        self._sleep = sleep
        self.trace_ctx = trace_ctx
        self.shard_dir = shard_dir
        self._clock = plane.clock
        self.report = ExecutionReport()
        # The lease deadline never outlives the engine's per-chunk
        # timeout: whichever is tighter bounds the evaluate call.
        lease_s = plane.policy.lease_s
        if self.policy.timeout_s is not None:
            lease_s = min(lease_s, self.policy.timeout_s)
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
        if not chunks:
            return []
        n = len(chunks)
        # Content address per chunk: deliveries are deduplicated on it,
        # so a hedge loser or post-failover double completion can never
        # reach the cache-writing callback twice.
        self._content_keys = [
            hashlib.sha256(
                json.dumps(encode_cells(c), sort_keys=True).encode("utf-8")
            ).hexdigest()[:16]
            for c in chunks
        ]
        results: dict[int, ChunkResult] = {}
        delivered: set[str] = set()
        attempts = {i: 0 for i in range(n)}
        lease_failures = {i: 0 for i in range(n)}
        ready_at = {i: 0.0 for i in range(n)}
        pending: list[int] = list(range(n))
        completed_walls: list[float] = []
        hedged: set[int] = set()
        inflight: dict[Future, _Lease] = {}
        outstanding: dict[int, list[_Lease]] = {}
        slots = sum(w.slots for w in self.plane.registry.workers())
        pool = ThreadPoolExecutor(
            max_workers=max(2, min(32, 2 * max(1, slots))),
            thread_name_prefix="repro-dispatch",
        )
        try:
            while pending or inflight:
                self._assign(
                    pool, chunks, pending, attempts, ready_at,
                    inflight, outstanding,
                )
                if not inflight:
                    if not pending:
                        break
                    if not self.plane.registry.healthy():
                        break  # nobody left to lease to: go local below
                    self._sleep(self.plane.policy.poll_interval_s)
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=self.plane.policy.poll_interval_s,
                    return_when=FIRST_COMPLETED,
                )
                for fut in done:
                    self._harvest(
                        fut, inflight.pop(fut), chunks, pending, attempts,
                        lease_failures, ready_at, results, delivered,
                        completed_walls, outstanding, on_chunk_done,
                    )
                self._maybe_hedge(
                    pool, chunks, pending, attempts, results,
                    completed_walls, hedged, inflight, outstanding,
                )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        remaining = sorted(i for i in range(n) if i not in results)
        if remaining:
            self._run_local_fallback(
                chunks, remaining, results, delivered, on_chunk_done
            )
        return [results[i] for i in range(n)]

    # -- scheduling --------------------------------------------------------

    def _assign(
        self, pool, chunks, pending, attempts, ready_at, inflight, outstanding
    ) -> None:
        if not pending:
            return
        now = self._clock()
        for i in sorted(pending):
            if ready_at[i] > now:
                continue
            worker = self._pick_worker(outstanding_chunk=None, exclude=frozenset())
            if worker is None:
                return
            pending.remove(i)
            self._issue(pool, worker, chunks, i, attempts[i],
                        inflight, outstanding, hedge=False)

    def _pick_worker(self, outstanding_chunk, exclude) -> WorkerState | None:
        candidates = [
            w
            for w in self.plane.registry.healthy()
            if w.worker_id not in exclude and len(w.leases) < w.slots
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda w: (len(w.leases), w.worker_id))

    def _issue(
        self, pool, worker, chunks, chunk, attempt, inflight, outstanding,
        hedge,
    ) -> None:
        self.plane.registry.lease(worker.worker_id, chunk)
        lease = _Lease(
            chunk=chunk,
            attempt=attempt,
            worker_id=worker.worker_id,
            url=worker.url,
            started=self._clock(),
            hedge=hedge,
        )
        future = pool.submit(self._call, lease, chunks[chunk])
        inflight[future] = lease
        outstanding.setdefault(chunk, []).append(lease)

    def _maybe_hedge(
        self, pool, chunks, pending, attempts, results,
        completed_walls, hedged, inflight, outstanding,
    ) -> None:
        policy = self.plane.policy
        if pending or len(completed_walls) < policy.hedge_min_completed:
            return
        delay_s = hedge_delay_s(completed_walls, policy)
        now = self._clock()
        for lease in list(inflight.values()):
            chunk = lease.chunk
            if chunk in hedged or chunk in results:
                continue
            if len(outstanding.get(chunk, [])) > 1:
                continue
            if now - lease.started < delay_s:
                continue
            worker = self._pick_worker(
                outstanding_chunk=chunk, exclude=frozenset({lease.worker_id})
            )
            if worker is None:
                return
            hedged.add(chunk)
            # The straggler's attempt is written off, exactly as the
            # local executor charges chunks lost to a pool death — the
            # hedge runs as a fresh attempt so a planned fault does not
            # re-fire on the rescuer.
            attempts[chunk] += 1
            self._note_hedge(chunk, attempts[chunk], lease, worker, delay_s)
            self._issue(pool, worker, chunks, chunk, attempts[chunk],
                        inflight, outstanding, hedge=True)

    # -- one evaluate call -------------------------------------------------

    def _call(self, lease: _Lease, cells: list[SweepCell]):
        body = evaluate_request(
            cells, lease.chunk, lease.attempt,
            plan=self.fault_plan, trace=self.trace_ctx,
        )
        try:
            status, doc = _post_json(
                lease.url, "/v1/evaluate", body, timeout_s=self._lease_timeout_s
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
            spans = doc.get("spans") or []
            return pairs, spans
        message = str(doc.get("error") or f"HTTP {status}")
        if doc.get("transient"):
            raise TransientError(message)
        raise EngineError(
            f"worker {lease.worker_id} failed chunk {lease.chunk}: {message}"
        )

    # -- harvesting --------------------------------------------------------

    def _harvest(
        self, future, lease, chunks, pending, attempts, lease_failures,
        ready_at, results, delivered, completed_walls, outstanding,
        on_chunk_done,
    ) -> None:
        chunk = lease.chunk
        leases = outstanding.get(chunk, [])
        if lease in leases:
            leases.remove(lease)
        self.plane.registry.release(lease.worker_id, chunk)
        worker = self._worker_state(lease.worker_id)
        try:
            pairs, spans = future.result()
        except WorkerLostError as exc:
            if worker is not None:
                worker.breaker.record_failure()
            if getattr(exc, "lease_expired", False):
                self._note_lease_expired(lease)
            if chunk in results:
                return  # a hedge already rescued this chunk
            if leases:
                return  # a sibling lease is still working the chunk
            attempts[chunk] += 1  # advance the fault schedule, like _reap_after_death
            lease_failures[chunk] += 1
            self.report.lost_chunks += 1
            self._note_failover(lease, attempts[chunk], exc)
            if lease_failures[chunk] <= self.plane.policy.max_lease_failovers:
                ready_at[chunk] = self._clock()
                pending.append(chunk)
            # else: left unscheduled; the local fallback sweeps it up.
            return
        except Exception as exc:
            if worker is not None:
                # The worker answered coherently; its transport is fine.
                worker.breaker.record_success()
            if chunk in results:
                return
            if (
                self.policy.is_transient(exc)
                and attempts[chunk] + 1 < self.policy.max_attempts
            ):
                attempts[chunk] += 1
                self._note_retry(chunk, attempts[chunk], exc)
                ready_at[chunk] = self._clock() + self.policy.delay_s(
                    attempts[chunk], token=str(chunk)
                )
                if chunk not in pending:
                    pending.append(chunk)
                return
            raise FatalError(
                f"chunk {chunk} failed after {attempts[chunk] + 1} "
                f"attempt(s): {exc}"
            ) from exc
        if worker is not None:
            worker.breaker.record_success()
        wall_s = self._clock() - lease.started
        if not self._deliver(chunk, pairs, results, delivered, lease,
                             on_chunk_done):
            return
        completed_walls.append(wall_s)
        metrics().counter(
            "repro_dispatch_remote_chunks_total",
            "chunks completed by remote workers",
        ).inc()
        metrics().histogram(
            "repro_dispatch_chunk_seconds",
            "remote chunk wall time, lease issue to delivery",
        ).observe(wall_s)
        if lease.hedge:
            self._note_hedge_win(lease, wall_s)
        self._write_spans(spans, lease)

    def _deliver(
        self, chunk, pairs, results, delivered, lease, on_chunk_done
    ) -> bool:
        """Content-addressed dedup in front of the engine callback."""
        key = self._content_keys[chunk]
        if key in delivered or chunk in results:
            self._note_duplicate(lease, key)
            return False
        delivered.add(key)
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
        self, chunks, remaining, results, delivered, on_chunk_done
    ) -> None:
        """Finish leftover chunks on the local pool.

        The fault plan is *not* forwarded: planned faults are a
        property of the remote attempt that already fired (and likely
        caused this fallback); the degraded path exists to complete the
        sweep, and results are fault-independent by construction.
        """
        self._note_local_fallback(len(remaining))
        fallback = ResilientExecutor(
            jobs=self.jobs,
            policy=self.policy,
            fault_plan=None,
            span=self.span,
            sleep=self._sleep,
            trace_ctx=self.trace_ctx,
            shard_dir=self.shard_dir,
        )
        index_of = {j: i for j, i in enumerate(remaining)}

        def relay(j: int, pairs: ChunkResult) -> None:
            chunk = index_of[j]
            key = self._content_keys[chunk]
            if key in delivered or chunk in results:
                return
            delivered.add(key)
            results[chunk] = pairs
            if on_chunk_done is not None:
                on_chunk_done(chunk, pairs)

        fallback.run([chunks[i] for i in remaining], on_chunk_done=relay)
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

    def _note_hedge(self, chunk, attempt, slow_lease, worker, delay_s) -> None:
        metrics().counter(
            "repro_dispatch_hedges_total",
            "straggler leases re-issued to a second worker",
        ).inc()
        self._event(
            "dispatch.hedge",
            chunk=chunk, attempt=attempt,
            slow_worker=slow_lease.worker_id, hedge_worker=worker.worker_id,
            threshold_s=delay_s,
        )
        _LOG.info(
            "chunk %d: outstanding past %.3gs on worker %s; hedging to %s",
            chunk, delay_s, slow_lease.worker_id, worker.worker_id,
        )

    def _note_hedge_win(self, lease: _Lease, wall_s: float) -> None:
        metrics().counter(
            "repro_dispatch_hedge_wins_total",
            "hedged re-issues that beat the original lease",
        ).inc()
        self._event(
            "dispatch.hedge_win",
            chunk=lease.chunk, worker_id=lease.worker_id, wall_s=wall_s,
        )

    def _note_duplicate(self, lease: _Lease, key: str) -> None:
        metrics().counter(
            "repro_dispatch_duplicate_results_total",
            "completed leases discarded because the chunk was already "
            "delivered (hedge losers, post-failover double completion)",
        ).inc()
        self._event(
            "dispatch.duplicate_result",
            chunk=lease.chunk, worker_id=lease.worker_id, content_key=key,
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

    def _write_spans(self, spans: list, lease: _Lease) -> None:
        """Drop a worker's span records into the engine's shard dir.

        Written as one more ``*.spans.jsonl`` shard so the engine's
        existing :func:`~repro.obs.stitch.stitch_shards` pass merges
        remote spans exactly like local pool shards.
        """
        if not self.shard_dir or not spans:
            return
        name = (
            f"remote-chunk-{lease.chunk:04d}-attempt-{lease.attempt}"
            f"-{lease.worker_id}{SHARD_SUFFIX}"
        )
        path = Path(self.shard_dir) / name
        with open(path, "w", encoding="utf-8") as fh:
            for record in spans:
                if isinstance(record, dict):
                    fh.write(json.dumps(record) + "\n")


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
        jobs: int,
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        span=None,
        trace_ctx: TraceContext | None = None,
        shard_dir: str | None = None,
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
            jobs=jobs,
            policy=policy,
            fault_plan=fault_plan,
            span=span,
            trace_ctx=trace_ctx,
            shard_dir=shard_dir,
        )
