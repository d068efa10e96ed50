"""Resilient chunk execution: retries, timeouts, pool recovery, fallback.

:class:`ResilientExecutor` runs a list of sweep-cell chunks to
completion through every failure mode the engine knows how to survive:

* a **transient exception** in a worker re-queues the chunk after the
  policy's backoff, up to ``max_attempts`` tries;
* a **worker crash** (``BrokenProcessPool``) kills every in-flight
  future; finished chunks are harvested, lost ones re-queued, and the
  pool respawned;
* a **hung worker** (a chunk missing the per-chunk ``timeout_s``) is
  unrecoverable in-place — ``ProcessPoolExecutor`` cannot cancel
  running work — so the pool's processes are terminated and the pool is
  treated exactly like a crashed one;
* a **passed deadline** (the caller's absolute ``deadline``, which ends
  any chunk wait that would outlast it) discards the pool the same way
  but ends the run with :class:`~repro.errors.DeadlineExceededError`:
  the caller's budget is gone, so nothing is re-run;
* a dead pool is **replaced**: the next round (or the next run, for a
  :class:`WorkerPool` that outlives runs) starts a fresh one;
* after ``max_pool_respawns`` pool deaths the executor **degrades to
  serial** in-process evaluation of whatever is still pending, which
  trades parallelism for certain completion;
* any **non-transient exception** escalates immediately as
  :class:`~repro.errors.FatalError` — sweep cells are deterministic, so
  retrying a real bug only wastes time.

The pool is a :class:`WorkerPool`: ``spawn`` workers that ignore
SIGINT (the parent owns shutdown) and exit on their own when the parent
process dies.  An engine owns one for its lifetime and hands it to each
pooled run; a run given no pool evaluates inline.

Completed chunks are delivered through the ``on_chunk_done`` callback
*as they finish* (result-cache writes hang off it, so an
interrupted run preserves its progress), and the final result list is
assembled strictly in chunk order — the resilience machinery never
perturbs result ordering.  The span records a traced pooled chunk
returns with its result are collected on ``records`` for the engine to
stitch.

Every recovery action is surfaced through the ``repro.obs`` stack: a
span event (``engine.retry``, ``engine.chunk_timeout``,
``engine.chunk_lost``, ``engine.pool_respawn``,
``engine.serial_fallback``) plus a metrics counter of the same family
(see ``docs/resilience.md`` for the catalog).
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.engine.cells import SweepCell
from repro.errors import DeadlineExceededError, FatalError
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.resilience.faults import FaultPlan, evaluate_chunk_with_faults
from repro.resilience.policy import RetryPolicy

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    from repro.obs.stitch import TraceContext

#: One chunk's results: (payload, wall_s) per cell, in cell order.
ChunkResult = list[tuple[dict, float]]

#: Callback invoked as each chunk completes: (chunk_index, results).
ChunkCallback = Callable[[int, ChunkResult], None]

_LOG = logging.getLogger("repro.resilience.executor")


@dataclass(frozen=True)
class Handoff:
    """When one chunk went to a pool worker and when its result came back.

    Wall-clock seconds, comparable with the worker's span timestamps:
    the gaps either side of the worker's ``engine.worker`` span are the
    pool's pickling and transport legs.
    """

    chunk: int
    attempt: int
    sent_ts: float
    received_ts: float


@dataclass
class ExecutionReport:
    """What one :meth:`ResilientExecutor.run` had to survive."""

    retries: int = 0
    timeouts: int = 0
    lost_chunks: int = 0
    pool_respawns: int = 0
    serial_fallback: bool = False


def _init_worker() -> None:
    """Pool-worker start-up: leave SIGINT to the parent, die with it.

    A terminal's Ctrl-C reaches the whole process group; the parent
    drains and ends the pool, so a worker must not die mid-chunk on it.
    A worker whose parent is SIGKILLed would block on the call queue
    forever, so a daemon thread waits on the parent's sentinel and
    exits the worker when it fires.
    """
    import signal
    from multiprocessing import parent_process

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with_parent, args=(parent.sentinel,),
            name="repro-parent-watch", daemon=True,
        ).start()


def _exit_with_parent(sentinel: int) -> None:
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _ready() -> None:
    """A no-op task: its result means a worker has booted."""


class WorkerPool:
    """A ``spawn`` process pool started on first use and kept until closed.

    Building one starts no process and imports no pool module.  The
    first :meth:`executor` call starts the pool and waits until its
    workers have booted, in an ``engine.pool_start`` span; later calls
    return the same pool until a run discards it after a crash or hang,
    after which the next call starts a fresh one.  :meth:`close` ends
    it; the object stays usable and starts a new pool on demand.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def executor(self) -> ProcessPoolExecutor:
        """The live pool, started if there is none.

        Raises ``BrokenProcessPool`` when a new pool's workers die
        while booting; the broken pool is discarded.
        """
        with self._lock:
            if self._executor is None:
                self._executor = self._start()
            return self._executor

    def _start(self) -> ProcessPoolExecutor:
        # Imported here, not at module level: a serial run (and every
        # CLI start) never loads the pool machinery.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with obs.span("engine.pool_start", level="engine", workers=self.workers):
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context("spawn"),
                initializer=_init_worker,
            )
            # Workers spawn on demand, one per task that finds none idle:
            # one no-op per worker boots them all now, so the first
            # chunks do not wait on interpreter start-up untraced.
            try:
                for ready in [pool.submit(_ready) for _ in range(self.workers)]:
                    ready.result()
            except BaseException:
                _kill(pool)
                raise
        return pool

    def discard(self, pool: ProcessPoolExecutor) -> None:
        """Kill a dead or fatally failed pool; the next call starts anew."""
        with self._lock:
            if self._executor is pool:
                self._executor = None
        _kill(pool)

    def close(self) -> None:
        """End the pool, if one is running, and wait for its workers."""
        with self._lock:
            pool, self._executor = self._executor, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _kill(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers and reap them."""
    # ProcessPoolExecutor cannot cancel running work; killing the
    # workers is the only way to reclaim a hung pool.
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.terminate()
        except Exception:  # racing a worker that already exited
            pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception as exc:
        _LOG.warning("pool shutdown after fault raised %s (ignored)", exc)


class ResilientExecutor:
    """Drives chunks of sweep cells to completion despite faults.

    ``pool`` is the :class:`WorkerPool` to evaluate in; it outlives the
    run.  Without one, the run evaluates inline.  ``deadline`` is an
    absolute :func:`time.monotonic` time that bounds every pooled chunk
    wait; the inline path cannot be interrupted and ignores it.
    """

    def __init__(
        self,
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        span=None,
        sleep: Callable[[float], None] = time.sleep,
        trace_ctx: TraceContext | None = None,
        pool: WorkerPool | None = None,
        deadline: float | None = None,
    ) -> None:
        self.pool = pool
        self.deadline = deadline
        self.policy = policy if policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.span = span
        self._sleep = sleep
        # Cross-process tracing: pooled chunks receive the parent's
        # TraceContext and return their span records with their results.
        # The serial path ignores it — in-process spans reach the active
        # tracer directly.
        self.trace_ctx = trace_ctx
        self.report = ExecutionReport()
        #: The span records of every pooled chunk delivered while tracing.
        self.records: list[dict] = []
        #: One :class:`Handoff` per pooled chunk returned while tracing.
        self.handoffs: list[Handoff] = []

    # -- public API --------------------------------------------------------

    def run(
        self,
        chunks: Sequence[Sequence[SweepCell]],
        on_chunk_done: ChunkCallback | None = None,
    ) -> list[ChunkResult]:
        """Evaluate every chunk, returning results in chunk order."""
        chunks = [list(c) for c in chunks]
        self.report = ExecutionReport()
        self.records = []
        self.handoffs = []
        if not chunks:
            return []
        results: dict[int, ChunkResult] = {}
        attempts = {i: 0 for i in range(len(chunks))}
        pending = set(range(len(chunks)))
        if self.pool is None:
            self._run_serial(chunks, pending, attempts, results, on_chunk_done)
        else:
            self._run_parallel(chunks, pending, attempts, results, on_chunk_done)
        return [results[i] for i in range(len(chunks))]

    # -- parallel path -----------------------------------------------------

    def _run_parallel(self, chunks, pending, attempts, results, on_chunk_done):
        pool_deaths = 0
        while pending:
            if pool_deaths > self.policy.max_pool_respawns:
                self._note_serial_fallback(pool_deaths)
                self._run_serial(chunks, pending, attempts, results, on_chunk_done)
                return
            died = self._run_pooled(
                chunks, pending, attempts, results, on_chunk_done
            )
            if died:
                pool_deaths += 1
                if pending and pool_deaths <= self.policy.max_pool_respawns:
                    self._note_respawn(pool_deaths)

    def _run_pooled(
        self, chunks, pending, attempts, results, on_chunk_done
    ) -> bool:
        """One pool's share of the run; returns whether it died.

        A crash or hang discards the pool, and so does a fatal chunk
        error, whose sibling chunks would otherwise keep the workers
        busy; the next round, or the next run, starts a fresh pool.
        """
        from concurrent.futures import TimeoutError as FuturesTimeoutError
        from concurrent.futures.process import BrokenProcessPool

        workers = self.pool
        try:
            pool = workers.executor()
        except BrokenProcessPool:
            return True
        traced = self.trace_ctx is not None
        died = kill = False
        try:
            while pending and not died:
                order = sorted(pending)
                futures: dict[int, Future] = {}
                sent: dict[int, float] = {}
                retried: list[int] = []
                try:
                    for i in order:
                        if traced:
                            sent[i] = time.time()
                        futures[i] = pool.submit(
                            evaluate_chunk_with_faults,
                            chunks[i],
                            self.fault_plan,
                            i,
                            attempts[i],
                            trace=self.trace_ctx,
                        )
                    for i in order:
                        timeout, by_deadline = self._wait_s()
                        try:
                            pairs, records = futures[i].result(timeout=timeout)
                        except FuturesTimeoutError:
                            assert timeout is not None  # only a bounded wait
                            self._note_timeout(i, attempts[i], timeout)
                            if by_deadline:
                                kill = True
                                raise DeadlineExceededError(
                                    f"chunk {i} unfinished when the map's "
                                    "deadline passed"
                                ) from None
                            died = True
                            break
                        except BrokenProcessPool:
                            died = True
                            break
                        except Exception as exc:
                            if (
                                self.policy.is_transient(exc)
                                and attempts[i] + 1 < self.policy.max_attempts
                            ):
                                attempts[i] += 1
                                retried.append(i)
                                self._note_retry(i, attempts[i], exc)
                            else:
                                kill = True
                                raise FatalError(
                                    f"chunk {i} failed after {attempts[i] + 1} "
                                    f"attempt(s): {exc}"
                                ) from exc
                        else:
                            if traced:
                                self.handoffs.append(
                                    Handoff(i, attempts[i], sent[i], time.time())
                                )
                            self._complete(
                                i, pairs, records, pending, results, on_chunk_done
                            )
                except BrokenProcessPool:
                    died = True
                if died:
                    kill = True
                    self._reap_after_death(
                        order, futures, pending, attempts, results, on_chunk_done
                    )
                elif retried:
                    # One backoff per round trip: the retried chunks
                    # resubmit together on the next loop iteration.
                    self._sleep(
                        max(
                            self.policy.delay_s(attempts[i], token=str(i))
                            for i in retried
                        )
                    )
        finally:
            if kill:
                workers.discard(pool)
        return died

    def _wait_s(self) -> tuple[float | None, bool]:
        """How long the next chunk wait may last, and whether the
        deadline (rather than the policy's ``timeout_s``) sets it."""
        timeout = self.policy.timeout_s
        if self.deadline is None:
            return timeout, False
        left = max(self.deadline - time.monotonic(), 0.0)
        if timeout is None or left < timeout:
            return left, True
        return timeout, False

    def _reap_after_death(
        self, order, futures, pending, attempts, results, on_chunk_done
    ) -> None:
        """Harvest finished futures of a dead pool; charge the lost ones.

        Charging an attempt to every lost chunk is what moves a
        fault-injection schedule forward: a crash planned at attempt 0
        does not re-fire on the respawned pool's attempt 1.  Lost
        chunks are bounded by the pool-respawn budget (then the serial
        fallback), not by the per-chunk retry budget — a chunk lost to
        a neighbour's crash did nothing wrong.
        """
        for i in order:
            if i not in pending:
                continue
            fut = futures.get(i)
            if fut is not None and fut.done():
                try:
                    pairs, records = fut.result(timeout=0)
                except Exception:
                    pass  # broke with the pool: fall through to lost
                else:
                    self._complete(
                        i, pairs, records, pending, results, on_chunk_done
                    )
                    continue
            attempts[i] += 1
            self._note_lost(i, attempts[i])

    # -- serial path -------------------------------------------------------

    def _run_serial(self, chunks, pending, attempts, results, on_chunk_done):
        for i in sorted(pending):
            while True:
                try:
                    pairs, records = evaluate_chunk_with_faults(
                        chunks[i], self.fault_plan, i, attempts[i], serial=True
                    )
                except Exception as exc:
                    if (
                        self.policy.is_transient(exc)
                        and attempts[i] + 1 < self.policy.max_attempts
                    ):
                        attempts[i] += 1
                        self._note_retry(i, attempts[i], exc)
                        self._sleep(self.policy.delay_s(attempts[i], token=str(i)))
                        continue
                    raise FatalError(
                        f"chunk {i} failed after {attempts[i] + 1} attempt(s): {exc}"
                    ) from exc
                else:
                    self._complete(
                        i, pairs, records, pending, results, on_chunk_done
                    )
                    break

    # -- bookkeeping -------------------------------------------------------

    def _complete(self, i, pairs, records, pending, results, on_chunk_done) -> None:
        results[i] = pairs
        self.records.extend(records)
        pending.discard(i)
        if on_chunk_done is not None:
            on_chunk_done(i, pairs)

    def _event(self, name: str, **attrs) -> None:
        if self.span is not None:
            self.span.event(name, **attrs)

    def _note_retry(self, chunk: int, attempt: int, exc: Exception) -> None:
        self.report.retries += 1
        metrics().counter(
            "repro_engine_retries_total", "sweep chunks re-queued after faults"
        ).inc()
        self._event("engine.retry", chunk=chunk, attempt=attempt, error=str(exc))
        _LOG.warning(
            "chunk %d: transient failure (%s); retry %d/%d",
            chunk, exc, attempt, self.policy.max_attempts - 1,
        )

    def _note_timeout(self, chunk: int, attempt: int, timeout_s: float) -> None:
        self.report.timeouts += 1
        metrics().counter(
            "repro_engine_chunk_timeouts_total",
            "sweep chunks that missed the per-chunk deadline",
        ).inc()
        self._event(
            "engine.chunk_timeout",
            chunk=chunk, attempt=attempt, timeout_s=timeout_s,
        )
        _LOG.warning(
            "chunk %d: no result within %.3gs; killing the worker pool",
            chunk, timeout_s,
        )

    def _note_lost(self, chunk: int, attempt: int) -> None:
        self.report.lost_chunks += 1
        metrics().counter(
            "repro_engine_lost_chunks_total",
            "in-flight sweep chunks lost to pool deaths and re-queued",
        ).inc()
        self._event("engine.chunk_lost", chunk=chunk, attempt=attempt)

    def _note_respawn(self, pool_deaths: int) -> None:
        self.report.pool_respawns += 1
        metrics().counter(
            "repro_engine_pool_respawns_total",
            "worker pools respawned after a crash or hang",
        ).inc()
        self._event("engine.pool_respawn", pool_deaths=pool_deaths)
        _LOG.warning(
            "worker pool died (%d so far); respawning (budget %d)",
            pool_deaths, self.policy.max_pool_respawns,
        )

    def _note_serial_fallback(self, pool_deaths: int) -> None:
        self.report.serial_fallback = True
        metrics().counter(
            "repro_engine_serial_fallbacks_total",
            "sweeps degraded to serial evaluation after repeated pool deaths",
        ).inc()
        self._event("engine.serial_fallback", pool_deaths=pool_deaths)
        _LOG.warning(
            "worker pool died %d times (budget %d); degrading to serial "
            "in-process evaluation",
            pool_deaths, self.policy.max_pool_respawns,
        )
