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
* after ``max_pool_respawns`` pool deaths the executor **degrades to
  serial** in-process evaluation of whatever is still pending, which
  trades parallelism for certain completion;
* any **non-transient exception** escalates immediately as
  :class:`~repro.errors.FatalError` — sweep cells are deterministic, so
  retrying a real bug only wastes time.

Completed chunks are delivered through the ``on_chunk_done`` callback
*as they finish* (result-cache writes hang off it, so an
interrupted run preserves its progress), and the final result list is
assembled strictly in chunk order — the resilience machinery never
perturbs result ordering.

Every recovery action is surfaced through the ``repro.obs`` stack: a
span event (``engine.retry``, ``engine.chunk_timeout``,
``engine.chunk_lost``, ``engine.pool_respawn``,
``engine.serial_fallback``) plus a metrics counter of the same family
(see ``docs/resilience.md`` for the catalog).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.engine.cells import SweepCell
from repro.errors import FatalError
from repro.obs.metrics import metrics
from repro.obs.stitch import TraceContext
from repro.resilience.faults import FaultPlan, evaluate_chunk_with_faults
from repro.resilience.policy import RetryPolicy

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

#: One chunk's results: (payload, wall_s) per cell, in cell order.
ChunkResult = list[tuple[dict, float]]

#: Callback invoked as each chunk completes: (chunk_index, results).
ChunkCallback = Callable[[int, ChunkResult], None]

_LOG = logging.getLogger("repro.resilience.executor")


@dataclass
class ExecutionReport:
    """What one :meth:`ResilientExecutor.run` had to survive."""

    retries: int = 0
    timeouts: int = 0
    lost_chunks: int = 0
    pool_respawns: int = 0
    serial_fallback: bool = False


class ResilientExecutor:
    """Drives chunks of sweep cells to completion despite faults."""

    def __init__(
        self,
        jobs: int,
        policy: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        span=None,
        sleep: Callable[[float], None] = time.sleep,
        trace_ctx: TraceContext | None = None,
        shard_dir: str | None = None,
    ) -> None:
        self.jobs = jobs
        self.policy = policy if policy is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.span = span
        self._sleep = sleep
        # Cross-process tracing: pooled chunks receive the parent's
        # TraceContext and write span shards under shard_dir (stitched
        # by the engine afterwards).  The serial path ignores both —
        # in-process spans reach the active tracer directly.
        self.trace_ctx = trace_ctx
        self.shard_dir = shard_dir
        self.report = ExecutionReport()

    # -- public API --------------------------------------------------------

    def run(
        self,
        chunks: Sequence[Sequence[SweepCell]],
        on_chunk_done: ChunkCallback | None = None,
    ) -> list[ChunkResult]:
        """Evaluate every chunk, returning results in chunk order."""
        chunks = [list(c) for c in chunks]
        self.report = ExecutionReport()
        if not chunks:
            return []
        results: dict[int, ChunkResult] = {}
        attempts = {i: 0 for i in range(len(chunks))}
        pending = set(range(len(chunks)))
        if self.jobs == 1 or len(chunks) == 1:
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
            died = self._run_pooled(chunks, pending, attempts, results, on_chunk_done)
            if died:
                pool_deaths += 1
                if pending and pool_deaths <= self.policy.max_pool_respawns:
                    self._note_respawn(pool_deaths)

    def _run_pooled(self, chunks, pending, attempts, results, on_chunk_done) -> bool:
        """One pool's lifetime; returns whether it died (crash or hang)."""
        # Imported here, not at module level: a serial run (and every
        # CLI start) never loads the process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeoutError
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing import get_context

        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(pending)),
            mp_context=get_context("spawn"),
        )
        died = kill = False
        try:
            while pending and not died:
                order = sorted(pending)
                futures: dict[int, Future] = {}
                retried: list[int] = []
                try:
                    for i in order:
                        futures[i] = pool.submit(
                            evaluate_chunk_with_faults,
                            chunks[i],
                            self.fault_plan,
                            i,
                            attempts[i],
                            trace=self.trace_ctx,
                            shard_dir=self.shard_dir,
                        )
                    for i in order:
                        try:
                            pairs = futures[i].result(timeout=self.policy.timeout_s)
                        except FuturesTimeoutError:
                            self._note_timeout(i, attempts[i])
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
                            self._complete(i, pairs, pending, results, on_chunk_done)
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
            self._shutdown(pool, kill=kill)
        return died

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
                    pairs = fut.result(timeout=0)
                except Exception:
                    pass  # broke with the pool: fall through to lost
                else:
                    self._complete(i, pairs, pending, results, on_chunk_done)
                    continue
            attempts[i] += 1
            self._note_lost(i, attempts[i])

    def _shutdown(self, pool: ProcessPoolExecutor, kill: bool) -> None:
        if kill:
            # ProcessPoolExecutor cannot cancel running work; killing
            # the workers is the only way to reclaim a hung pool.
            processes = getattr(pool, "_processes", None) or {}
            for proc in list(processes.values()):
                try:
                    proc.terminate()
                except Exception:  # racing a worker that already exited
                    pass
        try:
            pool.shutdown(wait=True, cancel_futures=kill)
        except Exception as exc:
            _LOG.warning("pool shutdown after fault raised %s (ignored)", exc)

    # -- serial path -------------------------------------------------------

    def _run_serial(self, chunks, pending, attempts, results, on_chunk_done):
        for i in sorted(pending):
            while True:
                try:
                    pairs = evaluate_chunk_with_faults(
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
                    self._complete(i, pairs, pending, results, on_chunk_done)
                    break

    # -- bookkeeping -------------------------------------------------------

    def _complete(self, i, pairs, pending, results, on_chunk_done) -> None:
        results[i] = pairs
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

    def _note_timeout(self, chunk: int, attempt: int) -> None:
        self.report.timeouts += 1
        metrics().counter(
            "repro_engine_chunk_timeouts_total",
            "sweep chunks that missed the per-chunk deadline",
        ).inc()
        self._event(
            "engine.chunk_timeout",
            chunk=chunk, attempt=attempt, timeout_s=self.policy.timeout_s,
        )
        _LOG.warning(
            "chunk %d: no result within %.3gs; killing the worker pool",
            chunk, self.policy.timeout_s,
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
