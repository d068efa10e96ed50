"""The parallel experiment engine.

:class:`ExperimentEngine` evaluates a batch of sweep cells through three
layers, in order:

1. **cache** — cells whose content-address is already on disk are
   served without computing anything;
2. **fan-out** — the remaining cells are split into deterministic
   contiguous chunks and evaluated on the engine's
   :class:`~repro.resilience.WorkerPool`, ``spawn`` workers (the
   portable start method — nothing in a cell may rely on forked
   state) started by the first pooled map and reused by every later
   one, driven by a :class:`~repro.resilience.ResilientExecutor` that
   retries transient failures, replaces crashed pools, times out hung
   workers, and degrades to serial execution past the pool-respawn
   budget;
3. **assembly** — payloads are reassembled strictly in submission
   order, so the result list is independent of worker scheduling *and*
   of any recovery action, and a ``jobs=1`` run is bitwise identical to
   a ``jobs=N`` run — faulted or not.

``jobs=1`` evaluates inline and starts no pool, which is also the
fallback while debugging worker-side failures; a ``pooled`` engine (the
sweep service's) evaluates every miss in its pool, even at ``jobs=1``.
:meth:`ExperimentEngine.close` ends the pool.  Hit/miss
counters are kept on every run; under an active tracer each run is one
``engine.map`` span with one ``engine.cell`` event per cell (see
``docs/observability.md``).  Failure semantics, the fault taxonomy, and
resuming a killed sweep from its result cache are documented in
``docs/resilience.md``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro.engine.cache import ResultCache
from repro.engine.cells import SweepCell
from repro.errors import EngineError
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.resilience.executor import ResilientExecutor, WorkerPool
from repro.resilience.faults import FaultPlan, corrupt_cache_entry
from repro.resilience.policy import RetryPolicy

if TYPE_CHECKING:
    from repro.dispatch.plane import DispatchPlane
    from repro.obs.stitch import TraceContext

#: Chunks submitted per worker: small enough to load-balance uneven
#: cells, large enough to amortise pickling and per-future overhead.
CHUNKS_PER_WORKER: int = 4


@dataclass
class EngineStats:
    """Aggregate counters over every ``map`` call of one engine."""

    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_s: float = 0.0
    busy_s: float = 0.0
    runs: int = 0

    def merge_run(self, hits: int, misses: int, elapsed: float, busy: float) -> None:
        """Fold one run's counters in."""
        self.cells += hits + misses
        self.cache_hits += hits
        self.cache_misses += misses
        self.elapsed_s += elapsed
        self.busy_s += busy
        self.runs += 1


@dataclass
class ExperimentEngine:
    """Runs sweep cells with optional parallelism and caching.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` evaluates inline (no pool) unless the
        engine is ``pooled``.
    cache_dir:
        Directory of the content-addressed result cache; ``None``
        disables caching entirely.
    use_cache:
        ``False`` (the CLI's ``--no-cache``) keeps the directory
        configured but neither reads nor writes it.
    chunk_size:
        Cells per worker chunk; ``None`` (the default) uses the
        ``ceil(n / (jobs * 4))`` load-balancing heuristic.
    retry:
        The :class:`~repro.resilience.RetryPolicy` governing retries,
        per-chunk timeouts and pool respawns; ``None`` uses the policy
        defaults (3 attempts, no timeout, 2 respawns).
    fault_plan:
        Deterministic fault injection for tests and drills; ``None``
        (the default, and the production setting) injects nothing.
    dispatcher:
        A :class:`~repro.dispatch.DispatchPlane` to fan chunks out to
        remote ``repro worker`` processes.  ``None`` (the default)
        keeps everything on the local pool; a plane with no healthy
        workers degrades to the local pool per batch, so attaching one
        never changes results — only where they are computed.
    pooled:
        ``True`` evaluates every cache miss in the worker pool, even at
        ``jobs=1`` or for a single chunk.  The sweep service sets it so
        that no kernel runs in the process of its event loop.

    The pool is started by the first pooled map, reused by every later
    one and ended by :meth:`close` (or leaving a ``with`` block).
    """

    jobs: int = 1
    cache_dir: str | Path | None = None
    use_cache: bool = True
    chunk_size: int | None = None
    retry: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None
    dispatcher: "DispatchPlane | None" = None
    pooled: bool = False
    stats: EngineStats = field(default_factory=EngineStats)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise EngineError(
                f"chunk_size must be >= 1, got {self.chunk_size}; pass None "
                "for the automatic ceil(cells / (jobs * 4)) heuristic"
            )
        if self.cache_dir is not None:
            cache_path = Path(self.cache_dir)
            if str(self.cache_dir) == "":
                raise EngineError(
                    "cache_dir must be a directory path, got an empty string; "
                    "pass None to disable caching"
                )
            if cache_path.exists() and not cache_path.is_dir():
                raise EngineError(
                    f"cache_dir {str(self.cache_dir)!r} exists but is not a "
                    "directory; point it at a directory (it is created on "
                    "first write) or pass None to disable caching"
                )
        self._retry = self.retry if self.retry is not None else RetryPolicy()
        self._cache = (
            ResultCache(self.cache_dir)
            if self.cache_dir is not None and self.use_cache
            else None
        )
        self._pool = WorkerPool(self.jobs)

    def close(self) -> None:
        """End the worker pool, if one was started, and wait for it.

        The engine stays usable: a later pooled map starts a new pool.
        """
        self._pool.close()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- cache passthrough ------------------------------------------------

    @property
    def cache(self) -> ResultCache | None:
        """The active result cache, if any."""
        return self._cache

    def invalidate_cache(self, kind: str | None = None) -> int:
        """Drop cached results (all, or one cell kind); returns count."""
        if self._cache is None:
            return 0
        return self._cache.invalidate(kind)

    # -- execution --------------------------------------------------------

    def run_cell(self, cell: SweepCell) -> dict:
        """Evaluate a single cell (convenience wrapper over :meth:`map`)."""
        return self.map([cell])[0]

    def map(
        self, cells: Sequence[SweepCell], deadline_s: float | None = None
    ) -> list[dict]:
        """Evaluate every cell, returning payloads in submission order.

        ``deadline_s`` is the caller's remaining end-to-end budget,
        fixed as an absolute time when the map starts.  A pooled map
        waits on each chunk until then at most (or the policy's
        ``timeout_s``, if sooner).  When the deadline passes, the pool is
        discarded and :class:`~repro.errors.DeadlineExceededError`
        raised: no respawn, no re-run, no serial fallback.  Chunks that
        finished in time are already in the result cache.  An inline run
        (``jobs=1`` and not ``pooled``, or a single chunk) cannot be
        interrupted, so there the deadline is only enforced by the
        caller afterwards.  The sweep service's engine is ``pooled``,
        so its deadlines bound every chunk's wait at any ``jobs``.
        """
        cells = list(cells)
        with obs.span(
            "engine.map", level="engine",
            jobs=self.jobs, n_cells=len(cells),
            cache_enabled=self._cache is not None,
        ) as span:
            return self._map_traced(cells, span, deadline_s)

    def _map_traced(
        self, cells: list[SweepCell], span, deadline_s: float | None = None
    ) -> list[dict]:
        start = time.perf_counter()
        self._apply_cache_corruption_faults(cells)

        payloads: list[dict | None] = [None] * len(cells)
        walls: list[float] = [0.0] * len(cells)
        sources: list[str] = ["computed"] * len(cells)
        keys: list[str | None] = [None] * len(cells)
        misses: list[int] = []

        for i, cell in enumerate(cells):
            if self._cache is None:
                misses.append(i)
                continue
            keys[i] = self._cache.key(cell)
            probe_start = time.perf_counter()
            hit = self._cache.load(keys[i])
            if hit is None:
                misses.append(i)
            else:
                payloads[i] = hit
                walls[i] = time.perf_counter() - probe_start
                sources[i] = "cache"

        report = None
        if misses:
            report = self._compute(
                cells, misses, keys, payloads, walls, span, deadline_s
            )

        elapsed = time.perf_counter() - start
        busy = sum(walls[i] for i in misses)
        n_hits = len(cells) - len(misses)
        reg = metrics()
        wall_hist = reg.histogram(
            "repro_engine_cell_wall_seconds", "wall time per evaluated sweep cell"
        )
        # One label key per (kind, source) per map, not one per cell.
        observers: dict[tuple[str, str], Callable[[float], None]] = {}
        for i, cell in enumerate(cells):
            labels = (cell.kind, sources[i])
            observe = observers.get(labels)
            if observe is None:
                observe = observers[labels] = wall_hist.labels(
                    kind=cell.kind, source=sources[i]
                )
            observe(walls[i])
            if span.enabled:
                span.event(
                    "engine.cell",
                    index=i, kind=cell.kind, key=keys[i],
                    source=sources[i], wall_s=walls[i],
                )
        self.stats.merge_run(n_hits, len(misses), elapsed, busy)
        reg.counter("repro_engine_runs_total", "engine map() batches").inc()
        reg.counter(
            "repro_engine_cache_hits_total", "sweep cells served from cache"
        ).inc(n_hits)
        reg.counter(
            "repro_engine_cache_misses_total", "sweep cells computed"
        ).inc(len(misses))
        if self.stats.cells:
            reg.gauge(
                "repro_engine_cache_hit_ratio",
                "lifetime cache-hit ratio of this engine",
            ).set(self.stats.cache_hits / self.stats.cells)
        span.set(
            cache_hits=n_hits, cache_misses=len(misses),
            elapsed_s=elapsed, busy_s=busy,
        )
        if report is not None and (
            report.retries or report.pool_respawns or report.timeouts
            or report.serial_fallback
        ):
            span.set(
                retries=report.retries,
                timeouts=report.timeouts,
                lost_chunks=report.lost_chunks,
                pool_respawns=report.pool_respawns,
                serial_fallback=report.serial_fallback,
            )
        return payloads  # type: ignore[return-value]

    def _apply_cache_corruption_faults(self, cells: list[SweepCell]) -> None:
        """Fire the fault plan's ``corrupt_cache`` events (tests/drills)."""
        if self.fault_plan is None or self._cache is None:
            return
        for idx in self.fault_plan.corrupt_targets():
            if idx < len(cells):
                corrupt_cache_entry(self._cache, self._cache.key(cells[idx]))

    def _compute(self, cells, misses, keys, payloads, walls, span, deadline_s=None):
        """Evaluate the cache misses resiliently, persisting as they land.

        Returns the executor's :class:`~repro.resilience.ExecutionReport`.
        Cache writes happen in the per-chunk callback, so an interrupted
        run keeps everything that finished and a re-run with the same
        cache directory resumes from there.
        """
        # The caller's budget as an absolute time: each pooled chunk
        # wait ends by it (an inline map has no way to interrupt an
        # evaluation already in flight).
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        chunk_size = self.chunk_size or max(
            1, math.ceil(len(misses) / (self.jobs * CHUNKS_PER_WORKER))
        )
        index_chunks = [
            misses[lo : lo + chunk_size]
            for lo in range(0, len(misses), chunk_size)
        ]
        chunks = [[cells[g] for g in group] for group in index_chunks]
        pooled = self.pooled or (self.jobs > 1 and len(chunks) > 1)
        pool = self._pool if pooled else None

        def on_chunk_done(chunk_index: int, pairs) -> None:
            for g, (payload, wall) in zip(index_chunks[chunk_index], pairs):
                payloads[g] = payload
                walls[g] = wall
                if self._cache is not None:
                    self._cache.store(keys[g], cells[g], payload)

        # Cross-process tracing: pooled and remote workers cannot see
        # this process's tracer, so hand them a TraceContext anchored on
        # the open engine.map span; each chunk's span records come back
        # with its result, and this map stitches them into the parent
        # trace afterwards.  An inline map needs none of this — its
        # spans reach the active tracer in-process.
        tracer = obs.current_tracer()
        trace_ctx: TraceContext | None = None
        dispatching = self.dispatcher is not None and self.dispatcher.ready()
        if tracer.enabled and (dispatching or pooled):
            from repro.obs.stitch import TraceContext

            trace_ctx = TraceContext(trace_id=tracer.trace_id, parent_id=span.id)

        # The executor seam: a dispatch plane with healthy workers
        # supplies a RemoteExecutor; otherwise (including mid-sweep
        # degradation handled inside the plane) the local resilient
        # pool runs the batch.  When no dispatcher is attached this is
        # a single None check — the workers-off hot path is unchanged.
        executor = None
        if self.dispatcher is not None:
            executor = self.dispatcher.executor(
                policy=self._retry,
                fault_plan=self.fault_plan,
                span=span,
                trace_ctx=trace_ctx,
                pool=pool,
                deadline=deadline,
            )
        if executor is None:
            executor = ResilientExecutor(
                policy=self._retry,
                fault_plan=self.fault_plan,
                span=span,
                trace_ctx=trace_ctx,
                pool=pool,
                deadline=deadline,
            )
        try:
            executor.run(chunks, on_chunk_done=on_chunk_done)
        finally:
            if trace_ctx is not None:
                from repro.obs.stitch import stitch_records

                with obs.span("engine.stitch", level="engine"):
                    records, dropped = stitch_records(executor.records, trace_ctx)
                    tracer.adopt(records)
                    _record_handoffs(tracer, trace_ctx, records, executor.handoffs)
                span.set(worker_spans=len(records), dropped_spans=dropped)
        return executor.report


def _record_handoffs(tracer, context, records, handoffs) -> None:
    """Name the pool's legs either side of each stitched worker span.

    ``engine.pool_send`` runs from a chunk's submission to the start of
    its ``engine.worker`` span (pickling, the call queue, the worker's
    wake-up), ``engine.pool_return`` from that span's end to the
    result's arrival; both hang off the ``engine.map`` span.
    """
    workers = {
        (r["attrs"].get("chunk"), r["attrs"].get("attempt")): r
        for r in records
        if r["record"] == "span" and r["name"] == "engine.worker"
        and r["parent"] == context.parent_id
    }
    for handoff in handoffs:
        worker = workers.get((handoff.chunk, handoff.attempt))
        if worker is None:
            continue
        end = worker["ts"] + worker["dur_s"]
        for name, start, stop in (
            ("engine.pool_send", handoff.sent_ts, worker["ts"]),
            ("engine.pool_return", end, handoff.received_ts),
        ):
            tracer.record_span(
                name, level="engine", ts=start, dur_s=max(0.0, stop - start),
                trace_id=context.trace_id, parent=context.parent_id,
                chunk=handoff.chunk, attempt=handoff.attempt,
            )


_DEFAULT_ENGINE: ExperimentEngine | None = None


def default_engine() -> ExperimentEngine:
    """The shared serial engine harnesses fall back to.

    No cache, no pool — exactly the pre-engine behaviour,
    which keeps every harness's default results and signatures stable.
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExperimentEngine(jobs=1)
    return _DEFAULT_ENGINE
