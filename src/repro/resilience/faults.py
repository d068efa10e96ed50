"""Deterministic fault injection for the experiment engine.

A :class:`FaultPlan` is a picklable, fully explicit schedule of faults
keyed by ``(chunk index, attempt number)``.  Because every fault is
pinned to an attempt, recovery is provable: a crash planned at attempt
0 kills the first try and *only* the first try, so the retried run must
complete and — cells being deterministic — produce results
byte-identical to a fault-free run.

Four fault kinds cover the failure modes the resilience layer recovers
from:

``crash``
    The worker process calls ``os._exit`` mid-chunk, which surfaces in
    the parent as ``BrokenProcessPool`` — the pool is respawned and the
    lost chunks re-queued.
``hang``
    The worker sleeps past the policy's per-chunk ``timeout_s``; the
    parent kills the pool and re-queues.
``transient``
    The worker raises :class:`~repro.errors.TransientError`; the retry
    policy re-submits the chunk after backoff.
``corrupt_cache``
    The on-disk cache entry of cell ``chunk`` is overwritten with
    garbage *before* the cache probe, exercising checksum detection,
    quarantine and recompute.  (For this kind the ``chunk`` field is a
    cell index and ``attempt`` is ignored.)

``crash`` and ``hang`` model *worker-process* faults: when the executor
is running serially (``jobs=1`` or after degrading), firing them would
kill or stall the main process, so they are skipped — which is exactly
the graceful-degradation story.  ``transient`` fires in both modes.

:func:`evaluate_chunk_with_faults` is the pool target wrapping the real
:func:`~repro.engine.cells.evaluate_chunk`; it is a top-level function
so spawn-mode workers can unpickle a reference to it, and it returns a
traced chunk's span records together with its result.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.engine.cells import SweepCell, evaluate_chunk
from repro.errors import EngineError, TransientError

if TYPE_CHECKING:  # import cycle guard: cache imports nothing from here
    from repro.engine.cache import ResultCache
    from repro.obs.stitch import TraceContext

#: Legal values of a fault event's ``kind`` field.
FAULT_KINDS: tuple[str, ...] = ("crash", "hang", "transient", "corrupt_cache")

#: Exit status of a worker killed by an injected crash (recognisable in
#: process listings and core-dump post-mortems).
CRASH_EXIT_CODE: int = 17


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: what fires, on which chunk, at which attempt."""

    kind: str
    chunk: int = 0
    attempt: int = 0
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise EngineError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.chunk < 0 or self.attempt < 0:
            raise EngineError(
                f"fault chunk/attempt must be >= 0, got "
                f"chunk={self.chunk}, attempt={self.attempt}"
            )
        if self.hang_s <= 0:
            raise EngineError(f"hang_s must be positive, got {self.hang_s}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable schedule of injected faults."""

    events: tuple[FaultEvent, ...] = ()

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_chunks: int,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        transient_rate: float = 0.0,
        hang_s: float = 30.0,
    ) -> "FaultPlan":
        """A pseudo-random plan that is a pure function of ``seed``.

        Each chunk independently draws one first-attempt fault with the
        given probabilities (crash first, then hang, then transient).
        The draw hashes ``(seed, chunk)``, so the same seed always
        yields the same plan — across processes and Python versions.
        """
        events: list[FaultEvent] = []
        for chunk in range(n_chunks):
            digest = hashlib.sha256(f"{seed}:{chunk}".encode("utf-8")).digest()
            u = int.from_bytes(digest[:8], "big") / 2**64
            if u < crash_rate:
                events.append(FaultEvent("crash", chunk=chunk))
            elif u < crash_rate + hang_rate:
                events.append(FaultEvent("hang", chunk=chunk, hang_s=hang_s))
            elif u < crash_rate + hang_rate + transient_rate:
                events.append(FaultEvent("transient", chunk=chunk))
        return cls(events=tuple(events))

    def events_for(self, chunk: int, attempt: int) -> tuple[FaultEvent, ...]:
        """The worker-side faults scheduled for ``(chunk, attempt)``."""
        return tuple(
            e
            for e in self.events
            if e.kind != "corrupt_cache"
            and e.chunk == chunk
            and e.attempt == attempt
        )

    def corrupt_targets(self) -> tuple[int, ...]:
        """Cell indices whose cache entries should be corrupted."""
        return tuple(
            sorted({e.chunk for e in self.events if e.kind == "corrupt_cache"})
        )

    def fire(self, chunk: int, attempt: int, serial: bool = False) -> None:
        """Trigger the faults scheduled for this ``(chunk, attempt)``.

        In ``serial`` mode only ``transient`` faults fire — ``crash``
        and ``hang`` model worker-process failures and would take down
        the main process.
        """
        for event in self.events_for(chunk, attempt):
            if event.kind == "transient":
                raise TransientError(
                    f"injected transient fault (chunk {chunk}, attempt {attempt})"
                )
            if serial:
                continue
            if event.kind == "crash":
                os._exit(CRASH_EXIT_CODE)
            if event.kind == "hang":
                time.sleep(event.hang_s)


def evaluate_chunk_with_faults(
    cells: Sequence[SweepCell],
    plan: FaultPlan | None,
    chunk: int,
    attempt: int,
    serial: bool = False,
    trace: "TraceContext | None" = None,
) -> tuple[list[tuple[dict, float]], list[dict]]:
    """Pool target: fire any scheduled faults, then evaluate the chunk.

    Top-level on purpose — spawn-mode workers must be able to unpickle
    a reference to it.  Returns the chunk's (payload, wall_s) pairs and
    the span records of its evaluation.  Given the parent's
    :class:`~repro.obs.stitch.TraceContext`, the chunk runs under that
    context's in-memory tracer, and its records travel back with the
    pairs for the engine to stitch.  Without one the spans go to
    whatever tracer is active and the record list is empty.  Faults
    fire before the tracer opens, and an evaluation that raises returns
    no records.
    """
    if plan is not None:
        plan.fire(chunk, attempt, serial=serial)
    if trace is None:
        return evaluate_chunk(cells, chunk=chunk, attempt=attempt), []
    with trace.tracer() as tracer:
        pairs = evaluate_chunk(cells, chunk=chunk, attempt=attempt)
    return pairs, tracer.records


def corrupt_cache_entry(cache: "ResultCache", key: str) -> bool:
    """Overwrite the cached entry for ``key`` with garbage bytes.

    Returns whether an entry existed to corrupt.  Used by the engine to
    apply a plan's ``corrupt_cache`` events and by the fault-injection
    tests; the garbage has no entry header line and is not valid JSON
    either, so it reads as corrupt, not as a stale entry from before
    the header layout, and detection never reaches the checksum.
    """
    path = cache.path(key)
    if not path.is_file():
        return False
    path.write_text("{ \"schema\": corrupted-by-fault-plan", encoding="utf-8")
    return True
