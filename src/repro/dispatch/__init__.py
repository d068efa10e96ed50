"""repro.dispatch — the fault-tolerant multi-host worker plane.

The engine's chunked cell batches normally fan out over a local
``ProcessPoolExecutor``.  This package scales the same batches across
*hosts* without weakening any invariant the resilience layer proves:

* :mod:`repro.dispatch.wire` — the JSON wire format shared by both
  sides (cells, fault plans, trace contexts, evaluate calls);
* :mod:`repro.dispatch.plane` — the broker-side plane: the
  :class:`WorkerRegistry` (registration, heartbeats, per-worker circuit
  breakers), time-bounded **leases** over chunks, failover re-enqueue
  when a lease dies, deterministic percentile-based **hedging** of
  stragglers, and the :class:`RemoteExecutor` the engine drives through
  the same seam as :class:`~repro.resilience.ResilientExecutor`;
* :mod:`repro.dispatch.worker` — the ``repro worker`` process: a
  stdlib asyncio HTTP server evaluating leased chunks, registering
  with a broker and heartbeating while it computes.

Results are deduplicated before delivery and every downstream write
(result cache, warm store) is keyed by the cell's
content address, so double-completion after a failover or a hedge is
harmless.  With zero healthy workers the plane steps aside and the
engine degrades to the local pool — no API change, near-zero overhead.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DispatchPlane",
    "DispatchPolicy",
    "RemoteExecutor",
    "WorkerConfig",
    "WorkerRegistry",
    "WorkerServer",
    "WorkerState",
    "WorkerThread",
    "run_worker",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.dispatch.plane": (
        "DispatchPlane", "DispatchPolicy", "RemoteExecutor", "WorkerRegistry",
        "WorkerState",
    ),
    "repro.dispatch.worker": (
        "WorkerConfig", "WorkerServer", "WorkerThread", "run_worker",
    ),
})
