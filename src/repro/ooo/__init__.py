"""Out-of-order superscalar machine with an adaptive instruction queue.

The queue study (paper Section 5.3) models an 8-way out-of-order
machine with perfect branch prediction, perfect caches and plentiful
functional units — so window size and dataflow are the only limiters —
whose issue queue size can be any multiple of 16 entries from 16 to 128.

Modules
-------
:mod:`repro.ooo.machine`
    Oldest-first greedy issue scheduler over a dependence-annotated
    trace; computes cycle counts, IPC and per-instruction issue times.
:mod:`repro.ooo.queue`
    Structural model of the resizable queue (entry enable/drain logic).
:mod:`repro.ooo.timing`
    Queue size to cycle time, via the Palacharla wakeup/select model.
:mod:`repro.ooo.intervals`
    Per-interval TPI sampling (the Section 6 snapshots).
:mod:`repro.ooo.adaptive`
    The CAS wrapper used by the Configuration Manager.
"""

from repro._lazy import lazy_exports

__all__ = [
    "OutOfOrderMachine",
    "MachineConfig",
    "MachineResult",
    "InstructionQueue",
    "QueueTimingModel",
    "PAPER_QUEUE_SIZES",
    "interval_tpi_series",
    "IntervalSeries",
    "AdaptiveInstructionQueue",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.ooo.machine": ("MachineConfig", "MachineResult", "OutOfOrderMachine"),
    "repro.ooo.queue": ("InstructionQueue",),
    "repro.ooo.timing": ("PAPER_QUEUE_SIZES", "QueueTimingModel"),
    "repro.ooo.intervals": ("IntervalSeries", "interval_tpi_series"),
    "repro.ooo.adaptive": ("AdaptiveInstructionQueue",),
})
