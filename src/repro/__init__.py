"""repro — Complexity-Adaptive Processors.

A full reproduction of David H. Albonesi, *"Dynamic IPC/Clock Rate
Optimization"* (ISCA 1998): complexity-adaptive hardware structures
built on repeater-isolated increments, a dynamic clock that lets every
configuration run at its full clock-rate potential, and configuration
management that picks the TPI-minimising configuration per application
(process-level) or per interval (Section 6).

Quick tour
----------
>>> from repro import CapProcessor
>>> cpu = CapProcessor()
>>> _ = cpu.iqueue.reconfigure(16)
>>> _ = cpu.dcache.reconfigure(1)
>>> cpu.cycle_time_ns() < 0.6            # small structures, fast clock
True

Subpackages
-----------
:mod:`repro.tech`
    Wire, repeater (Bakoglu), cache (CACTI-style) and issue-queue
    (Palacharla) timing models.
:mod:`repro.cache`
    The movable-boundary two-level exclusive D-cache hierarchy.
:mod:`repro.ooo`
    The 8-way out-of-order machine with a resizable issue queue.
:mod:`repro.workloads`
    Calibrated synthetic stand-ins for the paper's SPEC95/CMU/NAS
    trace suite.
:mod:`repro.core`
    Dynamic clock, configuration manager, policies, predictor, power.
:mod:`repro.experiments`
    One harness per figure of the paper's evaluation.
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

__all__ = [
    "CapProcessor",
    "DynamicClock",
    "ConfigurationManager",
    "ComplexityAdaptiveStructure",
    "FixedStructure",
    "ReconfigurationCost",
    "StructureRunResult",
    "StructureSweep",
    "SweepResult",
    "AdaptiveCacheHierarchy",
    "AdaptiveInstructionQueue",
    "AdaptiveTlb",
    "AdaptiveBranchPredictor",
    "ExperimentEngine",
    "default_engine",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.processor": ("CapProcessor",),
    "repro.core.clock": ("DynamicClock",),
    "repro.core.manager": ("ConfigurationManager",),
    "repro.core.metrics": ("StructureSweep", "SweepResult"),
    "repro.core.structure": (
        "ComplexityAdaptiveStructure", "FixedStructure", "ReconfigurationCost",
        "StructureRunResult",
    ),
    "repro.cache.adaptive": ("AdaptiveCacheHierarchy",),
    "repro.ooo.adaptive": ("AdaptiveInstructionQueue",),
    "repro.tlb.adaptive": ("AdaptiveTlb",),
    "repro.branch.adaptive": ("AdaptiveBranchPredictor",),
    "repro.engine.engine": ("ExperimentEngine", "default_engine"),
})
