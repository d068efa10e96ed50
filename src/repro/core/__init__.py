"""The paper's primary contribution: the Complexity-Adaptive Processor.

This subpackage holds the machinery that turns the cache and queue
simulators into a CAP:

* :mod:`repro.core.structure` — fixed (FS) and complexity-adaptive
  (CAS) hardware structure abstractions.
* :mod:`repro.core.clock` — the dynamic clock: per-configuration
  frequency table derived from worst-case structure delays, plus the
  cost of reliably switching clock sources.
* :mod:`repro.core.monitor` — performance-monitoring counters read by
  configuration-management heuristics.
* :mod:`repro.core.manager` — the Configuration Manager with the
  paper's process-level adaptive policy.
* :mod:`repro.core.policies` — static, oracle and interval-adaptive
  configuration policies (Section 6).
* :mod:`repro.core.predictor` — pattern-based next-configuration
  predictor with confidence estimation (Section 6).
* :mod:`repro.core.metrics` — TPI aggregation and reduction reporting.
* :mod:`repro.core.power` — the power-mode model of Section 4.1.
* :mod:`repro.core.processor` — ties cache CAS + queue CAS + clock into
  one top-level object.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FixedStructure",
    "ComplexityAdaptiveStructure",
    "ReconfigurationCost",
    "DynamicClock",
    "ClockSwitch",
    "PerformanceMonitor",
    "IntervalSample",
    "ConfigurationManager",
    "ConfigurationDecision",
    "ConfigurationPolicy",
    "StaticPolicy",
    "OraclePolicy",
    "IntervalAdaptivePolicy",
    "ConfigurationPredictor",
    "PredictorStats",
    "TpiComparison",
    "reduction_percent",
    "geometric_mean",
    "PowerModel",
    "PowerMode",
    "CapProcessor",
    "OnlineController",
    "ControllerConfig",
    "ControllerOutcome",
    "run_online",
    "ProcessSpec",
    "MultiprogramResult",
    "run_multiprogrammed",
    "AsyncAccessProfile",
    "async_cache_profile",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.structure": (
        "ComplexityAdaptiveStructure", "FixedStructure", "ReconfigurationCost",
    ),
    "repro.core.clock": ("ClockSwitch", "DynamicClock"),
    "repro.core.monitor": ("IntervalSample", "PerformanceMonitor"),
    "repro.core.manager": ("ConfigurationDecision", "ConfigurationManager"),
    "repro.core.policies": (
        "ConfigurationPolicy", "IntervalAdaptivePolicy", "OraclePolicy", "StaticPolicy",
    ),
    "repro.core.predictor": ("ConfigurationPredictor", "PredictorStats"),
    "repro.core.metrics": ("TpiComparison", "geometric_mean", "reduction_percent"),
    "repro.core.power": ("PowerModel", "PowerMode"),
    "repro.core.processor": ("CapProcessor",),
    "repro.core.controller": (
        "ControllerConfig", "ControllerOutcome", "OnlineController", "run_online",
    ),
    "repro.core.multiprogram": (
        "MultiprogramResult", "ProcessSpec", "run_multiprogrammed",
    ),
    "repro.core.asynchronous": ("AsyncAccessProfile", "async_cache_profile"),
})
