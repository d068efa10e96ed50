"""Technology models: wires, repeaters, and structure timing.

This subpackage provides the first-order delay models the paper builds
on:

* :mod:`repro.tech.parameters` — per-feature-size technology constants.
* :mod:`repro.tech.wires` — unbuffered distributed-RC wire delay.
* :mod:`repro.tech.repeaters` — Bakoglu optimal repeater insertion.
* :mod:`repro.tech.cacti` — CACTI-style cache increment access/cycle time.
* :mod:`repro.tech.palacharla` — instruction queue wakeup + select delays.
"""

from repro._lazy import lazy_exports

__all__ = [
    "TechnologyParameters",
    "technology",
    "unbuffered_wire_delay_ns",
    "RepeaterDesign",
    "optimal_repeaters",
    "buffered_wire_delay_ns",
    "CacheIncrementTiming",
    "structure_height_mm",
    "cache_bus_length_mm",
    "IssueQueueTiming",
    "queue_bus_length_mm",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.tech.parameters": ("TechnologyParameters", "technology"),
    "repro.tech.wires": ("unbuffered_wire_delay_ns",),
    "repro.tech.repeaters": (
        "RepeaterDesign", "buffered_wire_delay_ns", "optimal_repeaters",
    ),
    "repro.tech.cacti": (
        "CacheIncrementTiming", "cache_bus_length_mm", "structure_height_mm",
    ),
    "repro.tech.palacharla": ("IssueQueueTiming", "queue_bus_length_mm"),
})
