"""Degraded-hardware robustness: faults, noisy sensors, guardrails.

This package makes the adaptive-control stack survivable when the
modeled hardware is imperfect: increments can fail
(:class:`HardwareFaultModel`), performance counters can lie
(:class:`NoisySensor`), and the controller/manager grow guardrails
(:class:`ThrashDetector`, :class:`TpiWatchdog`) that keep adaptation
from amplifying either problem.  See ``docs/robustness.md``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "GuardrailConfig",
    "HardwareFaultModel",
    "NoisySensor",
    "SensorNoiseConfig",
    "ThrashDetector",
    "TpiWatchdog",
    "UnitFault",
    "WatchdogVerdict",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.robust.faults": ("HardwareFaultModel", "UnitFault"),
    "repro.robust.guardrails": (
        "GuardrailConfig", "ThrashDetector", "TpiWatchdog", "WatchdogVerdict",
    ),
    "repro.robust.sensors": ("NoisySensor", "SensorNoiseConfig"),
})
