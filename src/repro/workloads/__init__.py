"""Synthetic workloads standing in for the paper's trace suite.

The paper drives its cache study with Atom-collected address traces
(first 100 M D-cache references) and its instruction-queue study with
SimpleScalar runs (first 100 M instructions) of 21-22 applications:
SPEC95, the CMU task-parallel suite (airshed, stereo, radar) and the
NAS benchmark appcg.  Those traces are not redistributable, so this
package generates synthetic equivalents from per-application profiles:

* :mod:`repro.workloads.profiles` — one profile per application, with a
  memory profile (working-set components + load/store density) and an
  ILP profile (loop shape, dataflow depth, recurrences, latencies).
* :mod:`repro.workloads.address_trace` — LRU-stack-model D-cache
  reference streams.
* :mod:`repro.workloads.instruction_trace` — dependence-annotated
  instruction streams for the out-of-order simulator.
* :mod:`repro.workloads.phases` — phase-structured streams exhibiting
  the intra-application diversity of Section 6.
* :mod:`repro.workloads.suite` — suite assembly and lookup.

The substitution is sound for this paper because its conclusions depend
only on (a) the distribution of reuse distances of each address stream
and (b) the window-size dependence of each instruction stream's
extractable ILP; both are exactly what the profiles parameterise.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BenchmarkProfile",
    "MemoryProfile",
    "IlpProfile",
    "WorkingSetComponent",
    "ComponentKind",
    "Suite",
    "generate_address_trace",
    "InstructionTrace",
    "generate_instruction_trace",
    "PhaseSegment",
    "PhasedWorkload",
    "all_profiles",
    "get_profile",
    "cache_study_profiles",
    "queue_study_profiles",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.workloads.profiles": (
        "BenchmarkProfile", "ComponentKind", "IlpProfile", "MemoryProfile", "Suite",
        "WorkingSetComponent",
    ),
    "repro.workloads.address_trace": ("generate_address_trace",),
    "repro.workloads.instruction_trace": (
        "InstructionTrace", "generate_instruction_trace",
    ),
    "repro.workloads.phases": ("PhaseSegment", "PhasedWorkload"),
    "repro.workloads.suite": (
        "all_profiles", "cache_study_profiles", "get_profile", "queue_study_profiles",
    ),
})
