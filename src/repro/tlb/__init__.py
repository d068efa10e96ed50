"""Complexity-adaptive TLB (a paper Section 4/7 extension).

The paper lists the TLB among the structures its techniques should
apply to next, and sketches (Section 4.2) a *backup* organisation that
avoids wasting disabled elements: "branch predictor tables and TLBs may
consist of single and two cycle lookup elements".  This subpackage
builds exactly that: a fully-associative TLB of 16-entry increments
with a movable boundary between a single-cycle *fast* section (which
sets the processor cycle time, like the L1 boundary does) and a
two-cycle *backup* section that keeps the remaining entries useful
instead of disabled.

Modules
-------
:mod:`repro.tlb.simulator`
    Page-level LRU stack engine: one pass yields hit depths valid for
    every boundary position.
:mod:`repro.tlb.timing`
    CAM lookup delay versus fast-section size; page-walk cost.
:mod:`repro.tlb.tpi`
    TPI evaluation for (histogram, boundary) pairs.
:mod:`repro.tlb.adaptive`
    The CAS wrapper.
:mod:`repro.tlb.workloads`
    Page-footprint profiles for the suite's applications.
"""

from repro._lazy import lazy_exports

__all__ = [
    "PageStackEngine",
    "TlbDepthHistogram",
    "TlbTimingModel",
    "TLB_TOTAL_ENTRIES",
    "TLB_INCREMENT",
    "TlbTpiModel",
    "TlbBreakdown",
    "AdaptiveTlb",
    "tlb_profile_for",
    "TlbProfile",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.tlb.simulator": ("PageStackEngine", "TlbDepthHistogram"),
    "repro.tlb.timing": ("TLB_INCREMENT", "TLB_TOTAL_ENTRIES", "TlbTimingModel"),
    "repro.tlb.tpi": ("TlbBreakdown", "TlbTpiModel"),
    "repro.tlb.adaptive": ("AdaptiveTlb",),
    "repro.tlb.workloads": ("TlbProfile", "tlb_profile_for"),
})
