"""Per-application workload profiles.

Each of the paper's applications is characterised by:

* a :class:`MemoryProfile` — a mixture of working-set components
  (uniformly re-referenced regions and sequentially walked loops), a
  streaming (no-reuse) fraction, and the load/store density that
  converts reference counts into instruction counts; and
* an :class:`IlpProfile` — a loop-structured dataflow shape: iteration
  size, dataflow depth, loop-carried recurrence, and latency mix, which
  together determine how extractable ILP grows with issue-window size.

The parameter values are *calibrated to the paper's reported behaviour*,
not measured from the original binaries: e.g. stereo's TPI curve must
not flatten until a 48 KB L1 (Sec 5.2.2), appcg needs >48 KB for its
frequently-accessed structures to coexist, applu's working set exceeds
the whole 128 KB structure, compress is the only integer code to improve
beyond a 16 KB L1 and carries <10% loads/stores, most applications
favour a 64-entry issue queue while compress favours 128 and radar,
fpppp and appcg favour 16 (Secs 5.2-5.4).  EXPERIMENTS.md records how
well the calibrated suite reproduces each figure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Suite(enum.Enum):
    """Origin suite of a benchmark."""

    SPECINT95 = "SPECint95"
    SPECFP95 = "SPECfp95"
    CMU = "CMU task-parallel"
    NAS = "NAS"


class ComponentKind(enum.Enum):
    """Reference pattern of one working-set component."""

    #: Irregular reuse: blocks drawn uniformly from the region.  Produces
    #: a soft miss-ratio knee around the region size.
    UNIFORM = "uniform"
    #: Sequential cyclic walk over the region.  Produces a sharp
    #: all-or-nothing knee: an LRU cache smaller than the region thrashes.
    LOOP = "loop"


@dataclass(frozen=True)
class WorkingSetComponent:
    """One component of an application's data working set."""

    size_kb: float
    weight: float
    kind: ComponentKind = ComponentKind.UNIFORM

    def __post_init__(self) -> None:
        if self.size_kb <= 0:
            raise ValueError(f"component size must be positive, got {self.size_kb}")
        if self.weight <= 0:
            raise ValueError(f"component weight must be positive, got {self.weight}")


def uniform(size_kb: float, weight: float) -> WorkingSetComponent:
    """Shorthand for a uniformly re-referenced component."""
    return WorkingSetComponent(size_kb, weight, ComponentKind.UNIFORM)


def loop(size_kb: float, weight: float) -> WorkingSetComponent:
    """Shorthand for a sequentially walked (cyclic) component."""
    return WorkingSetComponent(size_kb, weight, ComponentKind.LOOP)


@dataclass(frozen=True)
class MemoryProfile:
    """Data-reference behaviour of one application.

    ``streaming_weight`` is the fraction of references that never reuse
    (cold, compulsory-miss traffic); component weights are normalised
    together with it.  ``load_store_fraction`` is the fraction of the
    dynamic instruction stream that references the D-cache.
    """

    components: tuple[WorkingSetComponent, ...]
    streaming_weight: float
    load_store_fraction: float
    #: Consecutive references that fall in the same 32 B block when a
    #: component is walked sequentially (spatial locality of loops and
    #: streams).
    refs_per_block: int = 4

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("memory profile needs at least one component")
        if self.streaming_weight < 0:
            raise ValueError("streaming weight must be >= 0")
        if not 0.0 < self.load_store_fraction <= 1.0:
            raise ValueError("load/store fraction must be in (0, 1]")
        if self.refs_per_block < 1:
            raise ValueError("refs_per_block must be >= 1")
        # a NaN weight passes the sign checks; the trace generator needs
        # a finite total to normalise by
        total = sum(c.weight for c in self.components) + self.streaming_weight
        if not math.isfinite(total):
            raise ValueError(f"weights must have a finite total, got {total}")

    def normalised_weights(self) -> tuple[float, ...]:
        """Component weights plus streaming weight, normalised to sum 1."""
        raw = [c.weight for c in self.components] + [self.streaming_weight]
        total = sum(raw)
        return tuple(w / total for w in raw)


@dataclass(frozen=True)
class IlpProfile:
    """Loop-structured ILP shape of one application.

    The instruction stream is generated as iterations of ``block_size``
    instructions arranged in ``depth`` dataflow levels (each level
    depends on the one above).  ``recurrence_ops`` instructions per
    iteration form a serial loop-carried chain of per-op latency
    ``recurrence_latency``; the chain bounds steady-state ILP at
    ``block_size / (recurrence_ops * recurrence_latency)`` regardless of
    window size.  The window size needed to *reach* that bound grows
    with the iteration critical path (depth x latency), which is how an
    application "favours" a particular queue size.
    """

    block_size: int
    depth: int
    recurrence_ops: int = 0
    recurrence_latency: int = 1
    long_latency_fraction: float = 0.15
    long_latency_cycles: int = 4
    second_dep_probability: float = 0.4
    #: Optional second iteration shape, mixed in with probability
    #: ``deep_fraction`` per iteration.  Real codes are mixtures of loop
    #: nests; a deep, recurrence-free variant is what keeps IPC growing
    #: (concavely) as the window widens beyond the base shape's needs.
    deep_variant: "IlpProfile | None" = None
    deep_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.deep_variant is not None:
            if self.deep_variant.deep_variant is not None:
                raise ValueError("deep variants cannot nest")
            if not 0.0 < self.deep_fraction <= 1.0:
                raise ValueError("deep_fraction must be in (0, 1] with a variant")
        elif self.deep_fraction:
            raise ValueError("deep_fraction set without a deep_variant")
        if self.block_size < 1 or self.depth < 1:
            raise ValueError("block size and depth must be positive")
        if self.depth > self.block_size:
            raise ValueError("depth cannot exceed block size")
        if self.recurrence_ops < 0 or self.recurrence_ops > self.block_size:
            raise ValueError("recurrence ops must be in [0, block_size]")
        if self.recurrence_latency < 1:
            raise ValueError("recurrence latency must be >= 1")
        if not 0.0 <= self.long_latency_fraction <= 1.0:
            raise ValueError("long-latency fraction must be in [0, 1]")
        if self.long_latency_cycles < 1:
            raise ValueError("long-latency cycles must be >= 1")
        if not 0.0 <= self.second_dep_probability <= 1.0:
            raise ValueError("second-dep probability must be in [0, 1]")

    @property
    def recurrence_ipc_bound(self) -> float:
        """Steady-state IPC bound imposed by the loop-carried chain."""
        if self.recurrence_ops == 0:
            return float("inf")
        return self.block_size / (self.recurrence_ops * self.recurrence_latency)


@dataclass(frozen=True)
class BenchmarkProfile:
    """Everything the generators need to stand in for one application."""

    name: str
    suite: Suite
    domain: str  # "integer" or "floating"
    memory: MemoryProfile | None
    ilp: IlpProfile
    seed: int

    def __post_init__(self) -> None:
        if self.domain not in ("integer", "floating"):
            raise ValueError(f"domain must be integer|floating, got {self.domain}")

    @property
    def in_cache_study(self) -> bool:
        """Whether the app appears in the cache study (go does not; the
        paper could not instrument it with Atom)."""
        return self.memory is not None
