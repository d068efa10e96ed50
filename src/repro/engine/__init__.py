"""repro.engine — the parallel experiment engine.

The sweep layer every figure harness runs on: sweep **cells** (one
workload x configuration-range evaluation) are fanned out over a
process pool with deterministic chunking and ordered assembly, backed
by a content-addressed on-disk result cache; each run is traced as one
``engine.map`` span (see :mod:`repro.obs`).

Layers
------
:mod:`repro.engine.cells`
    The cell vocabulary: picklable specs, registered evaluators, and
    the per-process memos for expensive intermediates.
:mod:`repro.engine.cache`
    Content-addressed JSON result cache (key = technology fingerprint
    + structure configuration + workload spec).
:mod:`repro.engine.engine`
    :class:`ExperimentEngine` itself.
:mod:`repro.engine.sweeps`
    The unified :class:`~repro.core.metrics.StructureSweep`
    implementations for all four adaptive structures.

Fault tolerance — retries with backoff, pool-crash recovery, per-chunk
timeouts and fault injection — lives in the sibling
:mod:`repro.resilience` package; the engine drives every parallel batch
through its :class:`~repro.resilience.ResilientExecutor`.
"""

from repro.engine.cache import (
    CacheVerifyReport,
    ResultCache,
    cell_key,
    payload_checksum,
    technology_fingerprint,
)
from repro.engine.cells import SweepCell, cell_kinds, evaluate_cell
from repro.engine.engine import EngineStats, ExperimentEngine, default_engine
from repro.engine.sweeps import (
    BranchStructureSweep,
    CacheStructureSweep,
    QueueStructureSweep,
    TlbStructureSweep,
    all_structure_sweeps,
)

__all__ = [
    "ExperimentEngine",
    "EngineStats",
    "default_engine",
    "SweepCell",
    "cell_kinds",
    "evaluate_cell",
    "CacheVerifyReport",
    "ResultCache",
    "cell_key",
    "payload_checksum",
    "technology_fingerprint",
    "CacheStructureSweep",
    "QueueStructureSweep",
    "TlbStructureSweep",
    "BranchStructureSweep",
    "all_structure_sweeps",
]
