"""Sweep cells: the engine's unit of schedulable, cacheable work.

A **cell** is one (workload x structure-configuration-range) evaluation
— e.g. "the cache-study TPI sweep of compress over boundaries 1..8" or
"the interval TPI series of turb3d at a 64-entry queue".  Cells are
deliberately small, self-describing records:

* the ``spec`` is a plain JSON-able mapping, so a cell can be hashed
  into a content-addressed cache key and shipped to a worker process
  under ``ProcessPoolExecutor``'s spawn start method;
* the **payload** an evaluator returns is likewise plain JSON (dicts,
  lists, numbers), so cached and freshly computed cells are
  indistinguishable — which is what makes ``--jobs 1`` and ``--jobs N``
  (and cold versus warm cache) bitwise identical.

Evaluators are registered per cell *kind* in a module-level table; the
pool target imports :func:`evaluate_chunk` from here, so spawned
workers re-import this module and find every evaluator registered.
Each evaluator imports its structure's simulator and TPI model on first
use, so a process loads only the kernels of the kinds it evaluates; the
trace generators stay module attributes here, where callers (and the
benchmark's span wrappers) look them up.  Expensive intermediates
(stack-distance and page-stack histograms) are memoised per process,
up to :data:`MEMO_ENTRIES` each, so cells sharing a trace amortise it
within a worker.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.cache.config import PAPER_GEOMETRY, CacheGeometry
from repro.cache.stackdist import DepthHistogram, StackDistanceEngine
from repro.cache.timing import CacheTimingModel, LatencyMode
from repro.cache.tpi import CacheTpiModel, TpiBreakdown
from repro.errors import EngineError
from repro.obs.trace import span
from repro.tech.cacti import CacheIncrementTiming
from repro.tlb.workloads import generate_page_trace, tlb_profile_for
from repro.workloads.address_trace import generate_address_trace
from repro.workloads.instruction_trace import generate_instruction_trace
from repro.workloads.profiles import BenchmarkProfile, IlpProfile
from repro.workloads.suite import get_profile

if TYPE_CHECKING:
    from repro.branch.predictors import PredictorKind
    from repro.tlb.simulator import TlbDepthHistogram


@dataclass(frozen=True)
class SweepCell:
    """One unit of engine work: a registered ``kind`` plus its spec.

    The spec must contain only JSON-able values (numbers, strings,
    booleans, ``None``, and lists/dicts of those) — it doubles as the
    cell's cache identity.
    """

    kind: str
    spec: Mapping[str, Any]


CellEvaluator = Callable[[Mapping[str, Any]], dict]

_EVALUATORS: dict[str, CellEvaluator] = {}


def register_evaluator(kind: str) -> Callable[[CellEvaluator], CellEvaluator]:
    """Register the evaluator for one cell kind."""

    def deco(fn: CellEvaluator) -> CellEvaluator:
        _EVALUATORS[kind] = fn
        return fn

    return deco


def cell_kinds() -> tuple[str, ...]:
    """Every registered cell kind, sorted."""
    return tuple(sorted(_EVALUATORS))


def evaluate_cell(cell: SweepCell) -> dict:
    """Evaluate one cell in this process."""
    try:
        fn = _EVALUATORS[cell.kind]
    except KeyError:
        raise EngineError(
            f"no evaluator registered for cell kind {cell.kind!r}; "
            f"known kinds: {cell_kinds()}"
        ) from None
    return fn(cell.spec)


def evaluate_chunk(
    cells: Sequence[SweepCell], chunk: int = 0, attempt: int = 0
) -> list[tuple[dict, float]]:
    """Evaluate a chunk in this process, returning (payload, wall_s) pairs.

    The ``engine.worker`` / ``cell.evaluate`` spans go to the active
    tracer (or the null tracer).  In a pool worker that is an in-memory
    tracer whose records return with the chunk's result (see
    :func:`~repro.resilience.faults.evaluate_chunk_with_faults`).
    """
    out: list[tuple[dict, float]] = []
    with span(
        "engine.worker",
        level="engine",
        chunk=chunk,
        attempt=attempt,
        pid=os.getpid(),
        n_cells=len(cells),
    ):
        for index, cell in enumerate(cells):
            with span(
                "cell.evaluate",
                index=index,
                kind=cell.kind,
                cached=False,
                retry=attempt > 0,
            ) as cell_span:
                start = time.perf_counter()
                payload = evaluate_cell(cell)
                wall = time.perf_counter() - start
                cell_span.set(wall_s=wall)
            out.append((payload, wall))
    return out


# ---------------------------------------------------------------------------
# spec <-> model helpers
# ---------------------------------------------------------------------------


def geometry_spec(geometry: CacheGeometry) -> dict | None:
    """Serialise a cache geometry for a cell spec (``None`` = paper's)."""
    if geometry == PAPER_GEOMETRY:
        return None
    return {
        "n_increments": geometry.n_increments,
        "ways_per_increment": geometry.ways_per_increment,
        "block_bytes": geometry.block_bytes,
        "increment_bytes": geometry.increment_bytes,
        "increment_timing": asdict(geometry.increment_timing),
    }


def geometry_from_spec(spec: Mapping[str, Any] | None) -> CacheGeometry:
    """Rebuild a cache geometry from its cell-spec form."""
    if spec is None:
        return PAPER_GEOMETRY
    return CacheGeometry(
        n_increments=int(spec["n_increments"]),
        ways_per_increment=int(spec["ways_per_increment"]),
        block_bytes=int(spec["block_bytes"]),
        increment_bytes=int(spec["increment_bytes"]),
        increment_timing=CacheIncrementTiming(**spec["increment_timing"]),
    )


def ilp_spec(profile: IlpProfile) -> dict:
    """Serialise an ILP profile (including a nested deep variant)."""
    return asdict(profile)


def ilp_from_spec(spec: Mapping[str, Any]) -> IlpProfile:
    """Rebuild an ILP profile from its cell-spec form."""
    fields = dict(spec)
    if fields.get("deep_variant") is not None:
        fields["deep_variant"] = ilp_from_spec(fields["deep_variant"])
    return IlpProfile(**fields)


def tpi_breakdown_from_payload(row: Mapping[str, Any]) -> TpiBreakdown:
    """Rebuild a cache-study TPI breakdown from a cell payload row."""
    return TpiBreakdown(
        l1_increments=int(row["l1_increments"]),
        cycle_time_ns=float(row["cycle_time_ns"]),
        tpi_ns=float(row["tpi_ns"]),
        tpi_miss_ns=float(row["tpi_miss_ns"]),
        l1_miss_ratio=float(row["l1_miss_ratio"]),
        l2_hit_latency_cycles=int(row["l2_hit_latency_cycles"]),
        n_references=int(row["n_references"]),
        n_instructions=float(row["n_instructions"]),
    )


def tpi_table_from_payload(payload: Mapping[str, Any]) -> dict[int, float]:
    """Config -> TPI (ns) from one sweep-cell payload, sorted by config
    (a JSON-loaded payload has its keys in string order: ``"112"`` first).

    A ``queue_tpi`` row's TPI is its cycle time over its IPC; the other
    TPI cells' rows carry theirs.
    """
    if "results" in payload:
        rows = payload["results"]
        table = {int(w): row["cycle_time_ns"] / row["ipc"] for w, row in rows.items()}
    else:
        rows = payload["breakdowns"]
        table = {int(c): row["tpi_ns"] for c, row in rows.items()}
    return dict(sorted(table.items()))


# ---------------------------------------------------------------------------
# per-process memos for expensive intermediates
# ---------------------------------------------------------------------------

#: Histograms each memo keeps, well above the 22-application suite.  A
#: long-lived process (a ``repro serve`` pool worker) sees unboundedly
#: many unique sizings; past this many it forgets the oldest.
MEMO_ENTRIES: int = 256

_HISTOGRAM_MEMO: dict[tuple, DepthHistogram] = {}
_TLB_HISTOGRAM_MEMO: dict[tuple, TlbDepthHistogram] = {}
#: Serialises eviction: a dispatch worker evaluates leases on threads.
_MEMO_LOCK = threading.Lock()


def _remember(memo: dict, key: tuple, value: Any) -> None:
    """Store ``value``, evicting the oldest entries past :data:`MEMO_ENTRIES`."""
    with _MEMO_LOCK:
        memo[key] = value
        while len(memo) > MEMO_ENTRIES:
            del memo[next(iter(memo))]


def cached_histogram(
    profile: BenchmarkProfile,
    n_refs: int,
    warmup_refs: int,
    geometry: CacheGeometry = PAPER_GEOMETRY,
) -> DepthHistogram:
    """Stack-depth histogram of one application's trace (memoised).

    One stack-distance pass evaluates every boundary position at once;
    the per-process memo keeps suite-wide sweeps cheap both in the main
    process and inside pool workers.
    """
    key = (profile.name, n_refs, warmup_refs, profile.seed, geometry)
    hit = _HISTOGRAM_MEMO.get(key)
    if hit is not None:
        return hit
    if profile.memory is None:
        raise ValueError(f"{profile.name} is not part of the cache study")
    addresses = generate_address_trace(
        profile.memory, n_refs + warmup_refs, profile.seed
    )
    engine = StackDistanceEngine(geometry)
    if warmup_refs:
        engine.process(addresses[:warmup_refs])
    histogram = DepthHistogram.from_depths(
        geometry, engine.process(addresses[warmup_refs:])
    )
    _remember(_HISTOGRAM_MEMO, key, histogram)
    return histogram


def cached_tlb_histogram(
    profile: BenchmarkProfile, n_refs: int, warmup_refs: int
) -> TlbDepthHistogram:
    """Page-stack histogram of one application's trace (memoised)."""
    from repro.tlb.simulator import PageStackEngine, TlbDepthHistogram
    from repro.tlb.timing import TLB_TOTAL_ENTRIES

    key = (profile.name, n_refs, warmup_refs)
    hit = _TLB_HISTOGRAM_MEMO.get(key)
    if hit is not None:
        return hit
    trace = generate_page_trace(tlb_profile_for(profile), n_refs)
    engine = PageStackEngine(TLB_TOTAL_ENTRIES)
    engine.process(trace[:warmup_refs])
    histogram = TlbDepthHistogram.from_depths(
        TLB_TOTAL_ENTRIES, engine.process(trace[warmup_refs:])
    )
    _remember(_TLB_HISTOGRAM_MEMO, key, histogram)
    return histogram


# ---------------------------------------------------------------------------
# cell builders + evaluators
# ---------------------------------------------------------------------------


def cache_tpi_cell(
    profile: BenchmarkProfile,
    n_refs: int,
    warmup_refs: int,
    boundaries: Sequence[int],
    geometry: CacheGeometry = PAPER_GEOMETRY,
    mode: LatencyMode = LatencyMode.CLOCK,
) -> SweepCell:
    """Cell: cache-study TPI breakdowns of one app at every boundary."""
    return SweepCell(
        kind="cache_tpi",
        spec={
            "profile": profile.name,
            "n_refs": int(n_refs),
            "warmup_refs": int(warmup_refs),
            "boundaries": [int(k) for k in boundaries],
            "geometry": geometry_spec(geometry),
            "mode": mode.value,
        },
    )


@register_evaluator("cache_tpi")
def _evaluate_cache_tpi_cell(spec: Mapping[str, Any]) -> dict:
    profile = get_profile(spec["profile"])
    geometry = geometry_from_spec(spec.get("geometry"))
    mode = LatencyMode(spec.get("mode", "clock"))
    timing = CacheTimingModel(geometry=geometry, mode=mode)
    model = CacheTpiModel(timing=timing)
    histogram = cached_histogram(
        profile, spec["n_refs"], spec["warmup_refs"], geometry
    )
    rows: dict[str, dict] = {}
    for k in spec["boundaries"]:
        b = model.evaluate(histogram, profile.memory.load_store_fraction, int(k))
        row = {
            "l1_increments": b.l1_increments,
            "cycle_time_ns": b.cycle_time_ns,
            "tpi_ns": b.tpi_ns,
            "tpi_miss_ns": b.tpi_miss_ns,
            "l1_miss_ratio": b.l1_miss_ratio,
            "l2_hit_latency_cycles": b.l2_hit_latency_cycles,
            "n_references": b.n_references,
            "n_instructions": b.n_instructions,
        }
        if mode is LatencyMode.LATENCY:
            row["l1_latency_cycles"] = timing.l1_latency_cycles(int(k))
        rows[str(k)] = row
    return {"breakdowns": rows}


def queue_tpi_cell(
    profile: BenchmarkProfile, n_instructions: int, sizes: Sequence[int]
) -> SweepCell:
    """Cell: out-of-order machine results of one app at every queue size."""
    return SweepCell(
        kind="queue_tpi",
        spec={
            "profile": profile.name,
            "n_instructions": int(n_instructions),
            "sizes": [int(w) for w in sizes],
        },
    )


@register_evaluator("queue_tpi")
def _evaluate_queue_tpi_cell(spec: Mapping[str, Any]) -> dict:
    from repro.ooo.machine import run_window_sweep
    from repro.ooo.timing import QueueTimingModel

    profile = get_profile(spec["profile"])
    sizes = tuple(int(w) for w in spec["sizes"])
    cycle_ns = QueueTimingModel(sizes=sizes).cycle_table()
    trace = generate_instruction_trace(
        profile.ilp, spec["n_instructions"], profile.seed
    )
    results = run_window_sweep(trace, sizes)
    return {
        "results": {
            str(w): {
                "cycle_time_ns": cycle_ns[w],
                "ipc": r.ipc,
                "cycles": r.cycles,
                "n_instructions": r.n_instructions,
            }
            for w, r in results.items()
        }
    }


def tlb_tpi_cell(
    profile: BenchmarkProfile, n_refs: int, warmup_refs: int
) -> SweepCell:
    """Cell: TLB TPI breakdowns of one app at every fast-section size."""
    return SweepCell(
        kind="tlb_tpi",
        spec={
            "profile": profile.name,
            "n_refs": int(n_refs),
            "warmup_refs": int(warmup_refs),
        },
    )


@register_evaluator("tlb_tpi")
def _evaluate_tlb_tpi_cell(spec: Mapping[str, Any]) -> dict:
    from repro.tlb.tpi import TlbTpiModel

    profile = get_profile(spec["profile"])
    histogram = cached_tlb_histogram(profile, spec["n_refs"], spec["warmup_refs"])
    model = TlbTpiModel()
    rows: dict[str, dict] = {}
    for f in model.timing.boundaries():
        b = model.evaluate(histogram, profile.memory.load_store_fraction, f)
        rows[str(f)] = {
            "fast_entries": b.fast_entries,
            "cycle_time_ns": b.cycle_time_ns,
            "tpi_ns": b.tpi_ns,
            "tpi_tlb_ns": b.tpi_tlb_ns,
            "fast_hit_ratio": b.fast_hit_ratio,
        }
    return {"breakdowns": rows}


def branch_tpi_cell(
    profile: BenchmarkProfile, kind: PredictorKind, n_branches: int
) -> SweepCell:
    """Cell: branch TPI breakdowns of one app at every table size."""
    return SweepCell(
        kind="branch_tpi",
        spec={
            "profile": profile.name,
            "predictor": kind.value,
            "n_branches": int(n_branches),
        },
    )


@register_evaluator("branch_tpi")
def _evaluate_branch_tpi_cell(spec: Mapping[str, Any]) -> dict:
    from repro.branch.predictors import PredictorKind
    from repro.branch.tpi import BranchTpiModel
    from repro.branch.workloads import branch_profile_for

    profile = get_profile(spec["profile"])
    model = BranchTpiModel(kind=PredictorKind(spec["predictor"]))
    sweep = model.sweep_breakdowns(
        branch_profile_for(profile), n_branches=spec["n_branches"]
    )
    rows: dict[str, dict] = {}
    for s, b in sorted(sweep.items()):
        rows[str(s)] = {
            "n_entries": b.n_entries,
            "cycle_time_ns": b.cycle_time_ns,
            "misprediction_rate": b.misprediction_rate,
            "tpi_ns": b.tpi_ns,
        }
    return {"breakdowns": rows}


def interval_series_cell(
    workload_name: str,
    segments: Sequence[tuple[IlpProfile, int]],
    window: int,
    seed: int,
    interval_instructions: int,
) -> SweepCell:
    """Cell: per-interval TPI series of one phased workload at one window."""
    return SweepCell(
        kind="interval_series",
        spec={
            "workload": workload_name,
            "segments": [
                {"ilp": ilp_spec(ilp), "n_instructions": int(n)}
                for ilp, n in segments
            ],
            "window": int(window),
            "seed": int(seed),
            "interval_instructions": int(interval_instructions),
        },
    )


@register_evaluator("interval_series")
def _evaluate_interval_series(spec: Mapping[str, Any]) -> dict:
    from repro.ooo.intervals import interval_tpi_series
    from repro.ooo.machine import MachineConfig, OutOfOrderMachine
    from repro.ooo.timing import QueueTimingModel
    from repro.workloads.phases import PhasedWorkload, PhaseSegment

    workload = PhasedWorkload(
        name=spec["workload"],
        segments=tuple(
            PhaseSegment(ilp_from_spec(s["ilp"]), s["n_instructions"])
            for s in spec["segments"]
        ),
    )
    trace = workload.generate(spec["seed"])
    window = spec["window"]
    result = OutOfOrderMachine(MachineConfig(window=window)).run(trace)
    series = interval_tpi_series(
        result,
        QueueTimingModel().cycle_time_ns(window),
        spec["interval_instructions"],
    )
    return {
        "window": window,
        "cycle_time_ns": series.cycle_time_ns,
        "interval_instructions": series.interval_instructions,
        "tpi_ns": [float(t) for t in series.tpi_ns],
    }
