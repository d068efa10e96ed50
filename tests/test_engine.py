"""The experiment engine: determinism, caching, tracing, unification.

The engine's contract has three legs, each tested here:

* ``--jobs 1`` and ``--jobs N`` produce *bitwise identical* results —
  deterministic chunking plus submission-order assembly;
* the content-addressed cache round-trips payloads exactly, and its
  keys change when any technology constant changes; and
* under an active tracer every run is one ``engine.map`` span with one
  ``engine.cell`` event per cell, and the records validate against the
  trace schema (:func:`repro.obs.validate_trace`).

The unified sweep API is covered at the end: the four
:class:`~repro.core.metrics.StructureSweep` implementations, the
uniform ``run()`` return type, and the removal of the superseded
per-structure ``sweep`` entry points.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.engine.cache as cache_module
from repro.api import OptimizationRequest, request_cell, request_cell_key
from repro.branch.predictors import PredictorKind
from repro.core.metrics import StructureSweep, SweepResult
from repro.core.structure import StructureRunResult
from repro.engine.cache import ResultCache, cell_key, technology_fingerprint
from repro.engine.cells import (
    SweepCell,
    branch_tpi_cell,
    cache_tpi_cell,
    cell_kinds,
    evaluate_cell,
    interval_series_cell,
    queue_tpi_cell,
    tlb_tpi_cell,
)
from repro.engine.engine import ExperimentEngine, default_engine
from repro.engine.sweeps import (
    BranchStructureSweep,
    CacheStructureSweep,
    QueueStructureSweep,
    TlbStructureSweep,
    all_structure_sweeps,
)
from repro.errors import EngineError
from repro.obs import Tracer, summarize_trace, validate_trace
from repro.service.broker import SweepBroker
from repro.workloads.suite import all_profiles, get_profile
from tests.oracles import document_cell_key

#: Deliberately small traces: every test below re-simulates cells.
N_REFS, WARMUP = 6_000, 2_000
N_INSTR = 2_000
N_BRANCHES = 2_000


def _mixed_cells() -> list[SweepCell]:
    """A small batch spanning every registered cell kind."""
    compress = get_profile("compress")
    stereo = get_profile("stereo")
    segments = [(compress.ilp, 8_000), (stereo.ilp, 8_000)]
    return [
        cache_tpi_cell(compress, N_REFS, WARMUP, (1, 2, 4)),
        cache_tpi_cell(stereo, N_REFS, WARMUP, (1, 2, 4)),
        queue_tpi_cell(compress, N_INSTR, (16, 32)),
        tlb_tpi_cell(stereo, N_REFS, WARMUP),
        branch_tpi_cell(compress, PredictorKind.GSHARE, N_BRANCHES),
        interval_series_cell("toy", segments, 32, 7, 2_000),
    ]


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


def test_every_cell_kind_is_exercised_by_the_mixed_batch():
    assert {c.kind for c in _mixed_cells()} == set(cell_kinds())


def test_cells_are_picklable_for_spawn_workers():
    cells = _mixed_cells()
    assert pickle.loads(pickle.dumps(cells)) == cells


def test_unknown_cell_kind_is_an_engine_error():
    with pytest.raises(EngineError):
        evaluate_cell(SweepCell(kind="nope", spec={}))


# ---------------------------------------------------------------------------
# serial vs parallel determinism
# ---------------------------------------------------------------------------


def test_parallel_results_are_bitwise_identical_to_serial():
    cells = _mixed_cells()
    serial = ExperimentEngine(jobs=1).map(cells)
    parallel = ExperimentEngine(jobs=4).map(cells)
    # dict equality on float payloads IS bitwise equality: no tolerance.
    assert serial == parallel


def test_payloads_come_back_in_submission_order():
    compress = get_profile("compress")
    stereo = get_profile("stereo")
    cells = [
        tlb_tpi_cell(compress, N_REFS, WARMUP),
        tlb_tpi_cell(stereo, N_REFS, WARMUP),
    ]
    forward = ExperimentEngine(jobs=2).map(cells)
    backward = ExperimentEngine(jobs=2).map(list(reversed(cells)))
    assert forward == list(reversed(backward))


def test_jobs_must_be_positive():
    with pytest.raises(EngineError):
        ExperimentEngine(jobs=0)


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------


def test_cache_round_trip_is_exact(tmp_path):
    cells = _mixed_cells()
    cold_engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    cold = cold_engine.map(cells)
    assert cold_engine.stats.cache_misses == len(cells)
    assert cold_engine.cache.size() == len(cells)

    warm_engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    warm = warm_engine.map(cells)
    assert warm_engine.stats.cache_hits == len(cells)
    assert warm_engine.stats.cache_misses == 0
    # JSON round-trips floats exactly, so warm == cold bit for bit.
    assert warm == cold


def test_no_cache_flag_bypasses_a_configured_directory(tmp_path):
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path, use_cache=False)
    engine.map(_mixed_cells()[:1])
    assert engine.cache is None
    assert not list(tmp_path.rglob("*.json"))


def test_technology_change_invalidates_every_key(tmp_path, monkeypatch):
    cell = _mixed_cells()[0]
    before = ResultCache(tmp_path).key(cell)
    from repro.tech import parameters

    monkeypatch.setattr(
        parameters,
        "WIRE_RESISTANCE_OHM_PER_MM",
        parameters.WIRE_RESISTANCE_OHM_PER_MM * 1.01,
    )
    # A new handle re-reads the live constants; the key must move.
    after = ResultCache(tmp_path).key(cell)
    assert before != after


def test_stale_entries_are_recomputed_after_a_tech_change(tmp_path, monkeypatch):
    cells = _mixed_cells()[:2]
    ExperimentEngine(jobs=1, cache_dir=tmp_path).map(cells)
    from repro.tech import parameters

    monkeypatch.setattr(
        parameters,
        "WIRE_RESISTANCE_OHM_PER_MM",
        parameters.WIRE_RESISTANCE_OHM_PER_MM * 1.01,
    )
    recalibrated = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    recalibrated.map(cells)
    assert recalibrated.stats.cache_hits == 0
    assert recalibrated.stats.cache_misses == len(cells)


def test_invalidate_by_kind_only_drops_that_kind(tmp_path):
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    cells = _mixed_cells()
    engine.map(cells)
    n_cache_cells = sum(1 for c in cells if c.kind == "cache_tpi")
    assert engine.invalidate_cache(kind="cache_tpi") == n_cache_cells
    assert engine.cache.size() == len(cells) - n_cache_cells
    assert engine.invalidate_cache() == len(cells) - n_cache_cells
    assert engine.cache.size() == 0


def test_corrupt_entries_are_misses_not_errors(tmp_path):
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    cell = _mixed_cells()[3]
    good = engine.run_cell(cell)
    entry = engine.cache.path(engine.cache.key(cell))
    entry.write_text("{ not json", encoding="utf-8")
    again = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    assert again.run_cell(cell) == good
    assert again.stats.cache_misses == 1


def test_cell_key_mixes_kind_and_spec():
    fingerprint = technology_fingerprint()
    compress = get_profile("compress")
    a = cache_tpi_cell(compress, N_REFS, WARMUP, (1, 2))
    b = cache_tpi_cell(compress, N_REFS, WARMUP, (1, 2, 4))
    assert cell_key(a, fingerprint) != cell_key(b, fingerprint)


def test_warm_load_never_re_encodes_the_payload(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cell = _mixed_cells()[0]
    key = cache.key(cell)
    payload = {"breakdowns": {"1": {"tpi_ns": 1.25, "l1_increments": 1}}}
    cache.store(key, cell, payload)
    calls: list[object] = []
    monkeypatch.setattr(cache_module, "canonical_json", calls.append)
    assert cache.load(key) == payload
    assert calls == []


# ---------------------------------------------------------------------------
# cell keys: the spliced identity text is the whole document's, byte for byte
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def key_holders(tmp_path_factory):
    """Every holder that keys cells, all under one captured fingerprint."""
    root = tmp_path_factory.mktemp("keys")
    cache = ResultCache(root / "cache")
    fingerprint = cache.fingerprint
    broker = SweepBroker(engine=ExperimentEngine())
    assert broker.keyer.fingerprint == fingerprint
    return fingerprint, {
        "ResultCache.key": cache.key,
        "cell_key": lambda cell: cell_key(cell, fingerprint),
        "SweepBroker.keyer": broker.keyer.key,
    }


def test_every_suite_cell_key_equals_the_document_key(key_holders):
    fingerprint, holders = key_holders
    cells = [
        sweep.cell(profile)
        for sweep in all_structure_sweeps()
        for profile in all_profiles()
    ]
    assert len(cells) == 88
    for cell in cells:
        expected = document_cell_key(cell, fingerprint)
        for name, key in holders.items():
            assert key(cell) == expected, name
    # A fingerprint re-derived from the live constants keys alike.
    assert cell_key(cells[0]) == document_cell_key(cells[0], fingerprint)
    for structure, app in (
        ("dcache", "compress"), ("iqueue", "swim"), ("tlb", "li"), ("bpred", "go"),
    ):
        request = OptimizationRequest(structure, app)
        assert request_cell_key(request, fingerprint) == document_cell_key(
            request_cell(request), fingerprint
        )


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.text(min_size=1, max_size=16),
    spec=st.dictionaries(st.text(max_size=10), _JSON_VALUES, max_size=6),
)
def test_generated_spec_keys_equal_the_document_key(key_holders, kind, spec):
    fingerprint, holders = key_holders
    cell = SweepCell(kind=kind, spec=spec)
    expected = document_cell_key(cell, fingerprint)
    for name, key in holders.items():
        assert key(cell) == expected, name


#: What the Figure 8/9 and 10/11 harnesses never run: the serving stack,
#: the linter, the online controllers, trace post-processing and the
#: other structures' simulators.
_UNUSED_BY_FIGURE_HARNESS = (
    "repro.service", "repro.dispatch", "repro.api", "repro.analysis",
    "repro.core.controller", "repro.core.policies", "repro.core.multiprogram",
    "repro.obs.critical", "repro.obs.summarize", "repro.obs.stitch",
    "repro.ooo.machine", "repro.tlb.simulator", "repro.branch.predictors",
)


def test_figure_harness_imports_load_no_pool_loop_or_http_modules():
    code = (
        "import sys\n"
        "import repro.experiments.cache_study, repro.experiments.queue_study\n"
        "heavy = ('multiprocessing', 'concurrent', 'asyncio', 'http')\n"
        f"unused = {_UNUSED_BY_FIGURE_HARNESS!r}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in heavy\n"
        "             or any(m == u or m.startswith(u + '.') for u in unused)))\n"
    )
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# run telemetry: the trace is the engine's one event stream
# ---------------------------------------------------------------------------


def test_telemetry_log_validates_against_the_schema(tmp_path):
    cells = _mixed_cells()
    engine = ExperimentEngine(jobs=2, cache_dir=tmp_path / "cache")
    with Tracer() as tracer:
        engine.map(cells)
        engine.map(cells)  # second, fully cached run in the same trace

    validate_trace(tracer.records)  # raises on any schema violation

    runs = [r for r in tracer.records if r["name"] == "engine.map"]
    assert len(runs) == 2
    cold, warm = (r["attrs"] for r in runs)
    assert (cold["cache_misses"], cold["cache_hits"]) == (len(cells), 0)
    assert (warm["cache_misses"], warm["cache_hits"]) == (0, len(cells))
    assert "run_id" not in cold  # the span id names the run
    cell_events = [r for r in tracer.records if r["name"] == "engine.cell"]
    assert [e["attrs"]["index"] for e in cell_events] == [0, 1, 2, 3, 4, 5] * 2
    assert {e["attrs"]["source"] for e in cell_events} == {"cache", "computed"}
    assert [e["parent"] for e in cell_events] == (
        [runs[0]["id"]] * len(cells) + [runs[1]["id"]] * len(cells)
    )

    digest = summarize_trace(tracer.records)
    assert f"engine.map {runs[0]['id']}: {len(cells)} cells (0 cached" in digest
    assert f"engine.map {runs[1]['id']}: {len(cells)} cells ({len(cells)} cached" in digest


def test_telemetry_counters_exist_without_a_log_file():
    engine = ExperimentEngine(jobs=1)
    engine.map(_mixed_cells()[:1])
    assert engine.stats.runs == 1
    assert engine.stats.cells == 1


# ---------------------------------------------------------------------------
# unified sweep API
# ---------------------------------------------------------------------------


def test_all_four_sweeps_satisfy_the_protocol():
    sweeps = all_structure_sweeps()
    assert [s.structure for s in sweeps] == ["dcache", "iqueue", "tlb", "bpred"]
    for sweep in sweeps:
        assert isinstance(sweep, StructureSweep)
        assert sweep.configurations() == tuple(sorted(sweep.configurations()))


@pytest.mark.parametrize(
    "sweep",
    [
        CacheStructureSweep(n_refs=N_REFS, warmup_refs=WARMUP, boundaries=(1, 2, 4)),
        QueueStructureSweep(n_instructions=N_INSTR, sizes=(16, 32)),
        TlbStructureSweep(n_refs=N_REFS, warmup_refs=WARMUP),
        BranchStructureSweep(n_branches=N_BRANCHES),
    ],
    ids=lambda s: s.structure,
)
def test_sweep_returns_uniform_results(sweep):
    profile = get_profile("compress")
    results = sweep.sweep(profile)
    assert set(results) == set(sweep.configurations())
    for config, point in results.items():
        assert isinstance(point, SweepResult)
        assert point.config == config
        assert point.tpi_ns > 0 and point.cycle_time_ns > 0
        assert point.ipc == pytest.approx(point.cycle_time_ns / point.tpi_ns)
    best = sweep.best(profile)
    assert best.tpi_ns == min(p.tpi_ns for p in results.values())


def test_sweeps_agree_with_the_legacy_models():
    profile = get_profile("compress")
    sweep = TlbStructureSweep(n_refs=N_REFS, warmup_refs=WARMUP)
    unified = sweep.sweep(profile)

    from repro.engine.cells import cached_tlb_histogram
    from repro.tlb.tpi import TlbTpiModel

    histogram = cached_tlb_histogram(profile, N_REFS, WARMUP)
    ls = profile.memory.load_store_fraction
    legacy = TlbTpiModel().sweep_breakdowns(histogram, ls)
    assert set(unified) == set(legacy)
    for f, point in unified.items():
        assert point.tpi_ns == legacy[f].tpi_ns
        assert point.cycle_time_ns == legacy[f].cycle_time_ns


def test_removed_sweep_signatures_hard_error():
    from repro.branch.tpi import BranchTpiModel
    from repro.experiments import queue_study
    from repro.tlb.tpi import TlbTpiModel

    profile = get_profile("compress")
    from repro.engine.cells import cached_tlb_histogram

    histogram = cached_tlb_histogram(profile, N_REFS, WARMUP)
    ls = profile.memory.load_store_fraction
    with pytest.raises(AttributeError):
        TlbTpiModel().sweep
    # The raw breakdown surface replaces it one-for-one.
    assert TlbTpiModel().sweep_breakdowns(histogram, ls)

    with pytest.raises(AttributeError):
        BranchTpiModel().sweep

    with pytest.raises(ImportError):
        from repro.experiments.queue_study import sweep_for  # noqa: F401
    assert not hasattr(queue_study, "sweep_for")


def test_cache_model_sweep_hard_errors():
    from repro.cache.tpi import CacheTpiModel
    from repro.engine.cells import cached_histogram

    profile = get_profile("compress")
    histogram = cached_histogram(profile, N_REFS, WARMUP)
    ls = profile.memory.load_store_fraction
    with pytest.raises(AttributeError):
        CacheTpiModel().sweep
    assert CacheTpiModel().sweep_breakdowns(histogram, ls, boundaries=(1, 2))


# ---------------------------------------------------------------------------
# uniform run() results
# ---------------------------------------------------------------------------


def test_adaptive_structures_share_one_run_result_type():
    import numpy as np

    from repro import (
        AdaptiveBranchPredictor,
        AdaptiveCacheHierarchy,
        AdaptiveInstructionQueue,
        AdaptiveTlb,
    )
    from repro.workloads.address_trace import generate_address_trace
    from repro.workloads.instruction_trace import generate_instruction_trace

    profile = get_profile("compress")
    addresses = generate_address_trace(profile.memory, 4_000, profile.seed)
    trace = generate_instruction_trace(profile.ilp, 2_000, profile.seed)

    results = [
        AdaptiveCacheHierarchy().run(addresses),
        AdaptiveTlb().run(addresses),
        AdaptiveInstructionQueue().run(trace),
    ]
    from repro.branch.workloads import branch_profile_for, generate_branch_trace

    pcs, taken = generate_branch_trace(branch_profile_for(profile), 2_000)
    results.append(AdaptiveBranchPredictor().run(pcs, taken))

    for result in results:
        assert isinstance(result, StructureRunResult)
        assert result.n_events > 0
        for name, value in result.stats.items():
            assert isinstance(name, str)
            float(value)  # every stat is numeric
        with pytest.raises(KeyError):
            result.stat("definitely-not-a-stat")

    ratios = results[0]
    assert ratios.stat("l1_hit_ratio") + ratios.stat("l2_hit_ratio") + ratios.stat(
        "miss_ratio"
    ) == pytest.approx(1.0)


def test_default_engine_is_a_shared_serial_singleton():
    eng = default_engine()
    assert eng is default_engine()
    assert eng.jobs == 1
    assert eng.cache is None
