"""Fault tolerance: every recovery path, proven byte-identical.

The resilience layer's contract is that faults cost time, never
correctness.  Each section here injects one failure mode through the
deterministic :class:`~repro.resilience.FaultPlan` harness and asserts
the recovered results equal a fault-free run exactly:

* **transient exceptions** are retried with capped exponential backoff
  and deterministic jitter;
* **worker crashes** (``BrokenProcessPool``) respawn the pool and
  re-queue the lost chunks;
* **hung workers** are detected by the per-chunk timeout, the pool is
  killed, and the chunk re-queued;
* **repeated pool deaths** degrade the executor to serial in-process
  evaluation, which completes even a crash-plagued plan;
* **corrupt cache entries** are detected by checksum, quarantined and
  recomputed; and
* an **interrupted sweep** (including SIGKILL, which runs no cleanup)
  resumes from its checkpoint journal, re-executing only the cells that
  never finished.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.engine.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    payload_checksum,
)
from repro.engine.cells import (
    cache_tpi_cell,
    evaluate_chunk,
    queue_tpi_cell,
    tlb_tpi_cell,
)
from repro.engine.engine import ExperimentEngine
from repro.errors import (
    CacheCorruptionError,
    EngineError,
    FatalError,
    TransientError,
)
from repro.obs.metrics import metrics
from repro.resilience import (
    FaultEvent,
    FaultPlan,
    ResilientExecutor,
    RetryPolicy,
    SweepJournal,
    corrupt_cache_entry,
)
from repro.workloads.suite import get_profile

#: Deliberately small traces: every test below re-simulates cells.
N_REFS, WARMUP = 6_000, 2_000
N_INSTR = 2_000

#: Per-chunk deadline generous enough for a spawn-mode worker's startup
#: (~0.5s import + roundtrip measured) yet short enough to keep the
#: hang-recovery test quick.
TIMEOUT_S = 5.0

#: A backoff too small to slow the suite down but still exercised.
FAST = RetryPolicy(base_delay_s=0.001, max_delay_s=0.01)


def _small_cells(n: int = 3):
    """``n`` distinct cheap cells (distinct so ordering bugs surface)."""
    compress = get_profile("compress")
    stereo = get_profile("stereo")
    builders = [
        lambda i: queue_tpi_cell(compress, N_INSTR + 100 * i, (16, 32)),
        lambda i: tlb_tpi_cell(stereo, N_REFS + 100 * i, WARMUP),
        lambda i: cache_tpi_cell(compress, N_REFS + 100 * i, WARMUP, (1, 2)),
    ]
    return [builders[i % len(builders)](i) for i in range(n)]


def _chunks(n: int = 3):
    """One single-cell chunk per cell: faults address chunks precisely."""
    return [[cell] for cell in _small_cells(n)]


def _payloads(chunk_results):
    """Strip the wall times, which legitimately differ between runs."""
    return [[payload for payload, _ in chunk] for chunk in chunk_results]


def _counter(name: str) -> float:
    return metrics().counter(name).value()


# ---------------------------------------------------------------------------
# retry policy
# ---------------------------------------------------------------------------


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_delay_s=0.1, backoff=2.0, max_delay_s=0.5, jitter=0.0)
    assert policy.delay_s(1) == pytest.approx(0.1)
    assert policy.delay_s(2) == pytest.approx(0.2)
    assert policy.delay_s(3) == pytest.approx(0.4)
    assert policy.delay_s(4) == pytest.approx(0.5)  # capped
    assert policy.delay_s(9) == pytest.approx(0.5)
    assert policy.delay_s(0) == 0.0


def test_jitter_is_deterministic_not_random():
    policy = RetryPolicy(seed=7)
    assert policy.jitter_unit(1, "3") == policy.jitter_unit(1, "3")
    assert 0.0 <= policy.jitter_unit(1, "3") < 1.0
    # different attempts, tokens and seeds decorrelate
    assert policy.jitter_unit(1, "3") != policy.jitter_unit(2, "3")
    assert policy.jitter_unit(1, "3") != policy.jitter_unit(1, "4")
    assert policy.jitter_unit(1, "3") != RetryPolicy(seed=8).jitter_unit(1, "3")


def test_jittered_delay_stays_within_the_declared_band():
    policy = RetryPolicy(base_delay_s=0.1, backoff=2.0, max_delay_s=10.0, jitter=0.5)
    for attempt in (1, 2, 3):
        raw = 0.1 * 2.0 ** (attempt - 1)
        delay = policy.delay_s(attempt, token="x")
        assert raw <= delay <= raw * 1.5


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_attempts": 0},
        {"base_delay_s": -0.1},
        {"backoff": 0.5},
        {"jitter": 1.5},
        {"timeout_s": 0.0},
        {"max_pool_respawns": -1},
    ],
)
def test_policy_validation_rejects_nonsense(kwargs):
    with pytest.raises(EngineError):
        RetryPolicy(**kwargs)


def test_only_transient_errors_are_worth_retrying():
    assert RetryPolicy.is_transient(TransientError("blip"))
    assert not RetryPolicy.is_transient(ValueError("bug"))
    assert not RetryPolicy.is_transient(EngineError("bad spec"))
    assert not RetryPolicy.is_transient(FatalError("gave up"))


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------


def test_fault_event_validation():
    with pytest.raises(EngineError):
        FaultEvent("meteor")
    with pytest.raises(EngineError):
        FaultEvent("crash", chunk=-1)
    with pytest.raises(EngineError):
        FaultEvent("hang", hang_s=0.0)


def test_fault_plans_are_picklable_for_spawn_workers():
    plan = FaultPlan(
        events=(FaultEvent("crash", chunk=1), FaultEvent("transient", chunk=2))
    )
    assert pickle.loads(pickle.dumps(plan)) == plan


def test_seeded_plans_are_pure_functions_of_the_seed():
    a = FaultPlan.seeded(42, 100, crash_rate=0.1, transient_rate=0.2)
    b = FaultPlan.seeded(42, 100, crash_rate=0.1, transient_rate=0.2)
    assert a == b
    assert a.events  # the rates make silence astronomically unlikely
    assert a != FaultPlan.seeded(43, 100, crash_rate=0.1, transient_rate=0.2)
    assert FaultPlan.seeded(42, 100).events == ()


def test_events_fire_exactly_at_their_chunk_and_attempt():
    plan = FaultPlan(
        events=(
            FaultEvent("transient", chunk=1, attempt=0),
            FaultEvent("corrupt_cache", chunk=1),
        )
    )
    assert [e.kind for e in plan.events_for(1, 0)] == ["transient"]
    assert plan.events_for(1, 1) == ()  # the retry must succeed
    assert plan.events_for(0, 0) == ()
    assert plan.corrupt_targets() == (1,)


def test_serial_mode_skips_worker_process_faults():
    # crash/hang model worker-process deaths; firing them inline would
    # take down the main process, so serial mode skips them...
    plan = FaultPlan(
        events=(FaultEvent("crash"), FaultEvent("hang", hang_s=60.0))
    )
    plan.fire(0, 0, serial=True)  # returns instead of exiting/sleeping
    # ...but a transient is process-agnostic and fires in both modes.
    with pytest.raises(TransientError):
        FaultPlan(events=(FaultEvent("transient"),)).fire(0, 0, serial=True)


# ---------------------------------------------------------------------------
# executor recovery paths (each proves results byte-identical to fault-free)
# ---------------------------------------------------------------------------


def test_transient_failure_is_retried_to_an_identical_result():
    chunks = _chunks(3)
    baseline = [evaluate_chunk(c) for c in chunks]
    plan = FaultPlan(events=(FaultEvent("transient", chunk=1, attempt=0),))
    executor = ResilientExecutor(jobs=2, policy=FAST, fault_plan=plan)
    results = executor.run(chunks)
    assert _payloads(results) == _payloads(baseline)
    assert executor.report.retries == 1
    assert executor.report.pool_respawns == 0


def test_worker_crash_respawns_the_pool_and_requeues():
    chunks = _chunks(3)
    baseline = [evaluate_chunk(c) for c in chunks]
    plan = FaultPlan(events=(FaultEvent("crash", chunk=0, attempt=0),))
    executor = ResilientExecutor(jobs=2, policy=FAST, fault_plan=plan)
    results = executor.run(chunks)
    assert _payloads(results) == _payloads(baseline)
    assert executor.report.pool_respawns >= 1
    assert not executor.report.serial_fallback


def test_hung_worker_is_timed_out_and_recovered():
    chunks = _chunks(2)
    baseline = [evaluate_chunk(c) for c in chunks]
    plan = FaultPlan(events=(FaultEvent("hang", chunk=0, attempt=0, hang_s=120.0),))
    policy = RetryPolicy(base_delay_s=0.001, timeout_s=TIMEOUT_S)
    executor = ResilientExecutor(jobs=2, policy=policy, fault_plan=plan)
    start = time.perf_counter()
    results = executor.run(chunks)
    # recovery must not wait out the 120s hang: the pool gets killed
    assert time.perf_counter() - start < 60.0
    assert _payloads(results) == _payloads(baseline)
    assert executor.report.timeouts == 1
    assert executor.report.pool_respawns >= 1


def test_repeated_pool_deaths_degrade_to_serial():
    chunks = _chunks(3)
    baseline = [evaluate_chunk(c) for c in chunks]
    plan = FaultPlan(events=(FaultEvent("crash", chunk=0, attempt=0),))
    policy = RetryPolicy(base_delay_s=0.001, max_pool_respawns=0)
    executor = ResilientExecutor(jobs=2, policy=policy, fault_plan=plan)
    results = executor.run(chunks)
    assert _payloads(results) == _payloads(baseline)
    assert executor.report.serial_fallback


def test_exhausted_transient_budget_escalates_to_fatal():
    plan = FaultPlan(
        events=tuple(
            FaultEvent("transient", chunk=0, attempt=a) for a in range(3)
        )
    )
    executor = ResilientExecutor(
        jobs=1, policy=RetryPolicy(max_attempts=2, base_delay_s=0.001),
        fault_plan=plan,
    )
    with pytest.raises(FatalError) as excinfo:
        executor.run(_chunks(1))
    assert isinstance(excinfo.value.__cause__, TransientError)
    assert "2 attempt(s)" in str(excinfo.value)
    assert executor.report.retries == 1


def test_deterministic_bugs_are_not_retried():
    from repro.engine.cells import SweepCell

    executor = ResilientExecutor(jobs=1, policy=FAST)
    with pytest.raises(FatalError) as excinfo:
        executor.run([[SweepCell(kind="nope", spec={})]])
    assert "1 attempt(s)" in str(excinfo.value)  # no retry wasted
    assert executor.report.retries == 0


def test_serial_executor_retries_inline_with_backoff():
    chunks = _chunks(2)
    baseline = [evaluate_chunk(c) for c in chunks]
    plan = FaultPlan(events=(FaultEvent("transient", chunk=1, attempt=0),))
    slept: list[float] = []
    executor = ResilientExecutor(
        jobs=1, policy=FAST, fault_plan=plan, sleep=slept.append
    )
    results = executor.run(chunks)
    assert _payloads(results) == _payloads(baseline)
    assert executor.report.retries == 1
    assert slept == [FAST.delay_s(1, token="1")]  # deterministic backoff


def test_executor_handles_an_empty_batch():
    assert ResilientExecutor(jobs=2).run([]) == []


# ---------------------------------------------------------------------------
# engine integration: faults end-to-end, ordered assembly, validation
# ---------------------------------------------------------------------------


def test_engine_results_survive_faults_byte_identical():
    cells = _small_cells(4)
    baseline = ExperimentEngine(jobs=1).map(cells)
    plan = FaultPlan(events=(FaultEvent("crash", chunk=0, attempt=0),))
    faulted = ExperimentEngine(
        jobs=2, chunk_size=1, retry=FAST, fault_plan=plan
    )
    assert faulted.map(cells) == baseline


def test_mid_batch_transient_keeps_indices_aligned(tmp_path):
    # Satellite: a chunk that fails mid-batch must not shift any other
    # cell's payload, and the cells that did finish must be journaled.
    cells = _small_cells(4)
    baseline = ExperimentEngine(jobs=1).map(cells)
    journal = tmp_path / "sweep.journal"
    plan = FaultPlan(events=(FaultEvent("transient", chunk=2, attempt=0),))
    engine = ExperimentEngine(
        jobs=2, chunk_size=1, retry=FAST, fault_plan=plan, journal=journal
    )
    results = engine.map(cells)
    assert results == baseline  # per-index equality == aligned assembly
    assert SweepJournal(journal).completed_count() == len(cells)


def test_partials_journaled_before_a_fatal_error_enable_resume(tmp_path):
    cells = _small_cells(4)
    baseline = ExperimentEngine(jobs=1).map(cells)
    journal = tmp_path / "sweep.journal"
    plan = FaultPlan(
        events=tuple(
            FaultEvent("transient", chunk=2, attempt=a) for a in range(2)
        )
    )
    doomed = ExperimentEngine(
        jobs=2, chunk_size=1, journal=journal, fault_plan=plan,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.001),
    )
    with pytest.raises(FatalError):
        doomed.map(cells)
    done = SweepJournal(journal).completed_count()
    assert done < len(cells)  # the faulted cell never completed
    rescued = ExperimentEngine(jobs=1, journal=journal, resume=True)
    assert rescued.map(cells) == baseline
    assert rescued.stats.resumed == done
    assert rescued.stats.cache_misses == len(cells) - done


def test_chunk_size_must_be_positive_or_none():
    with pytest.raises(EngineError, match="heuristic"):
        ExperimentEngine(chunk_size=0)
    ExperimentEngine(chunk_size=None)  # the heuristic default


def test_cache_dir_pointing_at_a_file_is_rejected(tmp_path):
    bogus = tmp_path / "not-a-dir"
    bogus.write_text("occupied")
    with pytest.raises(EngineError, match="not a directory"):
        ExperimentEngine(cache_dir=bogus)


def test_cache_dir_empty_string_is_rejected():
    with pytest.raises(EngineError, match="empty string"):
        ExperimentEngine(cache_dir="")


def test_resume_requires_a_journal():
    with pytest.raises(EngineError, match="journal"):
        ExperimentEngine(resume=True)


# ---------------------------------------------------------------------------
# cache integrity
# ---------------------------------------------------------------------------


def test_entries_record_a_payload_checksum(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cells = _small_cells(1)
    key = cache.key(cells[0])
    cache.store(key, cells[0], {"tpi": [1.0, 2.0]})
    entry = json.loads(cache.path(key).read_text())
    assert entry["schema"] == CACHE_SCHEMA_VERSION
    assert entry["checksum"] == payload_checksum({"tpi": [1.0, 2.0]})


def test_corrupt_entry_is_quarantined_and_recomputed(tmp_path, caplog):
    cells = _small_cells(2)
    cache_dir = tmp_path / "cache"
    baseline = ExperimentEngine(jobs=1, cache_dir=cache_dir).map(cells)
    cache = ResultCache(cache_dir)
    assert corrupt_cache_entry(cache, cache.key(cells[0]))
    before = _counter("repro_engine_cache_corrupt_total")
    engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
        assert engine.map(cells) == baseline
    assert engine.stats.cache_misses == 1  # only the corrupt cell recomputed
    assert engine.stats.cache_hits == 1
    assert _counter("repro_engine_cache_corrupt_total") == before + 1
    assert cache.quarantined() == 1
    assert any("quarantining" in r.message for r in caplog.records)
    # the recompute healed the cache: next run is all hits
    healed = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    assert healed.map(cells) == baseline
    assert healed.stats.cache_misses == 0


def test_checksum_mismatch_is_corruption_even_when_json_is_valid(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cells = _small_cells(1)
    key = cache.key(cells[0])
    cache.store(key, cells[0], {"tpi": [1.0]})
    entry = json.loads(cache.path(key).read_text())
    # Change one digit of the stored payload text, keep the checksum.
    tampered = entry["payload"].replace("1.0", "9.0")
    assert tampered != entry["payload"]
    entry["payload"] = tampered
    cache.path(key).write_text(json.dumps(entry))
    assert cache.load(key) is None
    assert cache.quarantined() == 1


@pytest.mark.parametrize("text", ['{"tpi": [1.0', "[1.0, 2.0]"])
def test_checksummed_payload_text_must_parse_to_an_object(tmp_path, text):
    cache = ResultCache(tmp_path / "cache")
    cells = _small_cells(1)
    key = cache.key(cells[0])
    cache.store(key, cells[0], {"tpi": [1.0]})
    entry = json.loads(cache.path(key).read_text())
    entry["payload"] = text
    entry["checksum"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    cache.path(key).write_text(json.dumps(entry))
    with pytest.raises(CacheCorruptionError):
        cache.load(key, strict=True)
    assert cache.quarantined() == 1


def test_strict_load_raises_instead_of_recomputing(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cells = _small_cells(1)
    key = cache.key(cells[0])
    cache.store(key, cells[0], {"tpi": [1.0]})
    corrupt_cache_entry(cache, key)
    with pytest.raises(CacheCorruptionError):
        cache.load(key, strict=True)


def test_old_schema_entries_are_stale_misses_not_corruption(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cells = _small_cells(1)
    key = cache.key(cells[0])
    cache.store(key, cells[0], {"tpi": [1.0]})
    entry = json.loads(cache.path(key).read_text())
    entry["schema"] = CACHE_SCHEMA_VERSION - 1
    cache.path(key).write_text(json.dumps(entry))
    before = _counter("repro_engine_cache_corrupt_total")
    assert cache.load(key) is None  # a plain miss...
    assert cache.quarantined() == 0  # ...not quarantined
    assert _counter("repro_engine_cache_corrupt_total") == before
    report = cache.verify()
    assert (report.total, report.stale, report.corrupt) == (1, 1, ())
    assert report.healthy


def test_schema_2_entries_are_stale_misses_overwritten_by_the_recompute(tmp_path):
    cells = _small_cells(1)
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache")
    cache = engine.cache
    key = cache.key(cells[0])
    path = cache.path(key)
    path.parent.mkdir(parents=True)
    # The schema-2 layout: the payload object itself, checksummed.
    old_payload = {"tpi": [123.0]}
    path.write_text(json.dumps({
        "schema": 2,
        "kind": cells[0].kind,
        "spec": dict(cells[0].spec),
        "payload": old_payload,
        "checksum": payload_checksum(old_payload),
    }))
    before = _counter("repro_engine_cache_corrupt_total")
    assert cache.load(key) is None
    [payload] = engine.map(cells)
    assert engine.stats.cache_misses == 1
    assert cache.quarantined() == 0
    assert _counter("repro_engine_cache_corrupt_total") == before
    entry = json.loads(path.read_text())
    assert entry["schema"] == CACHE_SCHEMA_VERSION
    assert json.loads(entry["payload"]) == payload != old_payload
    assert cache.load(key) == payload


def test_verify_sweeps_the_whole_cache(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cells = _small_cells(3)
    keys = [cache.key(c) for c in cells]
    for key, cell in zip(keys, cells):
        cache.store(key, cell, {"tpi": [1.0]})
    corrupt_cache_entry(cache, keys[0])
    report = cache.verify()
    assert report.total == 3
    assert report.ok == 2
    assert report.corrupt == (keys[0],)
    assert not report.healthy
    assert cache.quarantined() == 1
    assert cache.size() == 2  # quarantine is out of the entry namespace
    # a second verify sees only the healthy remainder
    assert cache.verify().healthy


# ---------------------------------------------------------------------------
# checkpoint journal + resume
# ---------------------------------------------------------------------------


def test_journal_round_trips_completed_cells(tmp_path):
    journal = SweepJournal(tmp_path / "j.journal")
    cells = _small_cells(2)
    for i, cell in enumerate(cells):
        journal.record(journal.key(cell), cell, {"tpi": [float(i)]}, 0.1)
    loaded = journal.load()
    assert loaded[journal.key(cells[0])] == {"tpi": [0.0]}
    assert loaded[journal.key(cells[1])] == {"tpi": [1.0]}
    assert journal.completed_count() == 2


def test_journal_tolerates_a_torn_tail(tmp_path):
    path = tmp_path / "j.journal"
    journal = SweepJournal(path)
    cells = _small_cells(1)
    journal.record(journal.key(cells[0]), cells[0], {"tpi": [1.0]}, 0.1)
    with path.open("a") as fh:
        fh.write('{"journal": 1, "event": "cell_done", "key": "abc",')  # SIGKILL
    assert journal.completed_count() == 1  # torn line skipped, not fatal


def test_journal_ignores_foreign_schema_records(tmp_path):
    path = tmp_path / "j.journal"
    path.write_text(
        '{"journal": 999, "event": "cell_done", "key": "k", "payload": {}}\n'
        '{"journal": 1, "event": "other", "key": "k", "payload": {}}\n'
    )
    assert SweepJournal(path).load() == {}


def test_resume_serves_journaled_cells_without_recompute(tmp_path):
    cells = _small_cells(4)
    baseline = ExperimentEngine(jobs=1).map(cells)
    journal = tmp_path / "sweep.journal"
    ExperimentEngine(jobs=1, journal=journal).map(cells[:2])  # "interrupted"
    resumed = ExperimentEngine(jobs=1, journal=journal, resume=True)
    assert resumed.map(cells) == baseline
    assert resumed.stats.resumed == 2
    assert resumed.stats.cache_misses == 2  # only the unfinished cells ran


def test_journal_keys_are_content_addressed_so_stale_journals_miss(tmp_path):
    # A journal written under a different technology fingerprint (e.g.
    # before a recalibration) must silently stop matching, not serve
    # wrong results.
    cells = _small_cells(2)
    path = tmp_path / "stale.journal"
    stale = SweepJournal(path, fingerprint={"schema": -1, "fake": True})
    for cell in cells:
        stale.record(stale.key(cell), cell, {"tpi": [123.0]}, 0.1)
    resumed = ExperimentEngine(jobs=1, journal=path, resume=True)
    assert resumed.map(cells) == ExperimentEngine(jobs=1).map(cells)
    assert resumed.stats.resumed == 0  # nothing matched


def test_sigkilled_sweep_resumes_from_its_journal(tmp_path):
    # The real thing: a child process is SIGKILLed mid-sweep (no atexit,
    # no finally blocks run) and the journal still resumes it.
    compress = get_profile("compress")
    cells = [
        cache_tpi_cell(compress, 400_000 + 10_000 * i, 20_000, (1, 2, 4))
        for i in range(8)
    ]
    journal = tmp_path / "sweep.journal"
    child = (
        "import sys\n"
        "from repro.engine.engine import ExperimentEngine\n"
        "from repro.engine.cells import cache_tpi_cell\n"
        "from repro.workloads.suite import get_profile\n"
        "compress = get_profile('compress')\n"
        "cells = [cache_tpi_cell(compress, 400_000 + 10_000 * i, 20_000,\n"
        "                        (1, 2, 4)) for i in range(8)]\n"
        "ExperimentEngine(jobs=1, journal=sys.argv[1]).map(cells)\n"
    )
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", child, str(journal)], env=env
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and proc.poll() is None:
            if journal.exists() and journal.read_text().count("\n") >= 1:
                break
            time.sleep(0.02)
        proc.kill()  # SIGKILL: no cleanup of any kind runs
    finally:
        proc.wait()
    done = SweepJournal(journal).completed_count()
    assert done >= 1  # the journal preserved finished work...
    baseline = ExperimentEngine(jobs=1).map(cells)
    resumed = ExperimentEngine(jobs=1, journal=journal, resume=True)
    assert resumed.map(cells) == baseline  # ...and resume completes it
    assert resumed.stats.resumed == done
    assert resumed.stats.cache_misses == len(cells) - done


def test_resumed_cells_are_written_through_to_the_cache(tmp_path):
    cells = _small_cells(2)
    journal = tmp_path / "sweep.journal"
    ExperimentEngine(jobs=1, journal=journal).map(cells)
    cache_dir = tmp_path / "cache"
    resumed = ExperimentEngine(
        jobs=1, cache_dir=cache_dir, journal=journal, resume=True
    )
    resumed.map(cells)
    assert resumed.stats.resumed == 2
    assert ResultCache(cache_dir).size() == 2  # journal hits seed the cache


# ---------------------------------------------------------------------------
# observability of recovery actions
# ---------------------------------------------------------------------------


def test_recovery_actions_are_counted_on_the_metrics_registry():
    before = _counter("repro_engine_pool_respawns_total")
    cells = _small_cells(3)
    plan = FaultPlan(events=(FaultEvent("crash", chunk=0, attempt=0),))
    ExperimentEngine(jobs=2, chunk_size=1, retry=FAST, fault_plan=plan).map(cells)
    assert _counter("repro_engine_pool_respawns_total") > before


def test_recovery_actions_are_traced_as_span_events():
    from repro.obs.trace import Tracer

    cells = _small_cells(2)
    plan = FaultPlan(events=(FaultEvent("transient", chunk=1, attempt=0),))
    with Tracer() as t:
        ExperimentEngine(jobs=2, chunk_size=1, retry=FAST, fault_plan=plan).map(
            cells
        )
    events = {r.get("name") for r in t.records if r.get("record") == "event"}
    assert "engine.retry" in events
