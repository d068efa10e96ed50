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
  resumes from its result cache, which stores each cell as it finishes:
  a re-run with the same cache directory recomputes only the cells that
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
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.engine.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    canonical_json,
    cell_key,
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
    WorkerPool,
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
    before = _counter("repro_engine_retries_total")
    pool = WorkerPool(2)
    try:
        executor = ResilientExecutor(policy=FAST, fault_plan=plan, pool=pool)
        results = executor.run(chunks)
    finally:
        pool.close()
    assert _payloads(results) == _payloads(baseline)
    assert executor.report.retries == 1
    assert executor.report.pool_respawns == 0
    assert _counter("repro_engine_retries_total") == before + 1


def test_worker_crash_respawns_the_pool_and_requeues():
    chunks = _chunks(3)
    baseline = [evaluate_chunk(c) for c in chunks]
    plan = FaultPlan(events=(FaultEvent("crash", chunk=0, attempt=0),))
    pool = WorkerPool(2)
    try:
        executor = ResilientExecutor(policy=FAST, fault_plan=plan, pool=pool)
        results = executor.run(chunks)
    finally:
        pool.close()
    assert _payloads(results) == _payloads(baseline)
    assert executor.report.pool_respawns >= 1
    assert not executor.report.serial_fallback


def test_hung_worker_is_timed_out_and_recovered():
    chunks = _chunks(2)
    baseline = [evaluate_chunk(c) for c in chunks]
    plan = FaultPlan(events=(FaultEvent("hang", chunk=0, attempt=0, hang_s=120.0),))
    policy = RetryPolicy(base_delay_s=0.001, timeout_s=TIMEOUT_S)
    before = _counter("repro_engine_chunk_timeouts_total")
    pool = WorkerPool(2)
    try:
        executor = ResilientExecutor(policy=policy, fault_plan=plan, pool=pool)
        start = time.perf_counter()
        results = executor.run(chunks)
        # recovery must not wait out the 120s hang: the pool gets killed
        assert time.perf_counter() - start < 60.0
    finally:
        pool.close()
    assert _payloads(results) == _payloads(baseline)
    assert executor.report.timeouts == 1
    assert executor.report.pool_respawns >= 1
    assert _counter("repro_engine_chunk_timeouts_total") == before + 1


def test_repeated_pool_deaths_degrade_to_serial():
    chunks = _chunks(3)
    baseline = [evaluate_chunk(c) for c in chunks]
    plan = FaultPlan(events=(FaultEvent("crash", chunk=0, attempt=0),))
    policy = RetryPolicy(base_delay_s=0.001, max_pool_respawns=0)
    pool = WorkerPool(2)
    try:
        executor = ResilientExecutor(policy=policy, fault_plan=plan, pool=pool)
        results = executor.run(chunks)
    finally:
        pool.close()
    assert _payloads(results) == _payloads(baseline)
    assert executor.report.serial_fallback


def test_exhausted_transient_budget_escalates_to_fatal():
    plan = FaultPlan(
        events=tuple(
            FaultEvent("transient", chunk=0, attempt=a) for a in range(3)
        )
    )
    executor = ResilientExecutor(
        policy=RetryPolicy(max_attempts=2, base_delay_s=0.001), fault_plan=plan
    )
    with pytest.raises(FatalError) as excinfo:
        executor.run(_chunks(1))
    assert isinstance(excinfo.value.__cause__, TransientError)
    assert "2 attempt(s)" in str(excinfo.value)
    assert executor.report.retries == 1


def test_deterministic_bugs_are_not_retried():
    from repro.engine.cells import SweepCell

    executor = ResilientExecutor(policy=FAST)
    with pytest.raises(FatalError) as excinfo:
        executor.run([[SweepCell(kind="nope", spec={})]])
    assert "1 attempt(s)" in str(excinfo.value)  # no retry wasted
    assert executor.report.retries == 0


def test_serial_executor_retries_inline_with_backoff():
    chunks = _chunks(2)
    baseline = [evaluate_chunk(c) for c in chunks]
    plan = FaultPlan(events=(FaultEvent("transient", chunk=1, attempt=0),))
    slept: list[float] = []
    executor = ResilientExecutor(policy=FAST, fault_plan=plan, sleep=slept.append)
    results = executor.run(chunks)
    assert _payloads(results) == _payloads(baseline)
    assert executor.report.retries == 1
    assert slept == [FAST.delay_s(1, token="1")]  # deterministic backoff


def test_executor_handles_an_empty_batch():
    assert ResilientExecutor().run([]) == []


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
    # A chunk that fails mid-batch must not shift any other cell's
    # payload, and every cell, the retried one included, must be cached.
    cells = _small_cells(4)
    baseline = ExperimentEngine(jobs=1).map(cells)
    cache_dir = tmp_path / "cache"
    plan = FaultPlan(events=(FaultEvent("transient", chunk=2, attempt=0),))
    engine = ExperimentEngine(
        jobs=2, chunk_size=1, retry=FAST, fault_plan=plan, cache_dir=cache_dir
    )
    results = engine.map(cells)
    assert results == baseline  # per-index equality == aligned assembly
    assert ResultCache(cache_dir).size() == len(cells)


def test_partials_journaled_before_a_fatal_error_enable_resume(tmp_path):
    # The cells cached before a fatal error are served on the re-run.
    cells = _small_cells(4)
    baseline = ExperimentEngine(jobs=1).map(cells)
    cache_dir = tmp_path / "cache"
    plan = FaultPlan(
        events=tuple(
            FaultEvent("transient", chunk=2, attempt=a) for a in range(2)
        )
    )
    doomed = ExperimentEngine(
        jobs=2, chunk_size=1, cache_dir=cache_dir, fault_plan=plan,
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.001),
    )
    with pytest.raises(FatalError):
        doomed.map(cells)
    done = ResultCache(cache_dir).size()
    assert done < len(cells)  # the faulted cell never completed
    rescued = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    assert rescued.map(cells) == baseline
    assert rescued.stats.cache_hits == done
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


# ---------------------------------------------------------------------------
# cache integrity
# ---------------------------------------------------------------------------


def _entry_lines(cache: ResultCache, key: str) -> tuple[list[bytes], bytes]:
    """One stored entry split into its header fields and payload text."""
    header, _, body = cache.path(key).read_bytes().partition(b"\n")
    return header.split(b" "), body


def _write_entry(cache: ResultCache, key: str, fields: list[bytes], body: bytes):
    cache.path(key).write_bytes(b" ".join(fields) + b"\n" + body)


def test_entries_record_a_payload_checksum(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cells = _small_cells(1)
    key = cache.key(cells[0])
    cache.store(key, cells[0], {"tpi": [1.0, 2.0]})
    fields, body = _entry_lines(cache, key)
    assert fields == [
        b"repro-cell",
        str(CACHE_SCHEMA_VERSION).encode(),
        payload_checksum({"tpi": [1.0, 2.0]}).encode(),
        cells[0].kind.encode(),
    ]
    assert body == b'{"tpi":[1.0,2.0]}'


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
    # a fault plan's corrupt_cache event takes the same path
    plan = FaultPlan(events=(FaultEvent("corrupt_cache", chunk=1),))
    faulted = ExperimentEngine(jobs=1, cache_dir=cache_dir, fault_plan=plan)
    assert faulted.map(cells) == baseline
    assert faulted.stats.cache_misses == 1
    assert cache.quarantined() == 2


def test_checksum_mismatch_is_corruption_even_when_json_is_valid(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cells = _small_cells(1)
    key = cache.key(cells[0])
    cache.store(key, cells[0], {"tpi": [1.0]})
    fields, body = _entry_lines(cache, key)
    # Change one digit of the stored payload text, keep the checksum.
    tampered = body.replace(b"1.0", b"9.0")
    assert tampered != body
    _write_entry(cache, key, fields, tampered)
    assert cache.load(key) is None
    assert cache.quarantined() == 1


@pytest.mark.parametrize("text", ['{"tpi": [1.0', "[1.0, 2.0]"])
def test_checksummed_payload_text_must_parse_to_an_object(tmp_path, text):
    cache = ResultCache(tmp_path / "cache")
    cells = _small_cells(1)
    key = cache.key(cells[0])
    cache.store(key, cells[0], {"tpi": [1.0]})
    fields, _ = _entry_lines(cache, key)
    body = text.encode("utf-8")
    fields[2] = hashlib.sha256(body).hexdigest().encode()
    _write_entry(cache, key, fields, body)
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
    fields, body = _entry_lines(cache, key)
    fields[1] = str(CACHE_SCHEMA_VERSION - 1).encode()
    _write_entry(cache, key, fields, body)
    before = _counter("repro_engine_cache_corrupt_total")
    assert cache.load(key) is None  # a plain miss...
    assert cache.quarantined() == 0  # ...not quarantined
    assert _counter("repro_engine_cache_corrupt_total") == before
    report = cache.verify()
    assert (report.total, report.stale, report.corrupt) == (1, 1, ())
    assert report.healthy


def test_schema_3_entries_stay_stale_at_their_old_keys_until_cleared(tmp_path):
    cells = _small_cells(1)
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache")
    cache = engine.cache
    # The schema is part of the fingerprint, so a schema-3 tree stored
    # this cell at another key, in the schema-3 layout: one JSON object
    # holding the payload's canonical text and its checksum.
    old_key = cell_key(cells[0], {**cache.fingerprint, "schema": 3})
    new_key = cache.key(cells[0])
    assert old_key != new_key
    old_path = cache.path(old_key)
    old_path.parent.mkdir(parents=True)
    old_payload = {"tpi": [123.0]}
    old_path.write_text(json.dumps({
        "schema": 3,
        "kind": cells[0].kind,
        "spec": dict(cells[0].spec),
        "payload": canonical_json(old_payload),
        "checksum": payload_checksum(old_payload),
    }))
    before = _counter("repro_engine_cache_corrupt_total")
    [payload] = engine.map(cells)
    assert engine.stats.cache_misses == 1
    assert cache.load(new_key) == payload != old_payload
    assert old_path.is_file()  # never looked up again, never overwritten
    report = cache.verify()
    assert (report.total, report.ok, report.stale, report.corrupt) == (2, 1, 1, ())
    assert cache.quarantined() == 0
    assert _counter("repro_engine_cache_corrupt_total") == before
    assert cache.invalidate() == 2
    assert not old_path.exists() and not cache.path(new_key).exists()


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


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308])
    | st.text(max_size=12)
)
_JSON_PAYLOADS = st.dictionaries(
    st.text(max_size=8),
    st.recursive(
        _JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=24,
    ),
    max_size=6,
)


@pytest.fixture(scope="module")
def entry_root(tmp_path_factory):
    """Parent of the one-example caches the property tests below make."""
    return tmp_path_factory.mktemp("entries")


def _fresh_cache(root: Path):
    cache = ResultCache(tempfile.mkdtemp(dir=root))
    cell = _small_cells(1)[0]
    return cache, cache.key(cell), cell


@settings(max_examples=200, deadline=None)
@given(payload=_JSON_PAYLOADS)
def test_stored_payloads_load_back_equal(entry_root, payload):
    cache, key, cell = _fresh_cache(entry_root)
    cache.store(key, cell, payload)
    loaded = cache.load(key)
    assert loaded == payload
    # Equal text too: -0.0 stays -0.0 and 1.0 stays a float.
    assert canonical_json(loaded) == canonical_json(payload)


@settings(max_examples=300, deadline=None)
@given(payload=_JSON_PAYLOADS, data=st.data())
def test_a_one_byte_overwrite_never_loads_another_payload(entry_root, payload, data):
    cache, key, cell = _fresh_cache(entry_root)
    path = cache.store(key, cell, payload)
    raw = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    raw[at] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
    path.write_bytes(raw)
    loaded = cache.load(key)
    if loaded is not None:
        assert canonical_json(loaded) == canonical_json(payload)
        verdict = (1, 0, 0)
    elif cache.quarantined():
        assert not path.exists()
        verdict = (0, 0, 1)
    else:
        verdict = (0, 1, 0)  # a stale miss, left in place
    # verify() classifies the same bytes the way load() did.
    path.write_bytes(raw)
    report = cache.verify()
    assert (report.ok, report.stale, len(report.corrupt)) == verdict


# ---------------------------------------------------------------------------
# resuming an interrupted sweep from the result cache
# ---------------------------------------------------------------------------


def test_resume_serves_journaled_cells_without_recompute(tmp_path):
    cells = _small_cells(4)
    baseline = ExperimentEngine(jobs=1).map(cells)
    cache_dir = tmp_path / "cache"
    ExperimentEngine(jobs=1, cache_dir=cache_dir).map(cells[:2])  # "interrupted"
    resumed = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    assert resumed.map(cells) == baseline
    assert resumed.stats.cache_hits == 2
    assert resumed.stats.cache_misses == 2  # only the unfinished cells ran


def test_sigkilled_sweep_resumes_from_its_cache(tmp_path):
    # The real thing: a child process is SIGKILLed mid-sweep (no atexit,
    # no finally blocks run) and its result cache still resumes it.
    compress = get_profile("compress")
    cells = [
        cache_tpi_cell(compress, 400_000 + 10_000 * i, 20_000, (1, 2, 4))
        for i in range(8)
    ]
    cache = ResultCache(tmp_path / "cache")
    child = (
        "import sys\n"
        "from repro.engine.engine import ExperimentEngine\n"
        "from repro.engine.cells import cache_tpi_cell\n"
        "from repro.workloads.suite import get_profile\n"
        "compress = get_profile('compress')\n"
        "cells = [cache_tpi_cell(compress, 400_000 + 10_000 * i, 20_000,\n"
        "                        (1, 2, 4)) for i in range(8)]\n"
        "ExperimentEngine(jobs=1, cache_dir=sys.argv[1]).map(cells)\n"
    )
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", child, str(cache.cache_dir)], env=env
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline and proc.poll() is None:
            if cache.size() >= 1:
                break
            time.sleep(0.02)
        proc.kill()  # SIGKILL: no cleanup of any kind runs
    finally:
        proc.wait()
    done = cache.size()
    assert done >= 1  # the cache preserved finished work...
    baseline = ExperimentEngine(jobs=1).map(cells)
    resumed = ExperimentEngine(jobs=1, cache_dir=cache.cache_dir)
    assert resumed.map(cells) == baseline  # ...and the re-run completes it
    assert resumed.stats.cache_hits == done
    assert resumed.stats.cache_misses == len(cells) - done


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
