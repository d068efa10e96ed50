"""Guard: the resilience machinery must be ~free when nothing fails.

Every parallel batch now runs through
:class:`~repro.resilience.ResilientExecutor`, and the serial (``jobs=1``)
path runs through its inline retry loop.  On a healthy run all of that
is pure bookkeeping — attempt counters, a try/except per chunk, pending
-set upkeep — so its cost must vanish next to real cell evaluation.
This benchmark compares the resilient serial path against bare
:func:`~repro.engine.cells.evaluate_chunk` over the same cells and
bounds the fault-free overhead at 10% (the measured cost is ~3%, and
most of that is timer noise).
"""

import time

import pytest

from repro.engine.cells import cache_tpi_cell, evaluate_chunk, queue_tpi_cell
from repro.resilience import ResilientExecutor, RetryPolicy
from repro.workloads.suite import get_profile

N_REFS, WARMUP_REFS = 12_000, 3_000
N_INSTR = 4_000


def _chunks():
    compress = get_profile("compress")
    stereo = get_profile("stereo")
    return [
        [cache_tpi_cell(compress, N_REFS, WARMUP_REFS, (1, 2, 4))],
        [cache_tpi_cell(stereo, N_REFS, WARMUP_REFS, (1, 2, 4))],
        [queue_tpi_cell(compress, N_INSTR, (16, 32))],
        [queue_tpi_cell(stereo, N_INSTR, (16, 32))],
    ]


def test_bench_fault_free_resilience_overhead(benchmark):
    chunks = _chunks()
    for chunk in chunks:  # warm the per-process trace memos first
        evaluate_chunk(chunk)

    def resilient():
        return ResilientExecutor(policy=RetryPolicy()).run(chunks)

    benchmark.pedantic(resilient, rounds=5, iterations=1)
    resilient_s = benchmark.stats.stats.min

    raw_s = min(
        _timed(lambda: [evaluate_chunk(c) for c in chunks]) for _ in range(5)
    )

    # The true bookkeeping cost is microseconds against ~30ms of cell
    # evaluation; the bound is loose only to absorb timer noise.
    overhead = resilient_s / raw_s - 1.0
    print(
        f"\nraw {raw_s * 1e3:.2f} ms, resilient {resilient_s * 1e3:.2f} ms "
        f"-> fault-free overhead {overhead:.3%} (limit 10%)"
    )
    assert overhead < 0.10


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@pytest.mark.parametrize("attempt", [1, 2, 3])
def test_bench_backoff_computation_is_microseconds(benchmark, attempt):
    """The deterministic jitter hash must never be a scheduling cost."""
    policy = RetryPolicy()
    delay = benchmark(policy.delay_s, attempt, "17")
    assert delay >= 0.0
