"""Guard: disabled instrumentation must stay out of the sweep's way.

The decision tracer is permanently compiled into the hot paths
(structure ``run()``, engine cells, manager decisions) and relies on
cheap null objects when no tracer is active.  This
benchmark estimates the disabled-path cost on a Figure 9 sweep — the
number of instrumentation points the sweep actually hits, times the
measured cost of one disabled point — and asserts it stays under 5% of
the sweep's wall time.
"""

import time

import pytest

from repro.experiments.cache_study import figure8_9
from repro.obs import trace as obs
from repro.obs.trace import Tracer, span

N_REFS, WARMUP_REFS = 12_000, 3_000


def _sweep():
    return figure8_9(n_refs=N_REFS, warmup_refs=WARMUP_REFS)


@pytest.mark.figure("9")
def test_bench_disabled_instrumentation_overhead(benchmark):
    _sweep()  # warm the per-process histogram memo first

    # How many instrumentation points does one sweep actually hit?
    # A traced run writes one record per span/event, so its record
    # count bounds the disabled-path work of the untraced run.
    with Tracer() as tracer:
        with span("figure", level="run", figure="9"):
            _sweep()
    n_points = len(tracer.records)
    assert n_points > 0

    # Production path: the very same sweep with tracing disabled.
    benchmark.pedantic(_sweep, rounds=3, iterations=1)
    sweep_s = benchmark.stats.stats.min

    # Measured cost of one disabled instrumentation point: a span with
    # attributes, opened and closed against the null tracer.
    assert obs.current_tracer() is obs.NULL_TRACER
    reps = 100_000
    t0 = time.perf_counter()
    for i in range(reps):
        with obs.span("interval", level="interval", index=i, app="x") as sp:
            sp.set(tpi_ns=0.3)
    per_point_s = (time.perf_counter() - t0) / reps

    overhead_s = n_points * per_point_s
    print(
        f"\nsweep {sweep_s * 1e3:.2f} ms, {n_points} instrumentation "
        f"points, {per_point_s * 1e9:.0f} ns per disabled point "
        f"-> estimated overhead {overhead_s / sweep_s:.3%} (limit 5%)"
    )
    assert overhead_s < 0.05 * sweep_s
