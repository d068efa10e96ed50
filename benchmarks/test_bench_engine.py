"""Engine result cache: cold versus warm regeneration of Figure 9.

The cold run simulates every (application, boundary) sweep cell and
persists the payloads in a content-addressed cache; the warm run serves
all of them from disk.  The acceptance bar for the cache is a >= 5x
speedup with bitwise-identical tables — in practice the warm run is
orders of magnitude faster, since it reads a handful of small JSON
files instead of simulating millions of cache references.
"""

from __future__ import annotations

import time

import pytest

from repro.engine import cells
from repro.engine.engine import ExperimentEngine
from repro.experiments.cache_study import figure8_9


@pytest.mark.figure("9 (warm engine cache)")
def test_bench_engine_warm_figure9(benchmark, tmp_path, monkeypatch):
    # Earlier benchmarks in the same process fill the per-process
    # histogram memo; the cold pass gets an empty one of its own so it
    # simulates every cell, and leaves the shared memo as it found it.
    with monkeypatch.context() as patch:
        patch.setattr(cells, "_HISTOGRAM_MEMO", {})
        cold_start = time.perf_counter()
        cold = figure8_9(engine=ExperimentEngine(jobs=1, cache_dir=tmp_path))
        cold_s = time.perf_counter() - cold_start

    def warm():
        return figure8_9(engine=ExperimentEngine(jobs=1, cache_dir=tmp_path))

    study = benchmark.pedantic(warm, rounds=3, iterations=1)

    # identical tables, not merely close ones
    assert study.tpi == cold.tpi
    assert study.tpi_miss == cold.tpi_miss
    assert study.best_boundaries == cold.best_boundaries

    warm_s = benchmark.stats.stats.min
    speedup = cold_s / warm_s
    print(
        f"\nFigure 9 cold {cold_s:.3f}s, warm {warm_s:.4f}s "
        f"-> {speedup:.0f}x speedup from the result cache"
    )
    assert speedup >= 5.0
