"""Analyzer budget: warm (cache-hit) whole-program lint of ``src/``.

The project pass parses, summarises and resolves the call graph of the
entire tree; the on-disk cache is what keeps that affordable on every
CI run and every editor save.  The acceptance bar: a warm run serves
everything from the cache, reproduces the cold findings exactly, beats
the cold run by >= 3x, and lands within an absolute wall budget.

Each run appends its analyzer wall-times to ``BENCH_lint.json`` next to
the service trajectory file, so analyzer regressions are visible over
the repo's history.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_lint.json"

#: Absolute ceiling for one warm whole-tree lint (CI hardware).
WARM_BUDGET_S = 5.0
#: Required cold/warm advantage from the analysis cache.
MIN_SPEEDUP = 3.0


def _append_lint_record(record: dict) -> None:
    history = []
    if BENCH_PATH.exists():
        try:
            history = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
        except ValueError:
            history = []
    history.append(record)
    BENCH_PATH.write_text(
        json.dumps(history, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def test_bench_warm_lint_within_budget(benchmark, tmp_path):
    src = REPO_ROOT / "src"
    cache_dir = tmp_path / "lint-cache"

    cold_start = time.perf_counter()
    cold = lint_paths([src], cache_dir=cache_dir)
    cold_s = time.perf_counter() - cold_start

    def warm():
        return lint_paths([src], cache_dir=cache_dir)

    result = benchmark.pedantic(warm, rounds=3, iterations=1)

    # the cache is a pure accelerator: identical results, not stale ones
    assert result.findings == cold.findings
    assert result.suppressed == cold.suppressed
    assert result.files_checked == cold.files_checked
    assert result.cache_misses == 0  # everything served warm

    warm_s = benchmark.stats.stats.min
    speedup = cold_s / warm_s
    print(
        f"\nlint src cold {cold_s:.3f}s, warm {warm_s:.4f}s "
        f"-> {speedup:.0f}x speedup from the analysis cache "
        f"({result.files_checked} files, "
        f"{len(result.rule_ids)} rules, {result.cache_hits} cache hits)"
    )
    _append_lint_record(
        {
            "label": "lint-src",
            "ts": time.time(),
            "files_checked": result.files_checked,
            "rules": len(result.rule_ids),
            "cold_s": round(cold_s, 6),
            "warm_s": round(warm_s, 6),
            "speedup": round(speedup, 2),
            "warm_timings": {
                k: round(v, 6) for k, v in result.timings.items()
            },
            "cache": {
                "hits": result.cache_hits,
                "misses": result.cache_misses,
            },
            "passed": bool(speedup >= MIN_SPEEDUP and warm_s < WARM_BUDGET_S),
        }
    )
    assert warm_s < WARM_BUDGET_S
    assert speedup >= MIN_SPEEDUP
