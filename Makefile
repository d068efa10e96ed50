# Convenience targets for the CAP reproduction.

PYTHON ?= python3

.PHONY: install test bench bench-engine bench-figures bench-lint bench-smoke ledger obs-check resilience-check robust-check service-smoke loadtest-smoke chaos-smoke distributed-smoke lint lint-graph typecheck ruff check figures examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-engine:
	$(PYTHON) -m pytest benchmarks/test_bench_engine.py --benchmark-only -s

# The paper-scale figure benchmarks and their shape assertions (for
# example Figure 11's 4-12% average reduction), plus the engine's
# cold/warm result-cache gate.
bench-figures:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_fig7.py \
		benchmarks/test_bench_fig8_fig9.py benchmarks/test_bench_fig10.py \
		benchmarks/test_bench_fig11.py benchmarks/test_bench_engine.py \
		--benchmark-only

# One short run of every perfbench workload: Figure 8/9 and 10/11 paper
# digests, every wrapped entry point, every metric printed with its unit.
bench-smoke:
	$(PYTHON) -m pytest perfbench/test_smoke.py -q

# The engine's performance trajectory: perfbench on all four workloads,
# untraced and traced (seed 0, 15 s each), one record per run appended
# to BENCH_engine.json.  About eight minutes.
ledger:
	$(PYTHON) scripts/ledger.py

# Trace-schema tests: tiny traced sweeps, every record validated against
# the trace schema, every adaptive-control level covered.
obs-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_obs_schema.py

# Recovery-path tests: injected crash/hang/transient/corruption faults
# recovered byte-identically, and a SIGKILLed sweep resumed from its
# result cache with no finished cell recomputed.
resilience-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_resilience.py

# Degraded-hardware tests: seeded increment faults + sensor noise over
# all four adaptive structures, watchdog recovery and the guardrail
# counters verified, plus the robustness property tests.
robust-check:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_robust.py tests/test_robust_invariants.py

# Boot `repro serve` on an ephemeral port, run one end-to-end query and
# a /metrics scrape through the typed client, tear down within a
# deadline.  Mirrors the CI service job.
service-smoke:
	PYTHONPATH=src $(PYTHON) scripts/service_smoke.py

# Boot a traced `repro serve`, run a small fixed-seed `repro loadtest`
# against it, assert the SLOs pass and a run record lands in the
# benchmark trajectory file, then validate the stitched distributed
# trace end to end.  Mirrors the CI loadtest job.
loadtest-smoke:
	PYTHONPATH=src $(PYTHON) scripts/loadtest_smoke.py

# Run the deterministic chaos drill (`repro chaos`): SIGKILL a
# journaled server mid-batch and assert every acked job recovers,
# trip/shed/recover the circuit breaker, replay a corrupted journal.
# Mirrors the CI chaos job.
chaos-smoke:
	PYTHONPATH=src $(PYTHON) scripts/chaos_smoke.py

# Boot `repro serve --workers` plus two real `repro worker` processes,
# drive a fixed-seed loadtest at the service, SIGKILL one worker while
# the load is in flight, and assert the SLOs still hold, chunks were
# dispatched remotely, and SIGTERM drains cleanly.  Mirrors the CI
# distributed job.
distributed-smoke:
	PYTHONPATH=src $(PYTHON) scripts/distributed_smoke.py

# Domain-aware static analysis (src/repro/analysis): determinism,
# unit-suffix discipline, typed errors, observability naming.  Always
# available — it only needs the stdlib.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src

# Dump the analyzer's resolved cross-module call graph as JSON (the
# input RPR009-RPR012 reason over) — pipe through jq to explore.
lint-graph:
	PYTHONPATH=src $(PYTHON) -m repro lint src --graph

# Warm-cache analyzer budget: a cache-hit whole-tree lint must beat the
# cold run >= 3x and stay under its wall budget; appends analyzer
# wall-times to BENCH_lint.json.
bench-lint:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_bench_lint.py --benchmark-only -s

# mypy/ruff are optional dev tools (pip install -e '.[dev]'); skip
# gracefully when they are not on PATH so `make check` works in a
# minimal container.
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "typecheck: mypy not installed, skipping (pip install -e '.[dev]')"; \
	fi

ruff:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff: not installed, skipping (pip install -e '.[dev]')"; \
	fi

# Everything static: domain lint (hard gate) + typecheck/ruff when present.
check: lint typecheck ruff

figures:
	$(PYTHON) -m repro export all --out figures

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .repro-lint-cache figures
