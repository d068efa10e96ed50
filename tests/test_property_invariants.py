"""Property-based tests (hypothesis) for core invariants."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheGeometry, HierarchyConfig
from repro.cache.hierarchy import TwoLevelExclusiveCache
from repro.cache.sets import LruSet
from repro.cache.stackdist import COLD_DEPTH, DepthHistogram, StackDistanceEngine
from repro.core.policies import StaticPolicy, evaluate_policy
from repro.ooo.intervals import IntervalSeries
from repro.ooo.machine import MachineConfig, OutOfOrderMachine
from repro.tech.cacti import CacheIncrementTiming
from repro.tech.parameters import technology
from repro.tech.repeaters import buffered_wire_delay_ns
from repro.workloads.instruction_trace import generate_instruction_trace
from repro.workloads.profiles import IlpProfile


def _small_geometry() -> CacheGeometry:
    return CacheGeometry(
        n_increments=4,
        ways_per_increment=2,
        block_bytes=32,
        increment_bytes=2048,
        increment_timing=CacheIncrementTiming(
            bank_bytes=1024, n_banks=2, associativity=1, block_bytes=32
        ),
    )


class TestLruSetProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=120))
    def test_set_never_exceeds_capacity_and_orders_by_recency(self, tags):
        s = LruSet(4)
        last_seen: dict[int, int] = {}
        for t, tag in enumerate(tags):
            if not s.touch(tag):
                s.insert_mru(tag)
            last_seen[tag] = t
        assert len(s) <= 4
        # resident tags must be ordered by most recent touch
        order = [last_seen[tag] for tag in s.blocks]
        assert order == sorted(order, reverse=True)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=120))
    def test_resident_set_is_most_recent_distinct(self, tags):
        s = LruSet(4)
        for tag in tags:
            if not s.touch(tag):
                s.insert_mru(tag)
        distinct_recent: list[int] = []
        for tag in reversed(tags):
            if tag not in distinct_recent:
                distinct_recent.append(tag)
            if len(distinct_recent) == 4:
                break
        assert list(s.blocks) == distinct_recent


class TestStackDistanceProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=400))
    def test_inclusion_property(self, tags):
        """L1 hit sets must be nested as the boundary widens."""
        geometry = _small_geometry()
        addrs = np.array([t * 32 for t in tags], dtype=np.uint64)
        hist = DepthHistogram.from_depths(
            geometry, StackDistanceEngine(geometry).process(addrs)
        )
        hits = [hist.l1_hits(k) for k in (1, 2, 3)]
        assert hits == sorted(hits)
        for k in (1, 2, 3):
            assert hist.l1_hits(k) + hist.l2_hits(k) + hist.misses(k) == len(tags)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=200))
    def test_depth_equals_distinct_blocks_since_last_touch(self, tags):
        geometry = _small_geometry()
        # confine to one set: tag * n_sets keeps the set index constant
        addrs = np.array([t * geometry.n_sets * 32 for t in tags], dtype=np.uint64)
        depths = StackDistanceEngine(geometry).process(addrs)
        seen: dict[int, int] = {}
        for i, tag in enumerate(tags):
            if tag in seen:
                distinct = len(set(tags[seen[tag] + 1 : i]))
                if distinct < geometry.total_ways:
                    assert depths[i] == distinct
            else:
                assert depths[i] == COLD_DEPTH
            seen[tag] = i


class TestBoundaryMoveProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=300), min_size=10, max_size=200),
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=5),
    )
    def test_moves_never_lose_blocks(self, tags, moves):
        """Any sequence of boundary moves preserves the unified recency
        stack — the CAP reconfiguration guarantee."""
        geometry = _small_geometry()
        addrs = np.array([t * 32 for t in tags], dtype=np.uint64)
        cache = TwoLevelExclusiveCache(HierarchyConfig(geometry, 2))
        reference = TwoLevelExclusiveCache(HierarchyConfig(geometry, 2))
        cache.run(addrs)
        reference.run(addrs)
        for k in moves:
            cache.move_boundary(HierarchyConfig(geometry, k))
        for s in range(geometry.n_sets):
            moved = list(cache.resident_blocks(s)[0]) + list(cache.resident_blocks(s)[1])
            kept = list(reference.resident_blocks(s)[0]) + list(
                reference.resident_blocks(s)[1]
            )
            assert moved == kept


class TestMachineProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_wider_windows_never_hurt(self, seed):
        profile = IlpProfile(
            block_size=16, depth=4, recurrence_ops=2, recurrence_latency=3,
            long_latency_fraction=0.2, long_latency_cycles=4,
        )
        trace = generate_instruction_trace(profile, 600, seed)
        cycles = [
            OutOfOrderMachine(MachineConfig(window=w)).run(trace).cycles
            for w in (8, 16, 32, 64)
        ]
        assert all(b <= a for a, b in zip(cycles, cycles[1:]))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_every_instruction_issues_after_dependences(self, seed):
        profile = IlpProfile(block_size=12, depth=3, recurrence_ops=2)
        trace = generate_instruction_trace(profile, 400, seed)
        result = OutOfOrderMachine(MachineConfig(window=32)).run(trace)
        issue = result.issue_times
        for i in range(len(trace)):
            for dep in (trace.dep1[i], trace.dep2[i]):
                if dep >= 0:
                    assert issue[i] >= issue[dep] + trace.latency[dep]


class TestPolicyConservation:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=2, max_size=40),
    )
    def test_static_total_time_is_exact_sum(self, tpis):
        series = {
            16: IntervalSeries(16, 0.435, 1000, np.array(tpis)),
            64: IntervalSeries(64, 0.626, 1000, np.array(tpis) * 1.1),
        }
        outcome = evaluate_policy(series, StaticPolicy(16))
        assert outcome.total_time_ns == pytest.approx(sum(tpis) * 1000)
        assert outcome.switch_overhead_ns == 0.0


class TestWireProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=30.0),
        st.floats(min_value=0.5, max_value=30.0),
    )
    def test_buffered_delay_subadditive(self, a, b):
        """Linear-plus-overhead: splitting a wire never beats keeping
        one optimally repeated run."""
        t = technology(0.18)
        whole = buffered_wire_delay_ns(a + b, t)
        split = buffered_wire_delay_ns(a, t) + buffered_wire_delay_ns(b, t)
        assert whole <= split + 1e-12


class TestDistributedDeterminism:
    """Satellite: lease failover must not perturb results.

    The same sweep evaluated (a) in the local pool, (b) fanned out over
    two real ``repro worker`` subprocesses, and (c) over two workers
    with one SIGKILLed mid-chunk by an injected crash fault must be
    byte-identical — failover re-evaluates, it never approximates.
    """

    _READY = re.compile(r"serving on (http://[\d.]+:\d+)")

    def _spawn_worker(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--port", "0"],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = proc.stdout.readline()
        match = self._READY.search(line)
        if not match:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker failed to start: {line!r}")
        return proc, match.group(1)

    def _cells(self):
        from repro.engine.cells import queue_tpi_cell
        from repro.workloads.suite import get_profile

        compress = get_profile("compress")
        return [
            queue_tpi_cell(compress, 2_000 + 100 * i, (16, 32))
            for i in range(4)
        ]

    def _remote_map(self, cells, fault_plan=None):
        from repro.dispatch.plane import DispatchPlane, DispatchPolicy
        from repro.engine.engine import ExperimentEngine

        policy = DispatchPolicy(
            heartbeat_timeout_s=300.0,  # in-test workers do not beat
        )
        plane = DispatchPlane(policy=policy)
        workers = [self._spawn_worker() for _ in range(2)]
        try:
            for _, url in workers:
                plane.registry.register(url, slots=1)
            engine = ExperimentEngine(
                jobs=2, chunk_size=1, dispatcher=plane, fault_plan=fault_plan
            )
            return engine.map(cells)
        finally:
            for proc, _ in workers:
                proc.kill()
                proc.wait()
                proc.stdout.close()

    def test_failover_preserves_byte_identical_results(self):
        import json

        from repro.engine.engine import ExperimentEngine
        from repro.obs.metrics import metrics
        from repro.resilience import FaultEvent, FaultPlan

        cells = self._cells()
        local = ExperimentEngine(jobs=2, chunk_size=1).map(cells)
        canon = json.dumps(local, sort_keys=True)

        remote = self._remote_map(cells)
        assert json.dumps(remote, sort_keys=True) == canon

        # Chunk 0's first attempt os._exit()s the worker that leased it
        # mid-batch; the failover re-evaluation must change nothing.  The
        # dead worker leaves the roster with its lost lease, so the kill
        # costs exactly one failover, and no chunk is delivered twice.
        plan = FaultPlan(events=(FaultEvent("crash", chunk=0, attempt=0),))
        failovers = metrics().counter("repro_dispatch_failovers_total")
        duplicates = metrics().counter("repro_dispatch_duplicate_results_total")
        before = failovers.value()
        duplicates_before = duplicates.value()
        killed = self._remote_map(cells, fault_plan=plan)
        assert json.dumps(killed, sort_keys=True) == canon
        assert failovers.value() == before + 1
        assert duplicates.value() == duplicates_before
