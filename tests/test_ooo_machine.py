"""Tests for the out-of-order machine: hand-checked schedules,
equivalence with the two-heap scheduler it replaced (with and without a
memory system), and equivalence with a cycle-by-cycle model of the
queue."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import AccessLevel
from repro.cache.timing import CacheTimingModel
from repro.errors import SimulationError
from repro.ooo.machine import MachineConfig, OutOfOrderMachine, run_window_sweep
from repro.ooo.memory import CacheMemorySystem
from repro.workloads.instruction_trace import NO_DEP, InstructionTrace
from tests.oracles import cycle_schedule, heap_schedule


def _trace(deps1, deps2, lats):
    return InstructionTrace(
        dep1=np.array(deps1, dtype=np.int64),
        dep2=np.array(deps2, dtype=np.int64),
        latency=np.array(lats, dtype=np.int16),
    )


def _chain(n, lat=1):
    deps = [NO_DEP] + list(range(n - 1))
    return _trace(deps, [NO_DEP] * n, [lat] * n)


def _independent(n, lat=1):
    return _trace([NO_DEP] * n, [NO_DEP] * n, [lat] * n)


class TestHandCheckedSchedules:
    def test_serial_chain_ipc_one(self):
        result = OutOfOrderMachine(MachineConfig(window=16)).run(_chain(32))
        # each op issues one cycle after its producer
        assert list(result.issue_times) == list(range(32))
        assert result.ipc == pytest.approx(32 / 33)

    def test_serial_chain_latency_scales(self):
        result = OutOfOrderMachine(MachineConfig(window=16)).run(_chain(10, lat=3))
        assert list(result.issue_times) == [0, 3, 6, 9, 12, 15, 18, 21, 24, 27]

    def test_independent_ops_fill_issue_width(self):
        result = OutOfOrderMachine(MachineConfig(window=64)).run(_independent(32))
        issues = list(result.issue_times)
        # dispatch bandwidth 8/cycle paces the stream: 8 per cycle
        for i, t in enumerate(issues):
            assert t == i // 8

    def test_long_latency_producer_blocks_consumers(self):
        # op0: lat 5; ops 1-3 depend on it; window 2 forces dispatch stalls
        trace = _trace(
            [NO_DEP, 0, 0, 0],
            [NO_DEP] * 4,
            [5, 1, 1, 1],
        )
        result = OutOfOrderMachine(MachineConfig(window=2)).run(trace)
        # op3 cannot even dispatch until op1's slot frees (cycle 6)
        assert list(result.issue_times) == [0, 5, 5, 6]

    def test_window_one_serialises(self):
        result = OutOfOrderMachine(MachineConfig(window=1)).run(_independent(8))
        issues = list(result.issue_times)
        assert issues == sorted(issues)
        assert len(set(issues)) == 8  # one at a time

    def test_second_dependence_respected(self):
        trace = _trace(
            [NO_DEP, NO_DEP, 0],
            [NO_DEP, NO_DEP, 1],
            [1, 4, 1],
        )
        result = OutOfOrderMachine(MachineConfig(window=8)).run(trace)
        # op2 waits for op1 (lat 4) even though op0 finished earlier
        assert result.issue_times[2] == 4


class TestWindowScaling:
    def test_wider_window_never_slower(self):
        rng = np.random.default_rng(7)
        n = 2000
        dep1 = np.maximum(np.arange(n) - rng.integers(1, 30, n), -1)
        dep1[rng.random(n) < 0.2] = NO_DEP
        trace = _trace(dep1, [NO_DEP] * n, rng.integers(1, 5, n).tolist())
        results = run_window_sweep(trace, (16, 32, 64, 128))
        ipcs = [results[w].ipc for w in (16, 32, 64, 128)]
        assert all(b >= a - 1e-9 for a, b in zip(ipcs, ipcs[1:]))

    def test_ipc_bounded_by_issue_width(self):
        result = OutOfOrderMachine(MachineConfig(window=128)).run(_independent(4096))
        assert result.ipc <= 8.0 + 1e-9

    def test_deep_iterations_need_window(self, simple_ilp_profile):
        from repro.workloads.instruction_trace import generate_instruction_trace
        from repro.workloads.profiles import IlpProfile

        deep = IlpProfile(
            block_size=32, depth=16, recurrence_ops=0,
            long_latency_fraction=0.5, long_latency_cycles=6,
        )
        trace = generate_instruction_trace(deep, 4000, 3)
        results = run_window_sweep(trace, (16, 128))
        assert results[128].ipc > 1.5 * results[16].ipc


class TestRecurrenceBound:
    def test_recurrence_caps_ipc(self):
        from repro.workloads.instruction_trace import generate_instruction_trace
        from repro.workloads.profiles import IlpProfile

        prof = IlpProfile(
            block_size=12, depth=3, recurrence_ops=2, recurrence_latency=3,
            long_latency_fraction=0.0, long_latency_cycles=1,
        )
        trace = generate_instruction_trace(prof, 6000, 5)
        result = OutOfOrderMachine(MachineConfig(window=128)).run(trace)
        # bound = 12 / (2*3) = 2.0, plus slack for the non-chain body
        assert result.ipc <= prof.recurrence_ipc_bound * 1.3


class TestMachineConfig:
    def test_rejects_zero_window(self):
        with pytest.raises(SimulationError):
            MachineConfig(window=0)

    def test_rejects_zero_widths(self):
        with pytest.raises(SimulationError):
            MachineConfig(window=16, issue_width=0)

    def test_tpi_uses_cycle_time(self):
        result = OutOfOrderMachine(MachineConfig(window=16)).run(_independent(64))
        assert result.tpi_ns(0.5) == pytest.approx(0.5 / result.ipc)


class TestMemorySystem:
    def test_missing_load_counts_its_resolved_latency(self):
        """``cycles`` runs to the last completion under the latencies the
        hierarchy resolves, not the trace's nominal ones."""
        trace = InstructionTrace(
            dep1=np.array([NO_DEP]),
            dep2=np.array([NO_DEP]),
            latency=np.array([2], dtype=np.int16),
            load_address=np.array([0]),
        )
        memory = CacheMemorySystem(l1_increments=2)
        result = OutOfOrderMachine(MachineConfig(window=16)).run(
            trace, memory_system=memory
        )
        assert memory.level_counts[AccessLevel.MISS] == 1  # 56-cycle miss
        assert list(result.issue_times) == [0]
        assert result.cycles == 57

    def test_agrees_with_heap_oracle(self):
        rng = np.random.default_rng(11)
        n = 400
        dep1 = np.maximum(np.arange(n) - rng.integers(1, 20, n), -1)
        loads = np.where(rng.random(n) < 0.3, rng.integers(0, 1 << 16, n) * 32, -1)
        trace = InstructionTrace(
            dep1=dep1,
            dep2=np.full(n, NO_DEP),
            latency=np.where(loads >= 0, 2, 1).astype(np.int16),
            load_address=loads,
        )
        config = MachineConfig(window=32)
        fast = OutOfOrderMachine(config).run(
            trace, memory_system=CacheMemorySystem(l1_increments=2)
        )
        slow = heap_schedule(config, trace, CacheMemorySystem(l1_increments=2))
        assert np.array_equal(fast.issue_times, slow.issue_times)
        assert fast.cycles == slow.cycles

    def test_memory_run_leaves_the_trace_untouched(self):
        """A run with a memory system resolves load latencies on a copy:
        a later plain run of the same trace matches a fresh trace's."""
        from repro.workloads.instruction_trace import (
            attach_memory_trace,
            generate_instruction_trace,
        )
        from repro.workloads.suite import get_profile

        profile = get_profile("swim")

        def fresh():
            trace = generate_instruction_trace(profile.ilp, 2000, 1)
            return attach_memory_trace(trace, profile.memory, 2)

        machine = OutOfOrderMachine(MachineConfig(window=32))
        trace = fresh()
        memory = CacheMemorySystem(l1_increments=1)
        with_memory = machine.run(trace, memory_system=memory)
        plain = machine.run(trace)
        expected = machine.run(fresh())
        assert with_memory.cycles != plain.cycles
        assert np.array_equal(plain.issue_times, expected.issue_times)
        assert plain.cycles == expected.cycles
        assert trace.columns == fresh().columns


@st.composite
def _dependence_traces(draw):
    """Random traces: each op has up to two producers among the last
    ``reach`` ops, and a latency of up to ``max_latency`` cycles."""
    n = draw(st.integers(1, 400))
    reach = draw(st.integers(1, 40))
    max_latency = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idx = np.arange(n)
    deps = []
    for _ in range(2):
        dep = idx - rng.integers(1, reach + 1, n)
        dep[(dep < 0) | (rng.random(n) < 0.3)] = NO_DEP
        deps.append(dep)
    return InstructionTrace(
        dep1=deps[0],
        dep2=deps[1],
        latency=rng.integers(1, max_latency + 1, n).astype(np.int16),
    )


class TestEquivalenceWithHeapOracle:
    """The pointer-walk scheduler must issue every instruction in the
    same cycle as the two-heap scheduler it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        trace=_dependence_traces(),
        window=st.one_of(st.integers(1, 16), st.integers(1, 160)),
        issue_width=st.integers(1, 8),
        dispatch_width=st.integers(1, 8),
    )
    def test_random_dependence_traces(
        self, trace, window, issue_width, dispatch_width
    ):
        config = MachineConfig(
            window=window, issue_width=issue_width, dispatch_width=dispatch_width
        )
        fast = OutOfOrderMachine(config).run(trace)
        slow = heap_schedule(config, trace)
        assert fast.issue_times.dtype == slow.issue_times.dtype
        assert np.array_equal(fast.issue_times, slow.issue_times)
        assert fast.cycles == slow.cycles

    def test_generated_trace_at_paper_sizes(self):
        from repro.ooo.timing import PAPER_QUEUE_SIZES
        from repro.workloads.instruction_trace import generate_instruction_trace
        from repro.workloads.suite import get_profile

        profile = get_profile("swim")
        trace = generate_instruction_trace(profile.ilp, 3000, profile.seed)
        for window in PAPER_QUEUE_SIZES:
            config = MachineConfig(window=window)
            fast = OutOfOrderMachine(config).run(trace)
            slow = heap_schedule(config, trace)
            assert np.array_equal(fast.issue_times, slow.issue_times), window
            assert fast.cycles == slow.cycles, window


@st.composite
def _load_traces(draw):
    """Random dependence traces whose loads carry addresses: a drawn
    share of the ops are loads over a footprint of 2**4 to 2**16 blocks
    of 32 bytes, from all L1 hits to mostly misses."""
    trace = draw(_dependence_traces())
    n = len(trace)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    is_load = rng.random(n) < draw(st.floats(0.0, 1.0))
    blocks = rng.integers(0, 1 << draw(st.integers(4, 16)), n)
    return InstructionTrace(
        dep1=trace.dep1,
        dep2=trace.dep2,
        latency=trace.latency,
        load_address=np.where(is_load, blocks * 32, NO_DEP),
    )


class TestMemorySystemEquivalence:
    """With a memory system, every load's latency comes from the cache
    hierarchy, and the scheduler must still issue every instruction in
    the same cycle as the two-heap scheduler given the same hierarchy."""

    @settings(max_examples=100, deadline=None)
    @given(
        trace=_load_traces(),
        window=st.one_of(st.integers(1, 16), st.integers(1, 160)),
        issue_width=st.integers(1, 8),
        dispatch_width=st.integers(1, 8),
        l1_increments=st.integers(1, CacheTimingModel().geometry.n_increments - 1),
    )
    def test_random_load_traces(
        self, trace, window, issue_width, dispatch_width, l1_increments
    ):
        config = MachineConfig(
            window=window, issue_width=issue_width, dispatch_width=dispatch_width
        )
        fast = OutOfOrderMachine(config).run(
            trace, memory_system=CacheMemorySystem(l1_increments)
        )
        slow = heap_schedule(config, trace, CacheMemorySystem(l1_increments))
        assert fast.issue_times.dtype == slow.issue_times.dtype
        assert np.array_equal(fast.issue_times, slow.issue_times)
        assert fast.cycles == slow.cycles


class TestEquivalenceWithCycleModel:
    """The greedy list scheduler must issue every instruction in the
    same cycle as a machine stepped cycle by cycle: in-order dispatch
    into free window entries, then oldest-first select."""

    @settings(max_examples=150, deadline=None)
    @given(
        trace=_dependence_traces(),
        window=st.one_of(st.integers(1, 16), st.integers(1, 160)),
        issue_width=st.integers(1, 8),
        dispatch_width=st.integers(1, 8),
    )
    def test_random_dependence_traces(
        self, trace, window, issue_width, dispatch_width
    ):
        config = MachineConfig(
            window=window, issue_width=issue_width, dispatch_width=dispatch_width
        )
        fast = OutOfOrderMachine(config).run(trace)
        slow = cycle_schedule(config, trace)
        assert np.array_equal(fast.issue_times, slow.issue_times)
        assert fast.cycles == slow.cycles

    @pytest.mark.parametrize("window", [16, 64, 128])
    def test_generated_trace(self, window):
        from repro.workloads.instruction_trace import generate_instruction_trace
        from repro.workloads.suite import get_profile

        profile = get_profile("swim")
        trace = generate_instruction_trace(profile.ilp, 3000, profile.seed)
        config = MachineConfig(window=window)
        fast = OutOfOrderMachine(config).run(trace)
        slow = cycle_schedule(config, trace)
        assert np.array_equal(fast.issue_times, slow.issue_times)
        assert fast.cycles == slow.cycles
