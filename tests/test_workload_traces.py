"""Tests for the address and instruction trace generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import WorkloadError
from repro.workloads.address_trace import generate_address_trace
from repro.workloads.instruction_trace import (
    NO_DEP,
    concatenate,
    generate_instruction_trace,
)
from repro.workloads.profiles import (
    ComponentKind,
    IlpProfile,
    MemoryProfile,
    WorkingSetComponent,
    loop,
    uniform,
)
from repro.workloads.suite import cache_study_profiles, queue_study_profiles
from tests.oracles import scalar_address_trace, scalar_instruction_trace


def _profile(**kw):
    defaults = dict(
        components=(uniform(4, 0.8), loop(16, 0.15)),
        streaming_weight=0.05,
        load_store_fraction=0.3,
    )
    defaults.update(kw)
    return MemoryProfile(**defaults)


class TestAddressTraceGenerator:
    def test_deterministic(self):
        p = _profile()
        a = generate_address_trace(p, 5000, 7)
        b = generate_address_trace(p, 5000, 7)
        assert np.array_equal(a, b)

    def test_seed_changes_trace(self):
        p = _profile()
        a = generate_address_trace(p, 5000, 7)
        b = generate_address_trace(p, 5000, 8)
        assert not np.array_equal(a, b)

    def test_length(self):
        assert len(generate_address_trace(_profile(), 1234, 0)) == 1234

    def test_rejects_empty(self):
        with pytest.raises(WorkloadError):
            generate_address_trace(_profile(), 0, 0)

    def test_components_use_disjoint_address_spaces(self):
        p = _profile()
        addrs = generate_address_trace(p, 20000, 1)
        regions = set(int(a) >> 42 for a in addrs)
        assert len(regions) >= 3  # two components + streaming

    def test_uniform_component_stays_in_bounds(self):
        p = MemoryProfile(
            components=(uniform(4, 1.0),), streaming_weight=0.0,
            load_store_fraction=0.3,
        )
        addrs = generate_address_trace(p, 10000, 2)
        offsets = addrs - addrs.min()
        assert int(offsets.max()) < 4 * 1024

    def test_loop_component_is_cyclic(self):
        p = MemoryProfile(
            components=(loop(1, 1.0),), streaming_weight=0.0,
            load_store_fraction=0.3, refs_per_block=1,
        )
        addrs = generate_address_trace(p, 96, 3)
        # 1 KB loop = 32 blocks; position 0 and 32 must coincide
        assert addrs[0] == addrs[32]
        assert len(np.unique(addrs)) == 32

    def test_streaming_never_reuses_blocks(self):
        p = MemoryProfile(
            components=(uniform(1, 1e-9),), streaming_weight=1.0,
            load_store_fraction=0.3, refs_per_block=1,
        )
        addrs = generate_address_trace(p, 5000, 4)
        stream = addrs[addrs >> 42 >= 3]
        assert len(np.unique(stream)) == len(stream)

    def test_spatial_locality_of_sequential_sources(self):
        p = MemoryProfile(
            components=(loop(64, 1.0),), streaming_weight=0.0,
            load_store_fraction=0.3, refs_per_block=4,
        )
        addrs = generate_address_trace(p, 4000, 5)
        same_block = np.sum((addrs[1:] >> 5) == (addrs[:-1] >> 5))
        assert same_block / len(addrs) > 0.6  # ~3/4 back-to-back


@st.composite
def _memory_profiles(draw):
    """1-4 components of either kind, a streaming weight that may be 0."""
    components = draw(
        st.lists(
            st.builds(
                WorkingSetComponent,
                size_kb=st.floats(0.01, 512.0),
                weight=st.floats(1e-6, 10.0),
                kind=st.sampled_from(ComponentKind),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return MemoryProfile(
        components=tuple(components),
        streaming_weight=draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))),
        load_store_fraction=0.3,
        refs_per_block=draw(st.integers(1, 8)),
    )


class TestAddressTraceAgainstScalarOracle:
    """The bulk generator must emit the ``Generator.choice`` generator's
    addresses byte for byte, from the same PCG64 stream."""

    @settings(max_examples=200, deadline=None)
    @given(
        profile=_memory_profiles(),
        n_refs=st.one_of(st.integers(1, 16), st.integers(1, 5000)),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(profile=_profile(streaming_weight=0.0), n_refs=1, seed=0)
    def test_random_profiles(self, profile, n_refs, seed):
        fast = generate_address_trace(profile, n_refs, seed)
        slow = scalar_address_trace(profile, n_refs, seed)
        assert fast.dtype == slow.dtype
        assert fast.tobytes() == slow.tobytes()

    def test_suite_at_paper_sizing(self):
        from repro.experiments.cache_study import (
            DEFAULT_N_REFS,
            DEFAULT_WARMUP_REFS,
        )

        n_refs = DEFAULT_N_REFS + DEFAULT_WARMUP_REFS
        for profile in cache_study_profiles():
            assert (
                generate_address_trace(profile.memory, n_refs, profile.seed).tobytes()
                == scalar_address_trace(profile.memory, n_refs, profile.seed).tobytes()
            ), profile.name


class TestInstructionTraceGenerator:
    def test_deterministic(self, simple_ilp_profile):
        a = generate_instruction_trace(simple_ilp_profile, 3000, 9)
        b = generate_instruction_trace(simple_ilp_profile, 3000, 9)
        assert np.array_equal(a.dep1, b.dep1)
        assert np.array_equal(a.latency, b.latency)

    def test_length_exact(self, simple_ilp_profile):
        assert len(generate_instruction_trace(simple_ilp_profile, 2500, 1)) == 2500

    def test_dataflow_valid(self, simple_ilp_profile):
        trace = generate_instruction_trace(simple_ilp_profile, 5000, 2)
        trace.validate()

    def test_recurrence_chain_present(self):
        p = IlpProfile(block_size=6, depth=2, recurrence_ops=2, recurrence_latency=4)
        trace = generate_instruction_trace(p, 60, 3)
        # op 1 of every iteration depends on op 0 of the same iteration
        for start in range(0, 54, 6):
            assert trace.dep1[start + 1] == start
        # op 0 of iteration >= 1 depends on the previous chain tail
        assert trace.dep1[6] == 1

    def test_recurrence_latency_applied(self):
        p = IlpProfile(
            block_size=6, depth=2, recurrence_ops=2, recurrence_latency=4,
            long_latency_fraction=0.0,
        )
        trace = generate_instruction_trace(p, 30, 3)
        assert trace.latency[0] == 4
        assert trace.latency[1] == 4

    def test_mixture_uses_both_variants(self):
        deep = IlpProfile(block_size=32, depth=16, recurrence_ops=0)
        p = IlpProfile(
            block_size=8, depth=2, recurrence_ops=2, recurrence_latency=3,
            deep_variant=deep, deep_fraction=0.5,
        )
        trace = generate_instruction_trace(p, 4000, 4)
        # recurrence ops carry latency 3; deep iterations none
        assert (trace.latency == 3).sum() > 0
        trace.validate()

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=50))
    @settings(max_examples=25, deadline=None)
    def test_always_valid_dataflow(self, n, seed):
        p = IlpProfile(block_size=12, depth=4, recurrence_ops=2, recurrence_latency=2)
        generate_instruction_trace(p, n, seed).validate()

    def test_rejects_empty(self, simple_ilp_profile):
        with pytest.raises(WorkloadError):
            generate_instruction_trace(simple_ilp_profile, 0, 1)


_EDGE_FRACTIONS = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def _ilp_profiles(draw, with_variant=True):
    """Random shapes: recurrence_ops 0, ``block_size`` or between, depth
    up to ``block_size`` (so often past the layered body), and edge
    probabilities; half of them with a deep variant."""
    block = draw(st.integers(1, 40))
    variant = None
    deep_fraction = 0.0
    if with_variant and draw(st.booleans()):
        variant = draw(_ilp_profiles(with_variant=False))
        deep_fraction = draw(
            st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
        )
    return IlpProfile(
        block_size=block,
        depth=draw(st.integers(1, block)),
        recurrence_ops=draw(
            st.one_of(st.just(0), st.just(block), st.integers(0, block))
        ),
        recurrence_latency=draw(st.integers(1, 5)),
        long_latency_fraction=draw(_EDGE_FRACTIONS),
        long_latency_cycles=draw(st.integers(1, 20)),
        second_dep_probability=draw(_EDGE_FRACTIONS),
        deep_variant=variant,
        deep_fraction=deep_fraction,
    )


@st.composite
def _profiles_and_lengths(draw):
    """A random profile and a length inside its first iteration or
    anywhere in a later one."""
    profile = draw(_ilp_profiles())
    n = draw(st.one_of(st.integers(1, profile.block_size), st.integers(1, 2000)))
    return profile, n


def _assert_same_trace(fast, slow):
    for name in ("dep1", "dep2", "latency"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestEquivalenceWithScalarOracle:
    """The numpy generator must emit the scalar generator's trace
    byte for byte, from the same PCG64 stream."""

    @settings(max_examples=200, deadline=None)
    @given(case=_profiles_and_lengths(), seed=st.integers(0, 2**32 - 1))
    @example(case=(IlpProfile(block_size=8, depth=8, recurrence_ops=8), 20), seed=3)
    @example(
        case=(
            IlpProfile(
                block_size=6, depth=5, recurrence_ops=3, long_latency_fraction=1.0,
                second_dep_probability=1.0,
                deep_variant=IlpProfile(
                    block_size=9, depth=4, long_latency_fraction=0.0,
                    second_dep_probability=0.0,
                ),
                deep_fraction=1.0,
            ),
            31,
        ),
        seed=5,
    )
    def test_random_profiles(self, case, seed):
        profile, n = case
        _assert_same_trace(
            generate_instruction_trace(profile, n, seed),
            scalar_instruction_trace(profile, n, seed),
        )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_suite_at_paper_sizing(self, seed):
        from repro.experiments.queue_study import DEFAULT_N_INSTRUCTIONS

        for profile in queue_study_profiles():
            _assert_same_trace(
                generate_instruction_trace(profile.ilp, DEFAULT_N_INSTRUCTIONS, seed),
                scalar_instruction_trace(profile.ilp, DEFAULT_N_INSTRUCTIONS, seed),
            )


class TestTraceSliceAndConcat:
    def test_slice_clips_dangling_deps(self, simple_ilp_profile):
        trace = generate_instruction_trace(simple_ilp_profile, 1000, 5)
        part = trace.slice(500, 700)
        part.validate()
        assert len(part) == 200

    def test_concatenate_offsets_deps(self, simple_ilp_profile):
        a = generate_instruction_trace(simple_ilp_profile, 300, 6)
        b = generate_instruction_trace(simple_ilp_profile, 300, 7)
        joined = concatenate([a, b])
        joined.validate()
        assert len(joined) == 600
        # second half deps must stay within/after the first half
        second = joined.dep1[300:]
        used = second != NO_DEP
        assert np.all(second[used] >= 0)

    def test_concatenate_rejects_empty_list(self):
        with pytest.raises(WorkloadError):
            concatenate([])
