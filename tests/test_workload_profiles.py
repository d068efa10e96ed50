"""Tests for workload profile types and validation."""

import pytest

from repro.workloads.profiles import (
    BenchmarkProfile,
    ComponentKind,
    IlpProfile,
    MemoryProfile,
    Suite,
    WorkingSetComponent,
    loop,
    uniform,
)


class TestWorkingSetComponent:
    def test_shorthands(self):
        assert uniform(8, 0.5).kind is ComponentKind.UNIFORM
        assert loop(8, 0.5).kind is ComponentKind.LOOP

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            WorkingSetComponent(0, 0.5)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            WorkingSetComponent(8, 0.0)


class TestMemoryProfile:
    def test_weight_normalisation(self):
        p = MemoryProfile(
            components=(uniform(4, 3.0), loop(8, 1.0)),
            streaming_weight=1.0,
            load_store_fraction=0.3,
        )
        weights = p.normalised_weights()
        assert sum(weights) == pytest.approx(1.0)
        assert weights == pytest.approx((0.6, 0.2, 0.2))

    def test_rejects_empty_components(self):
        with pytest.raises(ValueError):
            MemoryProfile(components=(), streaming_weight=0.1, load_store_fraction=0.3)

    def test_rejects_negative_streaming(self):
        with pytest.raises(ValueError):
            MemoryProfile(
                components=(uniform(4, 1.0),),
                streaming_weight=-0.1,
                load_store_fraction=0.3,
            )

    @pytest.mark.parametrize(
        "components, streaming",
        [
            ((uniform(4, float("nan")),), 0.1),
            ((uniform(4, float("inf")),), 0.1),
            ((uniform(4, 1.0),), float("nan")),
            ((uniform(4, 1.0),), float("inf")),
            ((uniform(4, 1e308), loop(8, 1e308)), 0.0),
        ],
    )
    def test_rejects_weights_without_a_finite_total(self, components, streaming):
        with pytest.raises(ValueError):
            MemoryProfile(
                components=components,
                streaming_weight=streaming,
                load_store_fraction=0.3,
            )

    def test_rejects_bad_ls_fraction(self):
        for bad in (0.0, 1.5):
            with pytest.raises(ValueError):
                MemoryProfile(
                    components=(uniform(4, 1.0),),
                    streaming_weight=0.1,
                    load_store_fraction=bad,
                )

    def test_rejects_bad_refs_per_block(self):
        with pytest.raises(ValueError):
            MemoryProfile(
                components=(uniform(4, 1.0),),
                streaming_weight=0.1,
                load_store_fraction=0.3,
                refs_per_block=0,
            )


class TestIlpProfile:
    def test_recurrence_bound(self):
        p = IlpProfile(block_size=12, depth=3, recurrence_ops=2, recurrence_latency=3)
        assert p.recurrence_ipc_bound == pytest.approx(2.0)

    def test_no_recurrence_unbounded(self):
        p = IlpProfile(block_size=12, depth=3)
        assert p.recurrence_ipc_bound == float("inf")

    def test_rejects_depth_exceeding_block(self):
        with pytest.raises(ValueError):
            IlpProfile(block_size=4, depth=8)

    def test_rejects_bad_recurrence(self):
        with pytest.raises(ValueError):
            IlpProfile(block_size=4, depth=2, recurrence_ops=5)

    def test_rejects_nested_deep_variant(self):
        inner = IlpProfile(block_size=8, depth=2)
        mid = IlpProfile(block_size=8, depth=2, deep_variant=inner, deep_fraction=0.5)
        with pytest.raises(ValueError):
            IlpProfile(block_size=8, depth=2, deep_variant=mid, deep_fraction=0.5)

    def test_rejects_fraction_without_variant(self):
        with pytest.raises(ValueError):
            IlpProfile(block_size=8, depth=2, deep_fraction=0.5)

    def test_rejects_variant_without_fraction(self):
        inner = IlpProfile(block_size=8, depth=2)
        with pytest.raises(ValueError):
            IlpProfile(block_size=8, depth=2, deep_variant=inner, deep_fraction=0.0)


class TestBenchmarkProfile:
    def test_in_cache_study_flag(self, simple_memory_profile, simple_ilp_profile):
        with_mem = BenchmarkProfile(
            name="x", suite=Suite.SPECINT95, domain="integer",
            memory=simple_memory_profile, ilp=simple_ilp_profile, seed=1,
        )
        without = BenchmarkProfile(
            name="y", suite=Suite.SPECINT95, domain="integer",
            memory=None, ilp=simple_ilp_profile, seed=2,
        )
        assert with_mem.in_cache_study
        assert not without.in_cache_study

    def test_rejects_bad_domain(self, simple_ilp_profile):
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="x", suite=Suite.NAS, domain="quantum",
                memory=None, ilp=simple_ilp_profile, seed=1,
            )
