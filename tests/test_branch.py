"""Tests for the adaptive branch predictor extension."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.branch.adaptive import AdaptiveBranchPredictor, RETRAIN_CLEANUP_CYCLES
from repro.branch.predictors import (
    BimodalPredictor,
    GsharePredictor,
    PredictorKind,
    make_predictor,
)
from repro.branch.timing import BranchTimingModel, PREDICTOR_TABLE_SIZES
from repro.branch.tpi import BranchTpiModel
from repro.branch.workloads import (
    BRANCH_FRACTION,
    BranchProfile,
    branch_profile_for,
    generate_branch_trace,
)
from repro.engine.cells import branch_tpi_cell, evaluate_cell
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.workloads.suite import all_profiles, get_profile
from tests.oracles import SteppingPredictor, scalar_branch_trace


class TestCounterPredictors:
    def test_bimodal_learns_bias(self):
        p = BimodalPredictor(1024)
        pcs = np.zeros(200, dtype=np.int64)
        outcomes = np.ones(200, dtype=bool)
        rate = p.run(pcs, outcomes)
        assert rate < 0.05  # initialised weakly taken, trains instantly

    def test_bimodal_hysteresis(self):
        """2-bit counters absorb a single anomalous outcome: only the
        anomaly mispredicts, and the branch after it is still predicted
        taken."""
        p = BimodalPredictor(64)
        outcomes = np.array([True, True, True, True, False, True])
        assert p.run(np.full(6, 3, dtype=np.int64), outcomes) == 1 / 6

    def test_gshare_learns_alternation_bimodal_cannot(self):
        pcs = np.zeros(400, dtype=np.int64)
        outcomes = np.tile([True, False], 200)
        gshare_rate = GsharePredictor(1024).run(pcs, outcomes)
        bimodal_rate = BimodalPredictor(1024).run(pcs, outcomes)
        assert gshare_rate < 0.1
        assert bimodal_rate > 0.4

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            BimodalPredictor(1000)

    def test_rejects_empty_stream(self):
        with pytest.raises(SimulationError):
            BimodalPredictor(64).run(np.array([], dtype=np.int64), np.array([], dtype=bool))

    def test_rejects_mismatched_streams(self):
        with pytest.raises(SimulationError):
            BimodalPredictor(64).run(
                np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool)
            )

    def test_factory(self):
        assert isinstance(make_predictor(PredictorKind.BIMODAL, 64), BimodalPredictor)
        assert isinstance(make_predictor(PredictorKind.GSHARE, 64), GsharePredictor)


@st.composite
def _streams(draw):
    """A branch stream over a few aliasing pcs or arbitrary ones, and a
    point to split it at."""
    pcs = st.one_of(st.integers(0, 63), st.integers(0, 2**32 - 1))
    stream = draw(st.lists(st.tuples(pcs, st.booleans()), min_size=2, max_size=400))
    split = draw(st.integers(1, len(stream) - 1))
    return (
        np.array([pc for pc, _ in stream], dtype=np.int64),
        np.array([taken for _, taken in stream], dtype=bool),
        split,
    )


def _fast_predictor(kind, n_entries, history_bits):
    if kind is PredictorKind.BIMODAL:
        return BimodalPredictor(n_entries)
    return GsharePredictor(n_entries, history_bits)


def _assert_same_state(fast, slow):
    assert fast._counters == slow.counters
    if isinstance(fast, GsharePredictor):
        assert fast._history == slow.history


class TestRunAgainstSteppingOracle:
    """``run()`` must give the one-call-per-branch predictor's rate and
    leave its counters and history, also across split streams."""

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(PredictorKind),
        index_bits=st.integers(1, 10),
        history_bits=st.one_of(st.none(), st.integers(1, 16)),
        case=_streams(),
    )
    def test_random_streams(self, kind, index_bits, history_bits, case):
        pcs, outcomes, split = case
        n_entries = 1 << index_bits
        if kind is PredictorKind.BIMODAL:
            history_bits = None

        fast = _fast_predictor(kind, n_entries, history_bits)
        slow = SteppingPredictor(kind, n_entries, history_bits)
        assert fast.run(pcs, outcomes) == slow.run(pcs, outcomes)
        _assert_same_state(fast, slow)

        fast = _fast_predictor(kind, n_entries, history_bits)
        slow = SteppingPredictor(kind, n_entries, history_bits)
        for part in (slice(0, split), slice(split, None)):
            assert fast.run(pcs[part], outcomes[part]) == slow.run(
                pcs[part], outcomes[part]
            )
            _assert_same_state(fast, slow)

    @pytest.mark.parametrize("kind", list(PredictorKind))
    @pytest.mark.parametrize("app", ["gcc", "li", "swim"])
    def test_suite_streams_at_every_size(self, kind, app):
        pcs, outcomes = generate_branch_trace(
            branch_profile_for(get_profile(app)), 2_500
        )
        for size in PREDICTOR_TABLE_SIZES:
            fast = make_predictor(kind, size)
            slow = SteppingPredictor(kind, size)
            assert fast.run(pcs, outcomes) == slow.run(pcs, outcomes)
            _assert_same_state(fast, slow)


@st.composite
def _branch_profiles(draw):
    patterned = draw(st.floats(0.0, 1.0))
    noisy = draw(st.floats(0.0, 1.0 - patterned))
    assume(patterned + noisy <= 1.0)
    return BranchProfile(
        name="random",
        n_static=draw(st.one_of(st.integers(4, 40), st.integers(4, 2500))),
        patterned_fraction=patterned,
        noisy_fraction=noisy,
        zipf_exponent=draw(st.floats(0.05, 4.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _assert_same_trace(fast, slow):
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestBranchTraceAgainstScalarOracle:
    """The bulk generator must emit the per-branch loop's stream byte for
    byte, from the same PCG64 stream."""

    @settings(max_examples=150, deadline=None)
    @given(
        profile=_branch_profiles(),
        n_branches=st.one_of(st.integers(1, 16), st.integers(1, 3000)),
    )
    def test_random_profiles(self, profile, n_branches):
        _assert_same_trace(
            generate_branch_trace(profile, n_branches),
            scalar_branch_trace(profile, n_branches),
        )

    @pytest.mark.parametrize("n_branches", [1, 5, 2_048, 2_500, 20_000, 20_001])
    def test_suite(self, n_branches):
        for app in all_profiles():
            profile = branch_profile_for(app)
            _assert_same_trace(
                generate_branch_trace(profile, n_branches),
                scalar_branch_trace(profile, n_branches),
            )


class TestBranchWorkloads:
    def test_deterministic(self):
        profile = branch_profile_for(get_profile("gcc"))
        a = generate_branch_trace(profile, 4000)
        b = generate_branch_trace(profile, 4000)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_template_structure_repeats(self):
        """The dynamic stream must revisit the same static sequences
        (loop bodies), or global history carries no signal."""
        profile = branch_profile_for(get_profile("perl"))
        pcs, _ = generate_branch_trace(profile, 6000)
        unique = len(np.unique(pcs))
        assert unique < 600  # far fewer statics than dynamic branches

    def test_fp_profiles_predictable(self):
        """Loop-dominated kernels must be highly predictable."""
        profile = branch_profile_for(get_profile("swim"))
        pcs, outcomes = generate_branch_trace(profile, 12_000)
        rate = GsharePredictor(8192).run(pcs, outcomes)
        assert rate < 0.12

    def test_integer_profiles_harder(self):
        easy = branch_profile_for(get_profile("swim"))
        hard = branch_profile_for(get_profile("gcc"))
        r_easy = GsharePredictor(8192).run(*generate_branch_trace(easy, 12_000))
        r_hard = GsharePredictor(8192).run(*generate_branch_trace(hard, 12_000))
        assert r_hard > r_easy

    def test_validation(self):
        with pytest.raises(WorkloadError):
            BranchProfile("x", 2, 0.5, 0.1, 1.2, 1)
        with pytest.raises(WorkloadError):
            BranchProfile("x", 100, 0.8, 0.4, 1.2, 1)
        profile = branch_profile_for(get_profile("gcc"))
        with pytest.raises(WorkloadError):
            generate_branch_trace(profile, 0)


class TestBranchTiming:
    def test_monotone(self):
        t = BranchTimingModel()
        delays = [t.lookup_time_ns(s) for s in sorted(t.sizes)]
        assert delays == sorted(delays)

    def test_rejects_non_power_of_two_sizes(self):
        with pytest.raises(ConfigurationError):
            BranchTimingModel(sizes=(1000,))

    def test_rejects_unknown_size(self):
        with pytest.raises(ConfigurationError):
            BranchTimingModel().lookup_time_ns(512)

    def test_paper_sizes(self):
        assert PREDICTOR_TABLE_SIZES == (1024, 2048, 4096, 8192, 16384)


class TestBranchTpi:
    def test_capacity_helps_aliased_apps(self):
        model = BranchTpiModel()
        profile = branch_profile_for(get_profile("li"))
        sweep = model.sweep_breakdowns(profile, n_branches=12_000)
        assert sweep[8192].misprediction_rate < sweep[1024].misprediction_rate

    def test_tpi_composition(self):
        model = BranchTpiModel()
        profile = branch_profile_for(get_profile("swim"))
        b = model.evaluate(profile, 1024, n_branches=8_000)
        expected = b.cycle_time_ns * (
            1 / model.base_ipc
            + BRANCH_FRACTION * b.misprediction_rate * model.penalty_cycles
        )
        assert b.tpi_ns == pytest.approx(expected)

    def test_biggest_table_costs_clock(self):
        model = BranchTpiModel()
        assert model.cycle_time_ns(16384) > model.cycle_time_ns(1024)

    def test_rejects_empty(self):
        model = BranchTpiModel()
        profile = branch_profile_for(get_profile("swim"))
        with pytest.raises(WorkloadError):
            model.evaluate(profile, 1024, n_branches=0)
        with pytest.raises(WorkloadError):
            model.sweep_breakdowns(profile, n_branches=0)

    @pytest.mark.parametrize("kind", list(PredictorKind))
    def test_sweep_equals_one_evaluation_per_size(self, kind):
        model = BranchTpiModel(kind=kind)
        profile = branch_profile_for(get_profile("gcc"))
        sweep = model.sweep_breakdowns(profile, n_branches=3_000)
        assert sweep == {
            s: model.evaluate(profile, s, n_branches=3_000)
            for s in model.timing.sizes
        }

    def test_cell_generates_its_trace_once(self, monkeypatch):
        import repro.branch.tpi as tpi

        calls = []
        generate = tpi.generate_branch_trace

        def counting(profile, n_branches):
            calls.append(n_branches)
            return generate(profile, n_branches)

        monkeypatch.setattr(tpi, "generate_branch_trace", counting)
        payload = evaluate_cell(
            branch_tpi_cell(get_profile("li"), PredictorKind.GSHARE, 2_500)
        )
        assert calls == [2_500]
        assert list(payload["breakdowns"]) == [
            str(s) for s in PREDICTOR_TABLE_SIZES
        ]


class TestAdaptivePredictor:
    def test_cas_interface(self):
        cas = AdaptiveBranchPredictor()
        assert cas.configuration == 16384
        cost = cas.reconfigure(1024)
        assert cost.cleanup_cycles == RETRAIN_CLEANUP_CYCLES
        assert cost.requires_clock_switch
        assert cas.configuration == 1024

    def test_same_config_free(self):
        cas = AdaptiveBranchPredictor(initial_entries=4096)
        cost = cas.reconfigure(4096)
        assert cost.cleanup_cycles == 0
        assert not cost.requires_clock_switch

    def test_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            AdaptiveBranchPredictor().reconfigure(3000)
