"""Tests for TPI metrics and comparisons."""

import pytest

from repro.core.metrics import (
    SweepResult,
    TpiComparison,
    best_sweep_result,
    geometric_mean,
    reduction_percent,
    speedup,
)
from repro.errors import ReproError


class TestScalarHelpers:
    def test_reduction_percent(self):
        assert reduction_percent(2.0, 1.5) == pytest.approx(25.0)

    def test_reduction_negative_when_worse(self):
        assert reduction_percent(1.0, 1.2) == pytest.approx(-20.0)

    def test_reduction_rejects_bad_baseline(self):
        with pytest.raises(ReproError):
            reduction_percent(0.0, 1.0)

    def test_speedup(self):
        assert speedup(2.0, 1.0) == pytest.approx(2.0)

    def test_speedup_rejects_zero(self):
        with pytest.raises(ReproError):
            speedup(1.0, 0.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_empty(self):
        with pytest.raises(ReproError):
            geometric_mean([])

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            geometric_mean([1.0, 0.0])


class TestTpiComparison:
    def _cmp(self):
        return TpiComparison(
            metric_name="TPI",
            conventional={"a": 1.0, "b": 2.0, "c": 0.5},
            adaptive={"a": 1.0, "b": 1.0, "c": 0.5},
        )

    def test_averages(self):
        cmp = self._cmp()
        assert cmp.average_conventional() == pytest.approx(3.5 / 3)
        assert cmp.average_adaptive() == pytest.approx(2.5 / 3)

    def test_average_reduction(self):
        assert self._cmp().average_reduction_percent() == pytest.approx(100 / 3.5)

    def test_per_app_reductions(self):
        red = self._cmp().per_app_reduction_percent()
        assert red["a"] == pytest.approx(0.0)
        assert red["b"] == pytest.approx(50.0)

    def test_biggest_winners(self):
        assert self._cmp().biggest_winners(1) == ("b",)

    def test_never_worse_true(self):
        assert self._cmp().never_worse()

    def test_never_worse_false(self):
        cmp = TpiComparison(
            metric_name="TPI",
            conventional={"a": 1.0},
            adaptive={"a": 1.1},
        )
        assert not cmp.never_worse()

    def test_rejects_mismatched_apps(self):
        with pytest.raises(ReproError):
            TpiComparison("TPI", {"a": 1.0}, {"b": 1.0})

    def test_rejects_empty(self):
        with pytest.raises(ReproError):
            TpiComparison("TPI", {}, {})


class TestBestSweepResult:
    def test_a_tie_goes_to_the_smallest_configuration_in_any_order(self):
        # Payloads read back from JSON text come in sorted key order
        # ("128" < "16" < "64"), computed ones in ascending configuration.
        points = {
            c: SweepResult(config=c, tpi_ns=tpi, ipc=1.0, cycle_time_ns=1.0)
            for c, tpi in ((16, 2.0), (64, 1.5), (128, 1.5))
        }
        for order in ((16, 64, 128), (128, 16, 64)):
            ordered = {c: points[c] for c in order}
            assert best_sweep_result(ordered).config == 64
