"""The load/SLO harness: determinism, judging and a live run.

``repro loadtest`` must be reproducible (same seed, same traffic),
honest (429s counted, not hidden), and judged (SLO thresholds produce
named violations).  The live test drives a real :class:`ServiceThread`
and checks the probe trace's stitched span tree.
"""

from repro.engine.engine import ExperimentEngine
from repro.obs.stitch import validate_parentage
from repro.obs.trace import Tracer
from repro.service import ServiceConfig, ServiceThread
from repro.service.loadtest import (
    LoadReport,
    RequestOutcome,
    SloPolicy,
    _draw,
    _make_request,
    check_slo,
    format_report,
    percentile,
    run_loadtest,
)


class TestPercentile:
    def test_nearest_rank(self):
        values = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert percentile(values, 0.50) == 0.5
        assert percentile(values, 0.95) == 1.0
        assert percentile(values, 0.99) == 1.0
        assert percentile([42.0], 0.5) == 42.0
        assert percentile([], 0.5) == 0.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0


class TestTrafficDeterminism:
    def test_draw_is_stable_and_uniformish(self):
        assert _draw(0, "tenant-00", 3, "mix") == _draw(0, "tenant-00", 3, "mix")
        assert _draw(0, "tenant-00", 3, "mix") != _draw(1, "tenant-00", 3, "mix")
        draws = [_draw(0, "t", i, "mix") for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.3 < sum(draws) / len(draws) < 0.7

    def test_same_seed_same_requests(self):
        a = [_make_request(7, "tenant-00", 0, i, 8, 0.5) for i in range(8)]
        b = [_make_request(7, "tenant-00", 0, i, 8, 0.5) for i in range(8)]
        assert a == b

    def test_warm_fraction_extremes(self):
        all_warm = [_make_request(0, "t", 0, i, 4, 1.0) for i in range(4)]
        all_cold = [_make_request(0, "t", 0, i, 4, 0.0) for i in range(4)]
        assert all(not cold for _, cold in all_warm)
        assert all(cold for _, cold in all_cold)
        # Warm requests all share one cell identity; cold ones don't.
        warm_ids = {r.cache_identity() for r, _ in all_warm}
        cold_ids = {r.cache_identity() for r, _ in all_cold}
        assert len(warm_ids) == 1
        assert len(cold_ids) == 4

    def test_cold_sizings_unique_across_tenants(self):
        refs = {
            _make_request(0, f"tenant-{t:02d}", t, i, 4, 0.0)[0].n_refs
            for t in range(3)
            for i in range(4)
        }
        assert len(refs) == 12


def _report(outcomes, slo=None, wall_s=1.0):
    return LoadReport(
        url="http://test", tenants=1, requests_per_tenant=len(outcomes),
        seed=0, warm_fraction=0.5, outcomes=outcomes, wall_s=wall_s,
        slo=slo if slo is not None else SloPolicy(),
    )


def _ok(latency_s, throttled=False):
    return RequestOutcome(
        tenant="t", index=0, status="ok", latency_s=latency_s,
        cold=True, throttled=throttled, source="computed",
    )


class TestSloJudging:
    def test_pass_within_thresholds(self):
        report = _report([_ok(0.1), _ok(0.2)])
        assert check_slo(report) == []
        assert "SLO: PASS" in format_report(report)

    def test_p50_breach_named(self):
        report = _report([_ok(5.0)], slo=SloPolicy(p50_s=1.0))
        violations = check_slo(report)
        assert any("p50" in v for v in violations)

    def test_error_rate_breach(self):
        bad = RequestOutcome(
            tenant="t", index=1, status="error", latency_s=0.1,
            cold=True, throttled=False, error="boom",
        )
        report = _report([_ok(0.1), bad])
        assert any("error rate" in v for v in check_slo(report))

    def test_throttle_rate_breach(self):
        report = _report(
            [_ok(0.1, throttled=True)], slo=SloPolicy(max_throttle_rate=0.0)
        )
        assert any("429" in v for v in check_slo(report))

    def test_no_successes_is_a_violation(self):
        bad = RequestOutcome(
            tenant="t", index=0, status="error", latency_s=0.1,
            cold=True, throttled=False,
        )
        report = _report([bad], slo=SloPolicy(max_error_rate=1.0))
        assert any("no request succeeded" in v for v in check_slo(report))


class TestLiveLoadtest:
    def test_storm_probe_and_trace_against_real_service(self):
        engine = ExperimentEngine()
        with Tracer() as tracer:
            with ServiceThread(engine, ServiceConfig(port=0)) as svc:
                report = run_loadtest(
                    svc.url,
                    tenants=2,
                    requests_per_tenant=2,
                    seed=0,
                    warm_fraction=0.5,
                )
        assert report.n_requests == 4
        assert report.ok == 4
        assert report.errors == 0
        assert report.passed, report.violations
        # Every successful request carries the server-echoed trace id.
        assert all(o.trace_id for o in report.outcomes)
        # The probe's trace is one stitched tree through the full stack.
        assert report.probe_trace_id is not None
        validate_parentage(tracer.records)
        probe_spans = [
            r for r in tracer.records
            if r["record"] == "span"
            and r["trace_id"] == report.probe_trace_id
        ]
        names = {s["name"] for s in probe_spans}
        assert {
            "service.request", "service.queue_wait", "broker.batch",
            "engine.map", "engine.worker", "cell.evaluate",
        } <= names
