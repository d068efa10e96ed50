"""Trace-schema validation over real instrumented runs (tier 1).

`make obs-check` runs these tests (plus ``repro obs check``): a tiny
traced sweep must emit only schema-valid records covering every
adaptive-control level, and tracing must not perturb results.
"""

import pytest

from repro.cli import main
from repro.experiments.cache_study import figure8_9
from repro.obs.schema import SPAN_LEVELS, read_records, validate_trace
from repro.obs.trace import Tracer, span


@pytest.fixture(scope="module")
def traced_sweep():
    """One tiny traced Figure 8/9 sweep, shared across the module."""
    with Tracer() as tracer:
        with span("figure", level="run", figure="9"):
            result = figure8_9(n_refs=4000, warmup_refs=1000)
    return tracer, result


class TestTracedSweep:
    def test_every_record_is_schema_valid(self, traced_sweep):
        tracer, _ = traced_sweep
        assert tracer.records
        validate_trace(tracer.records)

    def test_all_decision_levels_covered(self, traced_sweep):
        tracer, _ = traced_sweep
        levels = {
            r["level"] for r in tracer.records if r["record"] == "span"
        }
        assert levels <= set(SPAN_LEVELS)
        assert {"run", "interval", "candidate", "reconfigure", "engine"} <= levels

    def test_candidates_nest_under_intervals_under_run(self, traced_sweep):
        tracer, _ = traced_sweep
        spans = {
            r["id"]: r for r in tracer.records if r["record"] == "span"
        }
        for s in spans.values():
            if s["level"] == "candidate":
                assert spans[s["parent"]]["level"] == "interval"
            if s["level"] == "interval":
                assert spans[s["parent"]]["level"] == "run"

    def test_one_reconfigure_per_interval(self, traced_sweep):
        tracer, result = traced_sweep
        spans = [r for r in tracer.records if r["record"] == "span"]
        reconfigures = [s for s in spans if s["level"] == "reconfigure"]
        intervals = [s for s in spans if s["level"] == "interval"]
        assert len(intervals) == len(result.best_boundaries)
        assert len(reconfigures) == len(intervals)
        assert all(
            s["attrs"]["trigger"] == "process_select" for s in reconfigures
        )

    def test_tracing_does_not_perturb_results(self, traced_sweep):
        _, traced = traced_sweep
        plain = figure8_9(n_refs=4000, warmup_refs=1000)
        assert plain.best_boundaries == traced.best_boundaries
        assert plain.conventional_boundary == traced.conventional_boundary
        assert plain.tpi.conventional == traced.tpi.conventional
        assert plain.tpi.adaptive == traced.tpi.adaptive


class TestCliObservability:
    def test_figure_9_trace_and_metrics_end_to_end(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.prom"
        assert main([
            "figure", "9",
            "--trace", str(trace_path), "--metrics", str(metrics_path),
        ]) == 0
        records = read_records(trace_path)
        validate_trace(records)
        levels = {r["level"] for r in records if r["record"] == "span"}
        assert {"run", "interval", "candidate", "reconfigure", "engine"} <= levels
        prom = metrics_path.read_text()
        assert "repro_manager_decisions_total" in prom
        assert "repro_reconfigurations_total" in prom
        capsys.readouterr()

        assert main(["obs", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "interval TPI timeline" in out
        assert "reconfigurations:" in out
        assert "engine runs: 1" in out
        assert "21 cells (0 cached, 21 computed) in " in out
        assert "on 1 job(s), busy " in out and "utilization " in out

    def test_query_honours_trace_metrics_and_profile(self, tmp_path, capsys):
        trace_path = tmp_path / "q.jsonl"
        metrics_path = tmp_path / "q.prom"
        assert main([
            "query", "dcache", "compress", "--trace", str(trace_path),
            "--metrics", str(metrics_path), "--profile",
        ]) == 0
        records = read_records(trace_path)
        validate_trace(records)
        names = {r["name"] for r in records if r["record"] == "span"}
        assert {"query", "engine.map"} <= names
        assert "repro_engine_runs_total" in metrics_path.read_text()
        captured = capsys.readouterr()
        assert "dcache/compress: best configuration" in captured.out
        assert "engine.map" in captured.err

    def test_figure_9_profile_keeps_stdout(self, capsys):
        assert main(["figure", "9"]) == 0
        plain = capsys.readouterr()
        assert main(["figure", "9", "--profile"]) == 0
        profiled = capsys.readouterr()
        assert profiled.out == plain.out
        assert plain.err == ""
        assert "engine.map" in profiled.err
        assert "cell:cache_tpi" in profiled.err

    def test_obs_check_command(self, capsys):
        assert main(["obs", "check"]) == 0
        out = capsys.readouterr().out
        assert "obs check ok" in out

    def test_obs_parses(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["obs", "check"]).command == "obs"
        args = parser.parse_args(["obs", "summarize", "t.jsonl"])
        assert args.obs_command == "summarize"
