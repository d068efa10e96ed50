"""Unit tests for the observability layer: tracer, metrics, the
trace-built ``--profile`` table, and summaries."""

import argparse
import importlib
import time

import numpy as np
import pytest

from repro.cli import _run_observed
from repro.engine.engine import ExperimentEngine
from repro.errors import ObservabilityError
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.schema import read_records, validate_record, validate_trace
from repro.obs.summarize import profile_report, summarize_path, summarize_trace
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    current_tracer,
    event,
    span,
    use_tracer,
)


class TestTracer:
    def test_nested_spans_record_parent_ids(self):
        with Tracer() as t:
            with t.span("outer", level="run") as outer:
                with t.span("inner", level="interval") as inner:
                    pass
        # children close (and are written) before parents
        assert [r["name"] for r in t.records] == ["inner", "outer"]
        by_name = {r["name"]: r for r in t.records}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner"]["id"] == inner.id
        assert by_name["outer"]["id"] == outer.id
        validate_trace(t.records)

    def test_entering_activates_module_level_helpers(self):
        assert current_tracer() is NULL_TRACER
        with Tracer() as t:
            assert current_tracer() is t
            with span("work", level="section", x=1):
                event("fact", y=2)
        assert current_tracer() is NULL_TRACER
        names = [r["name"] for r in t.records]
        assert names == ["fact", "work"]
        fact = t.records[0]
        assert fact["record"] == "event"
        assert fact["parent"] == t.records[1]["id"]

    def test_disabled_helpers_are_noops(self):
        sp = span("anything", level="run")
        assert sp is span("other", level="interval")  # shared null span
        with sp as s:
            s.set(a=1).event("e")
        event("nothing")  # must not raise

    def test_span_set_attaches_attributes(self):
        with Tracer() as t:
            with t.span("s", level="interval", a=1) as sp:
                sp.set(b=2.5, a=7)
        attrs = t.records[0]["attrs"]
        assert attrs == {"a": 7, "b": 2.5}

    def test_event_parented_to_innermost_span(self):
        with Tracer() as t:
            with t.span("outer", level="run"):
                with t.span("inner", level="section") as inner:
                    t.event("deep")
                t.event("shallow")
        by_name = {r["name"]: r for r in t.records}
        assert by_name["deep"]["parent"] == inner.id
        assert by_name["shallow"]["parent"] == by_name["outer"]["id"]

    def test_writes_jsonl_file(self, tmp_path):
        path = tmp_path / "sub" / "t.jsonl"
        with Tracer(path) as t:
            with t.span("run", level="run", figure="9"):
                t.event("note", detail="hello")
        records = read_records(path)
        assert records == t.records
        validate_trace(records)

    def test_out_of_order_close_raises(self):
        with Tracer() as t:
            outer = t.span("outer", level="run")
            inner = t.span("inner", level="section")
            outer.__enter__()
            inner.__enter__()
            with pytest.raises(ObservabilityError):
                outer.__exit__(None, None, None)

    def test_unknown_level_rejected(self):
        with Tracer() as t:
            with pytest.raises(ObservabilityError):
                t.span("s", level="galaxy")

    def test_attrs_coerced_to_jsonable(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        with Tracer() as t:
            with t.span("s", level="section") as sp:
                sp.set(
                    n=np.int64(3),
                    f=np.float64(0.5),
                    seq=(1, 2),
                    other=Opaque(),
                )
        attrs = t.records[0]["attrs"]
        assert attrs["n"] == 3 and isinstance(attrs["n"], int)
        assert attrs["f"] == 0.5
        assert attrs["seq"] == [1, 2]
        assert attrs["other"] == "<opaque>"

    def test_use_tracer_restores_previous(self):
        t = Tracer()
        with use_tracer(t):
            assert current_tracer() is t
        assert current_tracer() is NULL_TRACER


class TestSchema:
    def _span(self, **over):
        record = {
            "record": "span", "name": "s", "level": "run", "trace_id": "t1",
            "id": "s000001", "parent": None, "ts": time.time(),
            "dur_s": 0.1, "attrs": {},
        }
        record.update(over)
        return record

    def test_missing_field_rejected(self):
        bad = self._span()
        del bad["dur_s"]
        with pytest.raises(ObservabilityError):
            validate_record(bad)

    def test_bad_level_and_duration_rejected(self):
        with pytest.raises(ObservabilityError):
            validate_record(self._span(level="nope"))
        with pytest.raises(ObservabilityError):
            validate_record(self._span(dur_s=-1.0))

    def test_unknown_shape_rejected(self):
        with pytest.raises(ObservabilityError):
            validate_record({"record": "blob"})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ObservabilityError):
            validate_trace([self._span(), self._span()])

    def test_dangling_parent_rejected(self):
        with pytest.raises(ObservabilityError):
            validate_trace([self._span(parent="s999999")])

    def test_children_before_parents_is_legal(self):
        child = self._span(id="s000002", parent="s000001", level="interval")
        parent = self._span(id="s000001")
        validate_trace([child, parent])


class TestMetricsRegistry:
    def test_counter_create_or_get_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", "help text")
        c.inc()
        c.inc(2.0, structure="dcache")
        assert reg.counter("repro_test_total") is c
        assert c.value() == 1.0
        assert c.value(structure="dcache") == 2.0

    def test_counter_cannot_decrease(self):
        c = Counter("c_total", "")
        with pytest.raises(ObservabilityError):
            c.inc(-1.0)

    def test_gauge_holds_last_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_level")
        g.set(1.0)
        g.set(0.25)
        assert g.value() == 0.25

    def test_histogram_buckets_sum_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        state = h.value()
        assert state["counts"] == [1, 2]  # cumulative per bucket
        assert state["count"] == 3
        assert state["sum"] == pytest.approx(55.5)

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_thing")
        with pytest.raises(ObservabilityError):
            reg.gauge("repro_thing")

    def test_snapshot_diff_reports_deltas(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_hits_total")
        g = reg.gauge("repro_ratio")
        h = reg.histogram("repro_wall_seconds", buckets=(1.0,))
        c.inc(3.0)
        g.set(0.5)
        before = reg.snapshot()
        c.inc(2.0, kind="cache_tpi")
        g.set(0.75)
        h.observe(0.3)
        delta = MetricsRegistry.diff(before, reg.snapshot())
        assert delta["repro_hits_total"]["values"] == {"kind=cache_tpi": 2.0}
        assert delta["repro_ratio"]["values"] == {"": 0.75}
        assert delta["repro_wall_seconds"]["values"][""]["count"] == 1

    def test_diff_of_quiet_region_is_empty(self):
        reg = MetricsRegistry()
        reg.counter("repro_quiet_total").inc()
        reg.gauge("repro_g").set(1.0)
        snap = reg.snapshot()
        assert MetricsRegistry.diff(snap, reg.snapshot()) == {}

    def test_prometheus_text_format(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("repro_runs_total", "runs").inc(2.0, structure="dcache")
        reg.gauge("repro_ratio").set(0.5)
        reg.histogram("repro_wall_seconds", buckets=(1.0, 10.0)).observe(0.5)
        text = reg.to_prometheus()
        assert "# HELP repro_runs_total runs" in text
        assert "# TYPE repro_runs_total counter" in text
        assert 'repro_runs_total{structure="dcache"} 2' in text
        assert "repro_ratio 0.5" in text
        assert 'repro_wall_seconds_bucket{le="1"} 1' in text
        assert 'repro_wall_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_wall_seconds_count 1" in text
        out = reg.write_prometheus(tmp_path / "m.prom")
        assert out.read_text() == text

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total").inc()
        reg.reset()
        assert reg.snapshot() == {}


def _profile_args(profile: bool) -> argparse.Namespace:
    return argparse.Namespace(trace=None, metrics=None, profile=profile)


class TestProfiler:
    """``--profile`` is a table over trace records, not a second hook."""

    def test_disabled_hooks_are_noops(self, capsys):
        seen = []
        result = _run_observed(
            _profile_args(False), "figure",
            lambda: seen.append(current_tracer()) or 7,
        )
        assert result == 7
        assert seen == [NULL_TRACER]  # no tracer, no records, no table
        assert capsys.readouterr().err == ""

    def test_profiling_collects_sections_and_samples(self):
        with Tracer() as t:
            with t.span(
                "engine.map", level="engine", jobs=1, n_cells=2,
                cache_hits=1, cache_misses=1, elapsed_s=1.0, busy_s=0.5,
            ) as sp:
                sp.event("engine.cell", kind="cache_tpi", wall_s=0.5)
                sp.event("engine.cell", kind="cache_tpi", wall_s=0.25)
            with t.span("structure.run", level="structure", structure="dcache"):
                pass
        report = profile_report(t.records)
        assert report.startswith("profile: wall time per section")
        assert (
            "engine.map s000001: 2 cells (1 cached, 1 computed) in 1.000s "
            "on 1 job(s), busy 0.500s, utilization 50%"
        ) in report
        assert "cell:cache_tpi: 0.7500s over 2 run(s)" in report
        assert "structure:dcache:" in report

    def test_empty_report(self):
        assert profile_report([]) == "profile: no sections recorded"

    def test_nested_profiling_restores_previous(self, capsys):
        with Tracer() as outer:
            _run_observed(
                _profile_args(True), "figure", lambda: ExperimentEngine().map([])
            )
            assert current_tracer() is outer
        assert outer.records == []  # the profile used its own tracer
        assert "engine.map s000002: 0 cells" in capsys.readouterr().err


class TestSummaries:
    def _legacy_events(self):
        return [
            {"event": "run_start", "run_id": "r1", "ts": 0.0, "jobs": 2,
             "n_cells": 2, "cache_enabled": True, "cache_dir": "c"},
            {"event": "cell", "run_id": "r1", "ts": 0.0, "index": 0,
             "kind": "cache_tpi", "key": "k", "source": "cache",
             "wall_s": 0.01},
            {"event": "run_end", "run_id": "r1", "ts": 1.0, "jobs": 2,
             "n_cells": 2, "cache_hits": 1, "cache_misses": 1,
             "elapsed_s": 1.0, "busy_s": 0.8, "worker_utilization": 0.4},
        ]

    def test_engine_digest_tolerates_missing_fields(self):
        # A map that raised closes its span before the counters are set.
        with Tracer() as t:
            with pytest.raises(ObservabilityError):
                with t.span("engine.map", level="engine", jobs=2, n_cells=2):
                    raise ObservabilityError("boom")
        text = summarize_trace(t.records)
        assert "engine runs: 1" in text
        assert "2 cells (? cached, ? computed) in ?s on 2 job(s)" in text
        assert "utilization ?" in text  # placeholders, not a KeyError

    def test_engine_digest_without_runs(self):
        with Tracer() as t:
            with t.span("figure", level="run"):
                pass
        assert "engine runs" not in summarize_trace(t.records)
        assert "engine runs" not in profile_report(t.records)

    def test_summarize_path_sniffs_legacy_telemetry(self, tmp_path):
        import json

        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            "\n".join(json.dumps(e) for e in self._legacy_events()) + "\n"
        )
        with pytest.raises(ObservabilityError, match="unknown record shape"):
            summarize_path(path)

    def test_summarize_path_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"neither": 1}\n')
        with pytest.raises(ObservabilityError):
            summarize_path(path)

    def test_summarize_trace_reports_decisions(self):
        with Tracer() as t:
            with t.span("figure", level="run"):
                for i, app in enumerate(("li", "gcc")):
                    with t.span(
                        "interval", level="interval", index=i, app=app
                    ) as sp:
                        with t.span(
                            "candidate", level="candidate",
                            structure="dcache", configuration=2,
                        ):
                            pass
                        with t.span(
                            "reconfigure", level="reconfigure",
                            structure="dcache", trigger="process_select",
                        ):
                            pass
                        sp.set(configuration=2, tpi_ns=0.25 + i * 0.1)
        text = summarize_trace(t.records)
        assert "reconfigurations: 2 total" in text
        assert "process_select: 2" in text
        assert "interval TPI timeline (2 interval(s)):" in text
        assert "[li] config=2 tpi=0.2500 ns" in text
        assert "candidate evaluations: 2 (dcache=2)" in text

    def test_telemetry_summarize_shim_removed(self):
        for module in ("repro.engine.telemetry", "repro.obs.profile"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
