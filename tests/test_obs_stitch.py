"""Cross-process trace stitching, critical-path analysis, summaries.

The distributed-tracing acceptance story:

* worker shard files written by :func:`~repro.obs.stitch.shard_tracer`
  merge into the parent trace with parentage intact
  (:func:`~repro.obs.stitch.stitch_shards` +
  :func:`~repro.obs.stitch.validate_parentage`),
* a real pooled engine run (``jobs=2``) yields one trace covering
  ``engine.map`` → ``engine.worker`` → ``cell.evaluate`` across
  process boundaries,
* ``repro obs critical-path`` partitions a root span's wall time into
  named components that sum to the end-to-end duration,
* ``repro obs summarize`` renders multi-trace (service) files per
  trace instead of mashing them together.
"""

import json
import os
import pickle
import tempfile

import pytest

from repro.engine.cells import evaluate_chunk, queue_tpi_cell
from repro.engine.engine import ExperimentEngine
from repro.errors import ObservabilityError
from repro.obs.critical import critical_path, format_report
from repro.obs.stitch import (
    SHARD_SUFFIX,
    TraceContext,
    read_shard,
    shard_path,
    shard_tracer,
    stitch_shards,
    validate_parentage,
)
from repro.obs.summarize import summarize_trace
from repro.obs.trace import Tracer
from repro.workloads.suite import get_profile

N_INSTR = 2_000


def _small_cells(n: int = 4):
    compress = get_profile("compress")
    return [queue_tpi_cell(compress, N_INSTR + 100 * i, (16, 32)) for i in range(n)]


# ---------------------------------------------------------------------------
# shard plumbing
# ---------------------------------------------------------------------------


class TestShards:
    def test_trace_context_is_picklable(self):
        context = TraceContext(trace_id="abc123", parent_id="s000001")
        assert pickle.loads(pickle.dumps(context)) == context

    def test_shard_tracer_joins_parent_trace(self, tmp_path):
        context = TraceContext(trace_id="abc123", parent_id="anchor")
        path = shard_path(tmp_path, "anchor", chunk=0, attempt=0)
        with shard_tracer(context, path) as tracer:
            with tracer.span("engine.worker", level="engine"):
                pass
        [record] = read_shard(path)
        assert record["trace_id"] == "abc123"
        assert record["parent"] == "anchor"  # stack root -> anchor
        assert record["id"].startswith("w")

    def test_shard_ids_unique_across_shards(self, tmp_path):
        context = TraceContext(trace_id="abc123", parent_id="anchor")
        ids = set()
        for chunk in range(2):
            path = shard_path(tmp_path, "anchor", chunk=chunk, attempt=0)
            with shard_tracer(context, path) as tracer:
                with tracer.span("engine.worker", level="engine"):
                    pass
            ids.update(r["id"] for r in read_shard(path))
        assert len(ids) == 2  # same pid, same counter start, distinct ids

    def test_read_shard_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / f"torn{SHARD_SUFFIX}"
        good = {"record": "span", "id": "w1", "parent": "anchor"}
        path.write_text(json.dumps(good) + '\n{"record": "spa', encoding="utf-8")
        assert read_shard(path) == [good]

    def test_stitch_merges_two_shards(self, tmp_path):
        context = TraceContext(trace_id="abc123", parent_id="anchor")
        for chunk in range(2):
            with shard_tracer(
                context, shard_path(tmp_path, "anchor", chunk=chunk, attempt=0)
            ) as tracer:
                with tracer.span("engine.worker", level="engine", chunk=chunk):
                    with tracer.span("cell.evaluate", level="engine"):
                        pass
        result = stitch_shards(tmp_path, anchors={"anchor"})
        assert result.shards == 2
        assert result.orphans == 0
        assert len(result.records) == 4
        roots = [r for r in result.records if r["parent"] == "anchor"]
        assert [r["name"] for r in roots] == ["engine.worker", "engine.worker"]

    def test_stitch_takes_only_its_own_shards(self, tmp_path):
        # Maps of one engine share a shard directory: each stitches and
        # removes only the shards named for its own span.
        for anchor in ("s000001", "s000002"):
            with shard_tracer(
                TraceContext(trace_id="abc123", parent_id=anchor),
                shard_path(tmp_path, anchor, chunk=0, attempt=0),
            ) as tracer:
                with tracer.span("engine.worker", level="engine"):
                    pass
        result = stitch_shards(tmp_path, anchors={"s000001"})
        assert result.shards == 1
        assert [r["parent"] for r in result.records] == ["s000001"]
        assert [p.name.split(".")[0] for p in tmp_path.iterdir()] == ["s000002"]

    def test_stitch_drops_orphans_from_dead_worker(self, tmp_path):
        context = TraceContext(trace_id="abc123", parent_id="anchor")
        with shard_tracer(
            context, shard_path(tmp_path, "anchor", chunk=0, attempt=0)
        ) as tracer:
            with tracer.span("engine.worker", level="engine"):
                pass
        # A killed worker's shard: the child span closed but the
        # enclosing engine.worker span never did, so its parent id
        # resolves to nothing.
        orphan = {
            "record": "span", "name": "cell.evaluate", "level": "engine",
            "trace_id": "abc123", "id": "wdead-000002",
            "parent": "wdead-000001", "ts": 1.0, "dur_s": 0.1, "attrs": {},
        }
        path = tmp_path / f"anchor.dead{SHARD_SUFFIX}"
        path.write_text(json.dumps(orphan) + "\n", encoding="utf-8")
        result = stitch_shards(tmp_path, anchors={"anchor"})
        assert result.orphans == 1
        assert [r["name"] for r in result.records] == ["engine.worker"]

    def test_stitched_records_adopt_into_parent_trace(self, tmp_path):
        with Tracer() as tracer:
            with tracer.span("engine.map", level="engine") as anchor:
                context = TraceContext(tracer.trace_id, anchor.id)
                with shard_tracer(
                    context, shard_path(tmp_path, anchor.id, chunk=0, attempt=0)
                ) as worker:
                    with worker.span("engine.worker", level="engine"):
                        pass
                stitched = stitch_shards(tmp_path, anchors={anchor.id})
                assert tracer.adopt(stitched.records) == 1
        validate_parentage(tracer.records)


# ---------------------------------------------------------------------------
# validate_parentage
# ---------------------------------------------------------------------------


class TestValidateParentage:
    def _span(self, tid, sid, parent, name="section.x"):
        return {
            "record": "span", "name": name, "level": "section",
            "trace_id": tid, "id": sid, "parent": parent,
            "ts": 1.0, "dur_s": 0.1, "attrs": {},
        }

    def test_rooted_traces_pass(self):
        records = [
            self._span("t1", "a", None),
            self._span("t1", "b", "a"),
            self._span("t2", "c", None),
        ]
        validate_parentage(records)

    def test_floating_trace_rejected(self):
        # Every span of t2 claims a parent, but none is a root: the
        # subtree floats (an unstitched shard smuggled into the file).
        records = [
            self._span("t1", "a", None),
            self._span("t2", "b", "c"),
            self._span("t2", "c", "b"),
        ]
        with pytest.raises(ObservabilityError, match="no root span"):
            validate_parentage(records)


# ---------------------------------------------------------------------------
# pooled engine run: the cross-process acceptance path
# ---------------------------------------------------------------------------


class TestEngineStitching:
    def test_pooled_run_stitches_worker_spans(self):
        cells = _small_cells(4)
        with Tracer() as tracer:
            ExperimentEngine(jobs=2, chunk_size=1).map(cells)
        validate_parentage(tracer.records)
        spans = [r for r in tracer.records if r["record"] == "span"]
        by_name = {}
        for s in spans:
            by_name.setdefault(s["name"], []).append(s)
        assert len(by_name["engine.map"]) == 1
        assert len(by_name["engine.worker"]) == 4  # one per chunk
        assert len(by_name["cell.evaluate"]) == 4
        map_id = by_name["engine.map"][0]["id"]
        assert all(s["parent"] == map_id for s in by_name["engine.worker"])
        # Worker spans crossed a process boundary: shard-prefixed ids
        # and (with jobs=2, 4 chunks) recorded worker pids.
        assert all(s["id"].startswith("w") for s in by_name["engine.worker"])
        attrs = by_name["engine.map"][0]["attrs"]
        assert attrs["worker_shards"] == 4
        assert attrs["shard_orphans"] == 0

    def test_pooled_run_names_the_pool_legs_around_each_worker_span(self):
        # A jobs=1 pooled engine (the service's) ships even one chunk to
        # its worker: the pool's boot and each chunk's send and return
        # legs are spans under engine.map, abutting the worker span.
        with ExperimentEngine(pooled=True) as engine, Tracer() as tracer:
            engine.map(_small_cells(1))
            engine.map(_small_cells(2)[1:])  # the pool is reused
        validate_parentage(tracer.records)
        spans = [r for r in tracer.records if r["record"] == "span"]
        maps = [s for s in spans if s["name"] == "engine.map"]
        assert [s["name"] for s in spans].count("engine.pool_start") == 1
        for anchor in maps:
            kids = {s["name"]: s for s in spans if s["parent"] == anchor["id"]}
            worker = kids["engine.worker"]
            send, ret = kids["engine.pool_send"], kids["engine.pool_return"]
            assert send["ts"] + send["dur_s"] == pytest.approx(worker["ts"])
            assert ret["ts"] == pytest.approx(worker["ts"] + worker["dur_s"])
            assert "engine.stitch" in kids

    def test_one_shard_directory_per_engine(self, monkeypatch):
        made = []
        mkdtemp = tempfile.mkdtemp

        def counting_mkdtemp(*args, **kwargs):
            path = mkdtemp(*args, **kwargs)
            if str(kwargs.get("prefix", "")).startswith("repro-trace-shards"):
                made.append(path)
            return path

        monkeypatch.setattr(tempfile, "mkdtemp", counting_mkdtemp)
        with Tracer() as tracer:
            with ExperimentEngine(pooled=True) as engine:
                for _ in range(20):
                    engine.map(_small_cells(1))
                assert len(made) == 1
                assert os.listdir(made[0]) == []  # each map took its shards
        assert not os.path.exists(made[0])
        maps = [
            r for r in tracer.records
            if r["record"] == "span" and r["name"] == "engine.map"
        ]
        assert [m["attrs"]["worker_shards"] for m in maps] == [1] * 20

    def test_serial_run_traces_workers_inline(self):
        cells = _small_cells(2)
        with Tracer() as tracer:
            ExperimentEngine(jobs=1).map(cells)
        validate_parentage(tracer.records)
        names = [r["name"] for r in tracer.records if r["record"] == "span"]
        assert names.count("cell.evaluate") == 2
        assert "engine.worker" in names

    def test_cell_spans_carry_cache_and_retry_attrs(self):
        with Tracer() as tracer:
            evaluate_chunk(_small_cells(1), chunk=0, attempt=1)
        cell_spans = [
            r for r in tracer.records
            if r["record"] == "span" and r["name"] == "cell.evaluate"
        ]
        assert cell_spans and all(s["attrs"]["retry"] for s in cell_spans)
        assert all(s["attrs"]["cached"] is False for s in cell_spans)


# ---------------------------------------------------------------------------
# critical-path decomposition
# ---------------------------------------------------------------------------


def _span(tid, sid, parent, name, ts, dur):
    return {
        "record": "span", "name": name, "level": "section",
        "trace_id": tid, "id": sid, "parent": parent,
        "ts": ts, "dur_s": dur, "attrs": {},
    }


class TestCriticalPath:
    def test_components_sum_to_root_duration(self):
        records = [
            _span("t", "root", None, "service.request", 0.0, 10.0),
            _span("t", "wait", "root", "service.queue_wait", 0.0, 2.0),
            _span("t", "batch", "root", "broker.batch", 2.0, 7.0),
            _span("t", "map", "batch", "engine.map", 2.5, 6.0),
        ]
        report = critical_path(records)
        assert report.root_name == "service.request"
        assert report.total_s == pytest.approx(10.0)
        assert sum(report.components.values()) == pytest.approx(10.0)
        assert report.components["engine.map"] == pytest.approx(6.0)
        assert report.components["service.queue_wait"] == pytest.approx(2.0)
        # gaps: 1s inside root, 0.5+0.5 inside batch -> coverage 0.8
        assert report.coverage == pytest.approx(0.8)
        assert [s.name for s in report.chain] == [
            "service.request", "broker.batch", "engine.map",
        ]

    def test_parallel_siblings_count_once(self):
        records = [
            _span("t", "root", None, "engine.map", 0.0, 4.0),
            _span("t", "w1", "root", "engine.worker", 0.0, 4.0),
            _span("t", "w2", "root", "engine.worker", 0.0, 3.0),
        ]
        report = critical_path(records)
        # w2 overlaps the critical worker entirely: no double counting.
        assert report.components["engine.worker"] == pytest.approx(4.0)
        assert report.coverage == pytest.approx(1.0)

    def test_trace_id_selects_among_traces(self):
        records = [
            _span("a", "r1", None, "service.request", 0.0, 1.0),
            _span("b", "r2", None, "service.request", 0.0, 5.0),
        ]
        assert critical_path(records).trace_id == "b"  # longest root wins
        assert critical_path(records, trace_id="a").trace_id == "a"
        with pytest.raises(ObservabilityError, match="no spans"):
            critical_path(records, trace_id="zzz")

    def test_format_report_names_the_acceptance_number(self):
        records = [_span("t", "root", None, "service.request", 0.0, 1.0)]
        text = format_report(critical_path(records))
        assert "attributed below the critical path: 100.0%" in text

    def test_service_trace_attributes_95_percent(self, tmp_path):
        """The end-to-end acceptance number on a real service trace.

        Coverage loss is fixed scheduling overhead (handler gaps, batch
        dispatch), so the request is sized large enough to amortize it;
        a loaded CI box still gets a couple of fresh attempts.
        """
        from repro.api import OptimizationRequest
        from repro.service import ServiceClient, ServiceConfig, ServiceThread

        report = None
        for attempt in range(3):
            trace_id = f"acceptance{attempt:03d}"
            with Tracer() as tracer:
                engine = ExperimentEngine()
                with ServiceThread(engine, ServiceConfig(port=0)) as svc:
                    client = ServiceClient(svc.url, trace_id=trace_id)
                    client.optimize(OptimizationRequest(
                        "dcache", "compress", n_refs=20_000, warmup_refs=500,
                    ))
            validate_parentage(tracer.records)
            report = critical_path(tracer.records, trace_id=trace_id)
            assert report.root_name == "service.request"
            # ts comes from time.time(), dur_s from perf_counter: windows
            # can disagree by clock skew, so the partition is near-exact.
            assert sum(report.components.values()) == pytest.approx(
                report.total_s, rel=0.01
            )
            if report.coverage >= 0.95:
                break
        assert report is not None and report.coverage >= 0.95


# ---------------------------------------------------------------------------
# multi-trace summarize (regression: service files mix many traces)
# ---------------------------------------------------------------------------


class TestMultiTraceSummarize:
    def test_single_trace_output_has_no_per_trace_sections(self):
        records = [_span("t", "root", None, "service.request", 0.0, 1.0)]
        assert "--- trace" not in summarize_trace(records)

    def test_stitched_two_process_trace_summarized_per_trace(self, tmp_path):
        """Two traces, one stitched across processes, render separately."""
        context = TraceContext(trace_id="stitched0001", parent_id=None)
        with Tracer(trace_id="stitched0001") as tracer:
            with tracer.span("engine.map", level="engine") as anchor:
                for chunk in range(2):
                    with shard_tracer(
                        TraceContext("stitched0001", anchor.id),
                        shard_path(tmp_path, anchor.id, chunk=chunk, attempt=0),
                    ) as worker:
                        with worker.span("engine.worker", level="engine"):
                            pass
                tracer.adopt(
                    stitch_shards(tmp_path, anchors={anchor.id}).records
                )
            with tracer.span("service.request"):
                pass
        other = [_span("othertrace00", "x1", None, "service.request", 0.0, 1.0)]
        records = tracer.records + other
        validate_parentage(records)
        text = summarize_trace(records)
        assert "--- trace stitched0001: 4 span(s)" in text
        assert "2 worker shard(s)" in text
        assert "--- trace othertrace00: 1 span(s)" in text
