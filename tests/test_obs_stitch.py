"""Cross-process trace stitching, critical-path analysis, summaries.

The distributed-tracing acceptance story:

* the span records a worker's :meth:`~repro.obs.stitch.TraceContext.tracer`
  returns with a chunk merge into the parent trace with parentage intact
  (:func:`~repro.obs.stitch.stitch_records` +
  :func:`~repro.obs.stitch.validate_parentage`),
* a real pooled engine run (``jobs=2``) yields one trace covering
  ``engine.map`` → ``engine.worker`` → ``cell.evaluate`` across
  process boundaries,
* ``repro obs critical-path`` partitions a root span's wall time into
  named components that sum to the end-to-end duration,
* ``repro obs summarize`` renders multi-trace (service) files per
  trace instead of mashing them together.
"""

import pickle

import pytest

from repro.engine.cells import evaluate_chunk, queue_tpi_cell
from repro.engine.engine import ExperimentEngine
from repro.errors import ObservabilityError
from repro.obs.critical import critical_path, format_report
from repro.obs.stitch import TraceContext, stitch_records, validate_parentage
from repro.obs.summarize import summarize_trace
from repro.obs.trace import Tracer
from repro.workloads.suite import get_profile

N_INSTR = 2_000


def _small_cells(n: int = 4):
    compress = get_profile("compress")
    return [queue_tpi_cell(compress, N_INSTR + 100 * i, (16, 32)) for i in range(n)]


def _worker_records(context: TraceContext, chunk: int = 0, cells: int = 0):
    """The records one chunk evaluation returns: an ``engine.worker``
    span with ``cells`` ``cell.evaluate`` spans below it."""
    with context.tracer() as tracer:
        with tracer.span("engine.worker", level="engine", chunk=chunk):
            for _ in range(cells):
                with tracer.span("cell.evaluate", level="engine"):
                    pass
    return tracer.records


# ---------------------------------------------------------------------------
# worker records and stitching
# ---------------------------------------------------------------------------


class TestWorkerRecords:
    def test_trace_context_is_picklable(self):
        context = TraceContext(trace_id="abc123", parent_id="s000001")
        assert pickle.loads(pickle.dumps(context)) == context

    def test_worker_tracer_joins_parent_trace(self):
        context = TraceContext(trace_id="abc123", parent_id="anchor")
        tracer = context.tracer()
        assert tracer.path is None  # in memory: the records are the result
        with tracer:
            with tracer.span("engine.worker", level="engine"):
                pass
        [record] = tracer.records
        assert record["trace_id"] == "abc123"
        assert record["parent"] == "anchor"  # stack root -> anchor
        assert record["id"].startswith("w")

    def test_worker_ids_unique_across_chunks(self):
        context = TraceContext(trace_id="abc123", parent_id="anchor")
        ids = {
            r["id"] for chunk in range(2) for r in _worker_records(context, chunk)
        }
        assert len(ids) == 2  # same pid, same counter start, distinct ids

    def test_stitch_merges_two_chunks(self):
        context = TraceContext(trace_id="abc123", parent_id="anchor")
        records = [
            r for chunk in range(2) for r in _worker_records(context, chunk, 1)
        ]
        kept, dropped = stitch_records(records, context)
        assert dropped == 0
        assert kept == records
        roots = [r for r in kept if r["parent"] == "anchor"]
        assert [r["name"] for r in roots] == ["engine.worker", "engine.worker"]

    def test_stitch_takes_only_its_own_map(self):
        # Records of another map's anchor, or of another trace, are not
        # this map's to adopt.
        mine = TraceContext(trace_id="abc123", parent_id="s000001")
        records = (
            _worker_records(mine)
            + _worker_records(TraceContext("abc123", "s000002"))
            + _worker_records(TraceContext("zzz999", "s000001"))
        )
        kept, dropped = stitch_records(records, mine)
        assert [(r["trace_id"], r["parent"]) for r in kept] == [
            ("abc123", "s000001")
        ]
        assert dropped == 2

    def test_stitch_drops_records_outside_the_anchor_tree(self):
        context = TraceContext(trace_id="abc123", parent_id="anchor")
        span = {
            "record": "span", "name": "cell.evaluate", "level": "engine",
            "trace_id": "abc123", "ts": 1.0, "dur_s": 0.1, "attrs": {},
        }
        bad = [
            # The child of a span that never closed: its parent resolves
            # to nothing.
            {**span, "id": "wdead-000002", "parent": "wdead-000001"},
            # Well-parented but malformed (a remote worker's answer is
            # outside input).
            {"record": "span", "name": "bogus", "parent": "anchor",
             "id": "wbad-1", "trace_id": "abc123"},
            # A span posing as the anchor itself.
            {**span, "id": "anchor", "parent": "anchor"},
            "not a record",
        ]
        kept, dropped = stitch_records(_worker_records(context) + bad, context)
        assert dropped == len(bad)
        assert [r["name"] for r in kept] == ["engine.worker"]

    def test_stitched_records_adopt_into_parent_trace(self):
        with Tracer() as tracer:
            with tracer.span("engine.map", level="engine") as anchor:
                context = TraceContext(tracer.trace_id, anchor.id)
                kept, _ = stitch_records(_worker_records(context), context)
                assert tracer.adopt(kept) == 1
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
        # subtree floats (unstitched worker spans smuggled into the file).
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
        # Worker spans crossed a process boundary: worker-tracer ids,
        # returned with each chunk's result and all adopted.
        assert all(s["id"].startswith("w") for s in by_name["engine.worker"])
        attrs = by_name["engine.map"][0]["attrs"]
        assert attrs["worker_spans"] == 8
        assert attrs["dropped_spans"] == 0

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

    def test_stitched_two_process_trace_summarized_per_trace(self):
        """Two traces, one stitched across processes, render separately."""
        with Tracer(trace_id="stitched0001") as tracer:
            with tracer.span("engine.map", level="engine") as anchor:
                context = TraceContext("stitched0001", anchor.id)
                records = [
                    r for chunk in range(2) for r in _worker_records(context, chunk)
                ]
                tracer.adopt(stitch_records(records, context)[0])
            with tracer.span("service.request"):
                pass
        other = [_span("othertrace00", "x1", None, "service.request", 0.0, 1.0)]
        records = tracer.records + other
        validate_parentage(records)
        text = summarize_trace(records)
        assert "--- trace stitched0001: 4 span(s)" in text
        assert "2 worker chunk(s)" in text
        assert "--- trace othertrace00: 1 span(s)" in text
