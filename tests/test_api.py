"""The public query facade: repro.api types and execution.

What the CLI and the sweep service share: strictly validated frozen
request/result dataclasses with JSON round trips, and
``run_query``/``run_queries`` routing through the experiment engine
(one batched ``map`` per call).  The figure harnesses read their TPI
tables straight from cell payloads; ``TestHarnessAgreement`` holds
them to the API's cells and ``tpi_ns``.
"""

import json

import pytest

from repro.api import (
    ConfigurationPoint,
    JobState,
    JobStatus,
    OptimizationRequest,
    OptimizationResult,
    request_cell,
    request_cell_key,
    run_queries,
    run_query,
)
from repro.engine.cache import CellKeyer
from repro.engine.engine import ExperimentEngine
from repro.errors import ApiError
from repro.experiments.extended_structures import branch_study, tlb_study
from repro.experiments.queue_study import queue_tpi_table

# Small sizings keep every engine evaluation in this module fast.
N_REFS = 3_000
WARMUP = 500
N_INSTR = 2_000
N_BRANCHES = 2_000


def tiny_request(workload="compress", tenant="anonymous"):
    return OptimizationRequest(
        "dcache", workload, tenant=tenant, n_refs=N_REFS, warmup_refs=WARMUP
    )


class TestRequestValidation:
    def test_round_trips_through_json(self):
        request = OptimizationRequest(
            "bpred", "li", tenant="acme", predictor="bimodal", n_branches=100
        )
        assert OptimizationRequest.from_json(request.to_json()) == request

    def test_sizing_defaults_omitted_from_json(self):
        document = json.loads(OptimizationRequest("tlb", "compress").to_json())
        assert document == {"structure": "tlb", "workload": "compress",
                            "tenant": "anonymous"}

    def test_unknown_structure_rejected(self):
        with pytest.raises(ApiError, match="unknown structure"):
            OptimizationRequest("l2cache", "compress")

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ApiError, match="unknown predictor"):
            OptimizationRequest("bpred", "li", predictor="perceptron")

    def test_unknown_field_rejected(self):
        with pytest.raises(ApiError, match="unknown request field"):
            OptimizationRequest.from_dict(
                {"structure": "tlb", "workload": "compress", "priority": 9}
            )

    def test_bool_sizing_rejected(self):
        with pytest.raises(ApiError, match="got bool"):
            OptimizationRequest("tlb", "compress", n_refs=True)

    def test_negative_sizing_rejected(self):
        with pytest.raises(ApiError, match=">= 0"):
            OptimizationRequest("iqueue", "compress", n_instructions=-1)

    def test_empty_workload_rejected(self):
        with pytest.raises(ApiError, match="non-empty"):
            OptimizationRequest("tlb", "")

    def test_non_object_document_rejected(self):
        with pytest.raises(ApiError, match="JSON object"):
            OptimizationRequest.from_dict(["tlb", "compress"])

    def test_invalid_json_text_rejected(self):
        with pytest.raises(ApiError, match="not valid JSON"):
            OptimizationRequest.from_json("{nope")

    def test_cache_identity_ignores_tenant(self):
        a = tiny_request(tenant="alpha")
        b = tiny_request(tenant="beta")
        assert a != b
        assert a.cache_identity() == b.cache_identity()


class TestCellMapping:
    def test_cell_key_is_tenant_independent(self):
        a = request_cell_key(tiny_request(tenant="alpha"))
        b = request_cell_key(tiny_request(tenant="beta"))
        assert a == b

    def test_distinct_sizings_get_distinct_cells(self):
        small = OptimizationRequest("dcache", "compress", n_refs=1_000)
        large = OptimizationRequest("dcache", "compress", n_refs=2_000)
        assert request_cell(small) != request_cell(large)
        assert request_cell_key(small) != request_cell_key(large)

    def test_unknown_workload_fails_at_cell_build(self):
        with pytest.raises(Exception, match="nonesuch"):
            request_cell(OptimizationRequest("dcache", "nonesuch"))


class TestExecution:
    def test_best_minimises_sweep_tpi(self):
        result = run_query(tiny_request(), engine=ExperimentEngine())
        assert result.best.tpi_ns == min(p.tpi_ns for p in result.sweep)
        assert [p.config for p in result.sweep] == sorted(
            p.config for p in result.sweep
        )

    def test_run_queries_batches_into_one_map(self):
        engine = ExperimentEngine()
        requests = [
            tiny_request("compress"),
            tiny_request("li"),
            OptimizationRequest(
                "iqueue", "compress", n_instructions=N_INSTR
            ),
        ]
        results = run_queries(requests, engine=engine)
        assert engine.stats.runs == 1
        assert engine.stats.cache_misses == len(requests)
        assert [r.request for r in results] == requests

    def test_run_query_equals_batched_result(self):
        request = tiny_request()
        single = run_query(request, engine=ExperimentEngine())
        [batched] = run_queries([request], engine=ExperimentEngine())
        assert single == batched

    def test_result_round_trips_through_json(self):
        result = run_query(tiny_request(), engine=ExperimentEngine())
        again = OptimizationResult.from_json(result.to_json())
        assert again == result
        # bit-exact floats through the round trip
        assert again.best.tpi_ns == result.best.tpi_ns

    def test_bpred_respects_predictor_kind(self):
        gshare = run_query(
            OptimizationRequest("bpred", "li", n_branches=N_BRANCHES),
            engine=ExperimentEngine(),
        )
        bimodal = run_query(
            OptimizationRequest(
                "bpred", "li", predictor="bimodal", n_branches=N_BRANCHES
            ),
            engine=ExperimentEngine(),
        )
        assert gshare.sweep != bimodal.sweep


class TestJobStatus:
    def test_round_trips_through_json(self):
        request = tiny_request()
        point = ConfigurationPoint(config=2, tpi_ns=1.5, ipc=1.0,
                                   cycle_time_ns=1.5)
        status = JobStatus(
            job_id="job-000001-abc",
            tenant="acme",
            state=JobState.DONE,
            request=request,
            result=OptimizationResult(request, point, (point,)),
            error=None,
            source="computed",
            attempts=1,
            queued_s=0.01,
            wall_s=0.5,
        )
        assert JobStatus.from_json(status.to_json()) == status

    def test_terminal_states(self):
        assert JobState.DONE.is_terminal()
        assert JobState.FAILED.is_terminal()
        assert not JobState.QUEUED.is_terminal()
        assert not JobState.RUNNING.is_terminal()


class _RecordingEngine(ExperimentEngine):
    """An engine that keeps the cells of its last ``map``."""

    def map(self, cells, deadline_s=None):
        self.mapped = list(cells)
        return super().map(self.mapped, deadline_s)


#: structure -> its batch harness's table, at the harness's own sizing.
HARNESS_TABLES = {
    "iqueue": lambda engine: queue_tpi_table(engine=engine),
    "tlb": lambda engine: tlb_study(engine=engine).table,
    "bpred": lambda engine: branch_study(engine=engine).table,
}


class TestHarnessAgreement:
    """Batch harnesses and the API: the same cells, the same TPI floats.

    The harnesses read payloads without building API results, so this
    is what keeps their result-cache entries shared with ``repro serve``
    and their tables equal to what ``repro query`` answers.
    """

    @pytest.mark.parametrize("structure", sorted(HARNESS_TABLES))
    def test_harness_table_is_the_api_sweep(self, structure, tmp_path):
        keyer = CellKeyer()
        for run in ("cold", "warm"):
            engine = _RecordingEngine(cache_dir=tmp_path)
            table = HARNESS_TABLES[structure](engine)
            computed = len(table) if run == "cold" else 0
            assert engine.stats.cache_misses == computed, run
            requests = [OptimizationRequest(structure, app) for app in table]
            assert [keyer.key(cell) for cell in engine.mapped] == [
                keyer.key(request_cell(request)) for request in requests
            ], run
            api = ExperimentEngine(cache_dir=tmp_path)
            results = run_queries(requests, engine=api)
            assert api.stats.cache_misses == 0, run
            for request, result in zip(requests, results):
                assert list(table[request.workload].items()) == [
                    (point.config, point.tpi_ns) for point in result.sweep
                ], (run, request.workload)
