"""Tests for repro.analysis — the domain-aware static analyser.

Covers the engine mechanics (suppressions, per-path allowlists, JSON
output, exit codes, parse failures), one triggering fixture plus one
noqa-suppressed fixture per rule, the self-host guarantee (the linter
runs clean over ``src/``), and regression tests for the violations the
first self-host run surfaced and fixed.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    LintConfig,
    lint_paths,
    load_config,
    main as lint_main,
    render_human,
    render_json,
    rule_ids,
)
from repro.analysis.registry import get_rule, register
from repro.analysis.runner import PARSE_RULE_ID
from repro.analysis.suppress import suppressed_rules
from repro.errors import AnalysisError

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path, source, *, relpath="mod.py", select=None, config=None):
    """Lint one dedented source fixture written under ``tmp_path``."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths(
        [path], select=select, config=config if config is not None else LintConfig()
    )


def finding_rules(result):
    return [f.rule_id for f in result.findings]


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------


class TestRunnerMechanics:
    def test_clean_file_exits_zero(self, tmp_path):
        result = lint_source(tmp_path, "x_ns = 1.0\n")
        assert result.clean
        assert result.exit_code() == EXIT_CLEAN
        assert result.files_checked == 1

    def test_finding_exits_one(self, tmp_path):
        result = lint_source(tmp_path, "import random\n")
        assert finding_rules(result) == ["RPR001"]
        assert result.exit_code() == EXIT_FINDINGS

    def test_unparseable_file_is_rpr000_not_a_crash(self, tmp_path):
        result = lint_source(tmp_path, "def broken(:\n")
        assert finding_rules(result) == [PARSE_RULE_ID]
        assert result.exit_code() == EXIT_FINDINGS

    def test_broken_file_does_not_hide_other_findings(self, tmp_path):
        (tmp_path / "bad.py").write_text("def broken(:\n")
        (tmp_path / "worse.py").write_text("import random\n")
        result = lint_paths([tmp_path], config=LintConfig())
        assert sorted(finding_rules(result)) == [PARSE_RULE_ID, "RPR001"]

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError):
            lint_paths(["/no/such/path-anywhere"], config=LintConfig())

    def test_select_restricts_rules(self, tmp_path):
        source = "import random\nimport time\nt = time.time()\n"
        result = lint_source(tmp_path, source, select=["RPR002"])
        assert finding_rules(result) == ["RPR002"]
        assert result.rule_ids == ("RPR002",)

    def test_unknown_select_rule_raises(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n")
        with pytest.raises(AnalysisError):
            lint_paths([tmp_path / "m.py"], select=["RPR999"], config=LintConfig())

    def test_all_eight_rules_registered(self):
        # The original eight file rules, less RPR007: it only policed
        # entry points that are now deleted, so it was retired with them.
        ids = set(rule_ids())
        assert ids >= {f"RPR00{i}" for i in range(1, 9)} - {"RPR007"}
        assert "RPR007" not in ids

    def test_findings_are_sorted_and_clickable(self, tmp_path):
        source = "import time\na = time.time()\nb = time.time()\n"
        result = lint_source(tmp_path, source)
        lines = [f.line for f in result.findings]
        assert lines == sorted(lines)
        human = render_human(result)
        assert "mod.py:2:" in human and "RPR002" in human

    def test_json_output_schema(self, tmp_path):
        result = lint_source(tmp_path, "import random  # repro: noqa[RPR001]\n")
        doc = json.loads(render_json(result))
        assert set(doc) == {
            "version", "files_checked", "rules", "findings", "suppressed", "timings",
        }
        assert doc["version"] == 3
        assert doc["files_checked"] == 1
        assert doc["findings"] == []
        assert len(doc["suppressed"]) == 1
        assert doc["suppressed"][0]["rule"] == "RPR001"
        assert set(doc["timings"]) == {"total_s", "file_pass_s", "project_pass_s"}

    def test_main_reports_errors_on_exit_two(self, tmp_path, capsys):
        assert lint_main(["/no/such/path-anywhere"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_main_list_rules(self, capsys):
        assert lint_main([], list_rules=True) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rid in rule_ids():
            assert rid in out


class TestSuppressions:
    def test_named_suppression(self, tmp_path):
        result = lint_source(tmp_path, "import random  # repro: noqa[RPR001]\n")
        assert result.clean
        assert [f.rule_id for f in result.suppressed] == ["RPR001"]

    def test_suppression_is_rule_specific(self, tmp_path):
        # The comment waives RPR002; the RPR001 finding must survive.
        result = lint_source(
            tmp_path, "import random  # repro: noqa[RPR002]\n"
        )
        assert finding_rules(result) == ["RPR001"]

    def test_multiple_rules_one_comment(self):
        assert suppressed_rules(
            "x = 1  # repro: noqa[RPR001, RPR002]"
        ) == frozenset({"RPR001", "RPR002"})

    def test_no_blanket_form(self):
        assert suppressed_rules("x = 1  # repro: noqa") == frozenset()

    def test_trailing_justification_allowed(self):
        line = "x = t()  # repro: noqa[RPR002] wall time is the payload here"
        assert suppressed_rules(line) == frozenset({"RPR002"})


class TestConfig:
    def _config(self, tmp_path, body):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent(body), encoding="utf-8")
        return load_config(pyproject)

    def test_per_path_ignores_allowlist(self, tmp_path):
        config = self._config(
            tmp_path,
            """
            [tool.repro.lint.per-path-ignores]
            "pkg/obs/*" = ["RPR002"]
            """,
        )
        result = lint_source(
            tmp_path,
            "import time\nt = time.time()\n",
            relpath="pkg/obs/clockwork.py",
            config=config,
        )
        assert result.clean

    def test_ignore_does_not_leak_to_other_paths(self, tmp_path):
        config = self._config(
            tmp_path,
            """
            [tool.repro.lint.per-path-ignores]
            "pkg/obs/*" = ["RPR002"]
            """,
        )
        result = lint_source(
            tmp_path,
            "import time\nt = time.time()\n",
            relpath="pkg/core/clockwork.py",
            config=config,
        )
        assert finding_rules(result) == ["RPR002"]

    def test_select_from_config(self, tmp_path):
        config = self._config(
            tmp_path,
            """
            [tool.repro.lint]
            select = ["RPR001"]
            """,
        )
        result = lint_source(
            tmp_path, "import time\nt = time.time()\n", config=config
        )
        assert result.clean  # RPR002 not selected

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(AnalysisError, match="unknown"):
            self._config(
                tmp_path,
                """
                [tool.repro.lint]
                slect = ["RPR001"]
                """,
            )

    def test_malformed_toml_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[tool.repro.lint\n", encoding="utf-8")
        with pytest.raises(AnalysisError, match="TOML"):
            load_config(pyproject)

    def test_non_string_rule_list_rejected(self, tmp_path):
        with pytest.raises(AnalysisError, match="list of rule-id strings"):
            self._config(
                tmp_path,
                """
                [tool.repro.lint]
                select = [1, 2]
                """,
            )

    def test_missing_pyproject_is_default_config(self):
        config = load_config(None)
        assert config.select == frozenset()
        assert config.per_path_ignores == ()


class TestRegistry:
    def test_bad_rule_id_rejected(self):
        with pytest.raises(AnalysisError):

            @register
            class BadId:  # pragma: no cover - rejected at decoration
                rule_id = "XXX1"
                title = "bad"

    def test_duplicate_rule_id_rejected(self):
        with pytest.raises(AnalysisError):

            @register
            class Duplicate:  # pragma: no cover - rejected at decoration
                rule_id = "RPR001"
                title = "duplicate"

    def test_get_rule_unknown(self):
        with pytest.raises(AnalysisError):
            get_rule("RPR999")


# ---------------------------------------------------------------------------
# per-rule fixtures: one trigger, one suppression, one negative
# ---------------------------------------------------------------------------


class TestRPR001UnseededRandom:
    def test_stdlib_random_import_flagged(self, tmp_path):
        result = lint_source(tmp_path, "import random\n")
        assert finding_rules(result) == ["RPR001"]

    def test_legacy_numpy_global_flagged(self, tmp_path):
        source = """
        import numpy as np
        np.random.seed(0)
        draws = np.random.normal(size=4)
        """
        result = lint_source(tmp_path, source)
        assert finding_rules(result) == ["RPR001", "RPR001"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        source = """
        import numpy as np
        rng = np.random.default_rng()
        """
        result = lint_source(tmp_path, source)
        assert finding_rules(result) == ["RPR001"]

    def test_seeded_default_rng_clean(self, tmp_path):
        source = """
        import numpy as np
        rng = np.random.default_rng(1234)
        """
        assert lint_source(tmp_path, source).clean

    def test_suppressed(self, tmp_path):
        result = lint_source(
            tmp_path, "import random  # repro: noqa[RPR001]\n"
        )
        assert result.clean and result.suppressed


class TestRPR002WallClock:
    def test_time_time_flagged(self, tmp_path):
        result = lint_source(tmp_path, "import time\nt0 = time.time()\n")
        assert finding_rules(result) == ["RPR002"]

    def test_perf_counter_from_import_flagged(self, tmp_path):
        source = """
        from time import perf_counter
        t0 = perf_counter()
        """
        result = lint_source(tmp_path, source)
        assert finding_rules(result) == ["RPR002"]

    def test_datetime_now_flagged(self, tmp_path):
        source = """
        import datetime
        stamp = datetime.datetime.now()
        """
        result = lint_source(tmp_path, source)
        assert finding_rules(result) == ["RPR002"]

    def test_sleep_is_not_a_clock_read(self, tmp_path):
        assert lint_source(tmp_path, "import time\ntime.sleep(0.1)\n").clean

    def test_suppressed(self, tmp_path):
        source = (
            "import time\n"
            "t0 = time.time()  # repro: noqa[RPR002] profiling hook\n"
        )
        result = lint_source(tmp_path, source)
        assert result.clean and result.suppressed


class TestRPR003UnitSuffix:
    def test_unsuffixed_time_param_flagged(self, tmp_path):
        result = lint_source(tmp_path, "def cost(latency):\n    return latency\n")
        assert finding_rules(result) == ["RPR003"]

    def test_unsuffixed_function_name_flagged(self, tmp_path):
        result = lint_source(tmp_path, "def cycle_time():\n    return 1.0\n")
        assert finding_rules(result) == ["RPR003"]

    def test_suffixed_names_clean(self, tmp_path):
        source = """
        def cost_ns(latency_cycles, cycle_time_ns):
            return latency_cycles * cycle_time_ns
        """
        assert lint_source(tmp_path, source).clean

    def test_mixed_unit_addition_flagged(self, tmp_path):
        result = lint_source(tmp_path, "total = delay_ns + delay_cycles\n")
        assert finding_rules(result) == ["RPR003"]

    def test_multiplication_is_a_conversion(self, tmp_path):
        assert lint_source(tmp_path, "t = latency_cycles * cycle_ns\n").clean

    def test_seconds_alias_canonicalised(self, tmp_path):
        # _seconds and _s are the same unit; adding them is fine.
        assert lint_source(tmp_path, "t = wall_seconds + elapsed_s\n").clean

    def test_suppressed(self, tmp_path):
        result = lint_source(
            tmp_path,
            "total = delay_ns + delay_cycles  # repro: noqa[RPR003]\n",
        )
        assert result.clean and result.suppressed


class TestRPR004BroadExcept:
    def test_bare_except_flagged(self, tmp_path):
        source = """
        try:
            work()
        except:
            pass
        """
        result = lint_source(tmp_path, source)
        assert finding_rules(result) == ["RPR004"]

    def test_except_exception_flagged_even_in_tuple(self, tmp_path):
        source = """
        try:
            work()
        except (ValueError, Exception):
            pass
        """
        result = lint_source(tmp_path, source)
        assert finding_rules(result) == ["RPR004"]

    def test_typed_except_clean(self, tmp_path):
        source = """
        try:
            work()
        except ValueError:
            pass
        """
        assert lint_source(tmp_path, source).clean

    def test_suppressed(self, tmp_path):
        source = """
        try:
            work()
        except BaseException:  # repro: noqa[RPR004] cleanup-and-reraise
            raise
        """
        result = lint_source(tmp_path, source)
        assert result.clean and result.suppressed


class TestRPR005TypedRaise:
    def test_builtin_raise_in_core_flagged(self, tmp_path):
        result = lint_source(
            tmp_path,
            "raise ValueError('bad config')\n",
            relpath="repro/core/mod.py",
        )
        assert finding_rules(result) == ["RPR005"]

    def test_same_raise_outside_core_clean(self, tmp_path):
        result = lint_source(
            tmp_path,
            "raise ValueError('bad config')\n",
            relpath="repro/experiments/mod.py",
        )
        assert result.clean

    def test_prefix_match_respects_dot_boundary(self, tmp_path):
        # repro.core_extras is NOT repro.core.
        result = lint_source(
            tmp_path,
            "raise ValueError('x')\n",
            relpath="repro/core_extras/mod.py",
        )
        assert result.clean

    def test_not_implemented_allowed(self, tmp_path):
        result = lint_source(
            tmp_path,
            "raise NotImplementedError\n",
            relpath="repro/core/mod.py",
        )
        assert result.clean

    def test_suppressed(self, tmp_path):
        result = lint_source(
            tmp_path,
            "raise KeyError('k')  # repro: noqa[RPR005]\n",
            relpath="repro/cache/mod.py",
        )
        assert result.clean and result.suppressed


class TestRPR006ObservabilityNaming:
    def test_unregistered_span_flagged(self, tmp_path):
        result = lint_source(tmp_path, "tracer.span('bogus_span_name')\n")
        assert finding_rules(result) == ["RPR006"]

    def test_registered_span_clean(self, tmp_path):
        assert lint_source(tmp_path, "tracer.span('interval')\n").clean

    def test_unregistered_event_flagged(self, tmp_path):
        result = lint_source(tmp_path, "tracer.event('controller.bogus')\n")
        assert finding_rules(result) == ["RPR006"]

    def test_registered_event_clean(self, tmp_path):
        assert lint_source(tmp_path, "tracer.event('controller.choose')\n").clean

    def test_counter_must_end_total(self, tmp_path):
        result = lint_source(tmp_path, "m.counter('repro_cells')\n")
        assert finding_rules(result) == ["RPR006"]

    def test_gauge_must_not_end_total(self, tmp_path):
        result = lint_source(tmp_path, "m.gauge('repro_depth_total')\n")
        assert finding_rules(result) == ["RPR006"]

    def test_well_formed_metrics_clean(self, tmp_path):
        source = """
        m.counter('repro_engine_cache_hits_total')
        m.gauge('repro_engine_cache_hit_ratio')
        m.histogram('repro_service_request_seconds')
        """
        assert lint_source(tmp_path, source).clean

    def test_unregistered_counter_flagged(self, tmp_path):
        # Well-shaped but not in METRIC_NAMES: still a lint error.
        result = lint_source(tmp_path, "m.counter('repro_bogus_total')\n")
        assert finding_rules(result) == ["RPR006"]
        assert "METRIC_NAMES" in result.findings[0].message

    def test_unregistered_histogram_flagged(self, tmp_path):
        result = lint_source(tmp_path, "m.histogram('repro_bogus_seconds')\n")
        assert finding_rules(result) == ["RPR006"]
        assert "METRIC_NAMES" in result.findings[0].message

    def test_new_tracing_span_names_registered(self, tmp_path):
        source = """
        tracer.span('service.request')
        tracer.span('service.queue_wait')
        tracer.span('broker.batch', level='engine')
        tracer.span('engine.worker', level='engine')
        tracer.span('cell.evaluate')
        """
        assert lint_source(tmp_path, source).clean

    def test_service_robustness_names_registered(self, tmp_path):
        # The crash-safety PR's new events and metrics (journal,
        # breaker, deadlines, recovery) are registered names.
        source = """
        tracer.event('service.breaker_transition')
        tracer.event('service.deadline_exceeded')
        tracer.event('service.draining')
        tracer.event('service.idempotent_hit')
        tracer.event('service.job_recovered')
        tracer.event('service.journal_replayed')
        m.counter('repro_service_breaker_transitions_total')
        m.counter('repro_service_deadline_exceeded_total')
        m.counter('repro_service_idempotent_hits_total')
        m.counter('repro_service_jobs_recovered_total')
        m.counter('repro_service_journal_corrupt_records_total')
        m.counter('repro_service_journal_records_total')
        m.counter('repro_service_overload_rejections_total')
        m.gauge('repro_service_breaker_state')
        m.gauge('repro_service_jobs_inflight')
        """
        assert lint_source(tmp_path, source).clean

    def test_dynamic_names_skipped(self, tmp_path):
        assert lint_source(tmp_path, "tracer.span(name_variable)\n").clean

    def test_suppressed(self, tmp_path):
        result = lint_source(
            tmp_path, "tracer.span('bogus')  # repro: noqa[RPR006]\n"
        )
        assert result.clean and result.suppressed


class TestRPR008FloatEquality:
    def test_tpi_equality_flagged(self, tmp_path):
        result = lint_source(tmp_path, "same = tpi_a == tpi_b\n")
        assert finding_rules(result) == ["RPR008"]

    def test_cycle_time_inequality_flagged(self, tmp_path):
        result = lint_source(
            tmp_path, "changed = old_cycle_ns != new_cycle_ns\n"
        )
        assert finding_rules(result) == ["RPR008"]

    def test_unsuffixed_counts_clean(self, tmp_path):
        assert lint_source(tmp_path, "same = n_events == n_expected\n").clean

    def test_comparison_to_none_clean(self, tmp_path):
        assert lint_source(tmp_path, "missing = cycle_ns == None\n").clean

    def test_suppressed(self, tmp_path):
        result = lint_source(
            tmp_path,
            "same = old_ns == new_ns  # repro: noqa[RPR008] table values\n",
        )
        assert result.clean and result.suppressed


# ---------------------------------------------------------------------------
# self-host: the linter runs clean over its own repository
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def src_lint():
    """One lint of ``src/``, shared by the self-host tests."""
    return lint_paths([REPO_ROOT / "src"])


class TestSelfHost:
    def test_src_is_clean(self, src_lint):
        assert src_lint.clean, render_human(src_lint)
        assert len(src_lint.rule_ids) >= 8

    def test_project_pass_is_active_over_src(self, src_lint):
        # The cross-module rules must actually run on the self-host
        # check, not just exist in the registry.
        assert {"RPR009", "RPR010", "RPR011", "RPR012"} <= set(src_lint.rule_ids)

    def test_suppressions_are_audited(self, src_lint):
        # Every waiver in src/ is deliberate; this pins the count so a
        # new suppression shows up in review.
        waived = sorted({f.rule_id for f in src_lint.suppressed})
        assert waived == ["RPR004", "RPR008"]


# ---------------------------------------------------------------------------
# regression tests for the violations the first self-host run fixed
# ---------------------------------------------------------------------------


class TestSelfHostFixes:
    def test_unknown_stat_is_typed_and_a_keyerror(self):
        from repro.core.structure import StructureRunResult
        from repro.errors import ReproError, SimulationError, UnknownStatError

        run = StructureRunResult(
            structure="cache", configuration=1, n_events=0, stats={"tpi_ns": 1.0}
        )
        with pytest.raises(UnknownStatError):
            run.stat("nope")
        with pytest.raises(KeyError):  # historical contract
            run.stat("nope")
        with pytest.raises(SimulationError):  # typed contract (RPR005)
            run.stat("nope")
        try:
            run.stat("nope")
        except ReproError as exc:
            # KeyError repr-quotes str(); the override keeps it readable.
            assert "reports no stat" in str(exc)

    def test_manager_evaluate_tpi_ns_keyword(self):
        from repro.core.clock import DynamicClock
        from repro.core.manager import ConfigurationManager
        from tests.test_core_structure import FakeCas

        cas = FakeCas(configs=(1, 2, 4), initial=1)
        clock = DynamicClock(adaptive_structures=(cas,), switch_pause_cycles=10)
        manager = ConfigurationManager(clock=clock, structures=(cas,))
        # The RPR003 rename: the evaluator keyword carries its unit.
        decision = manager.select_for_process(
            "gcc", "fake", evaluate_tpi_ns=lambda config: float(config)
        )
        assert decision.configuration == 1

    def test_removed_sweep_shims_hard_error(self):
        import numpy as np

        from repro.cache.config import CacheGeometry
        from repro.cache.stackdist import DepthHistogram
        from repro.cache.tpi import CacheTpiModel

        histogram = DepthHistogram.from_depths(
            CacheGeometry(), np.array([0, 1, 2, 3], dtype=np.int64)
        )
        model = CacheTpiModel()
        with pytest.raises(AttributeError):
            model.sweep(histogram, 0.3, (1, 2))
        assert model.sweep_breakdowns(histogram, 0.3, (1, 2))
