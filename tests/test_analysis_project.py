"""Tests for the lint project pass — cross-module analysis.

Covers the call graph (re-exports, method resolution through ``self``,
decorated async defs, cycles, nested-def scoping), the four
cross-module rules (RPR009 async-blocking, RPR010 lock discipline,
RPR011 registry drift, RPR012 durability ordering) with triggering and
suppressed fixtures each, runs that see every change to the tree and
the registry (nothing is kept between runs), the CLI's exit codes, and
the ``--graph`` dump.
"""

from __future__ import annotations

import io
import json
import textwrap

from repro.analysis import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    LintConfig,
    lint_paths,
    main as lint_main,
)
from repro.analysis.callgraph import KIND_FUNCTION
from repro.analysis.project import ProjectContext, summarize
from repro.analysis.rules import naming
from repro.analysis.runner import make_context


def write_tree(tmp_path, files):
    """Write dedented fixture files; returns their paths in dict order."""
    paths = []
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        paths.append(path)
    return paths


def lint_tree(tmp_path, files, *, select=None):
    """Lint a fixture tree with no pyproject config involved."""
    paths = write_tree(tmp_path, files)
    return lint_paths(paths, select=select, config=LintConfig())


def build_project(tmp_path, files):
    """Summarise a fixture tree straight into a ProjectContext."""
    project = ProjectContext()
    for path in write_tree(tmp_path, files):
        summary = summarize(make_context(path))
        project.modules[summary.module] = summary
    return project


def finding_rules(result):
    return [f.rule_id for f in result.findings]


# ---------------------------------------------------------------------------
# call graph shapes
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_re_export_chain_resolves_to_the_definition(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "repro/impl.py": """
                    def slow():
                        return 1
                    """,
                "repro/api.py": """
                    from repro.impl import slow as fast
                    """,
                "repro/use.py": """
                    from repro.api import fast

                    def go():
                        return fast()
                    """,
            },
        )
        graph = project.graph
        calls = graph.resolved_calls("repro.use.go")
        assert [(c.kind, c.target) for c in calls] == [
            (KIND_FUNCTION, "repro.impl.slow")
        ]

    def test_method_resolution_through_self_attribute(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "repro/journal.py": """
                    class Journal:
                        def record(self, line):
                            return line
                    """,
                "repro/broker.py": """
                    from repro.journal import Journal

                    class Broker:
                        def __init__(self):
                            self.journal = Journal()

                        def submit(self):
                            self.journal.record("x")
                    """,
            },
        )
        calls = project.graph.resolved_calls("repro.broker.Broker.submit")
        targets = [c.target for c in calls]
        assert "repro.journal.Journal.record" in targets

    def test_decorated_async_def_is_still_an_async_node(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "repro/m.py": """
                    def deco(fn):
                        return fn

                    @deco
                    async def handler():
                        return 1
                    """,
            },
        )
        summary, fn = project.graph.functions["repro.m.handler"]
        assert fn.is_async
        assert "deco" in fn.decorators
        roots = [fq for fq, _, _ in project.graph.async_roots()]
        assert roots == ["repro.m.handler"]

    def test_constructor_resolves_to_init(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "repro/m.py": """
                    class Thing:
                        def __init__(self):
                            self.x = 1

                    def make():
                        return Thing()
                    """,
            },
        )
        calls = project.graph.resolved_calls("repro.m.make")
        assert calls[0].target == "repro.m.Thing.__init__"

    def test_nested_def_shadows_module_function(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "repro/m.py": """
                    def helper():
                        return 0

                    def outer():
                        def helper():
                            return 1
                        return helper()
                    """,
            },
        )
        calls = project.graph.resolved_calls("repro.m.outer")
        assert calls[0].target == "repro.m.outer.helper"

    def test_call_cycle_terminates_and_still_finds_blocking(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import time

                    def a(n):
                        if n:
                            b(n)
                        time.sleep(1)

                    def b(n):
                        a(0)

                    async def go():
                        a(1)
                    """,
            },
            select=["RPR009"],
        )
        assert finding_rules(result) == ["RPR009"]
        assert "time.sleep" in result.findings[0].message

    def test_graph_json_shape(self, tmp_path):
        project = build_project(
            tmp_path,
            {
                "repro/m.py": """
                    def a():
                        return b()

                    def b():
                        return 1
                    """,
            },
        )
        dump = project.graph.to_json()
        assert dump["version"] == 1
        assert dump["functions"] == 2
        assert dump["modules"] == 1
        edges = {n["function"]: n["calls"] for n in dump["nodes"]}
        assert edges["repro.m.a"][0]["target"] == "repro.m.b"
        assert edges["repro.m.b"] == []


# ---------------------------------------------------------------------------
# RPR009: blocking calls reachable from async defs
# ---------------------------------------------------------------------------


class TestRPR009AsyncBlocking:
    def test_direct_blocking_call(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import time

                    async def handler():
                        time.sleep(1)
                    """,
            },
            select=["RPR009"],
        )
        assert finding_rules(result) == ["RPR009"]
        finding = result.findings[0]
        assert "time.sleep" in finding.message
        assert finding.line == 5  # fixtures open with a blank line

    def test_transitive_cross_module_chain(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/util.py": """
                    import os

                    def flush(fd):
                        os.fsync(fd)
                    """,
                "repro/srv.py": """
                    from repro.util import flush

                    async def handler(fd):
                        flush(fd)
                    """,
            },
            select=["RPR009"],
        )
        assert finding_rules(result) == ["RPR009"]
        finding = result.findings[0]
        assert finding.path.endswith("srv.py")
        assert "os.fsync" in finding.message
        assert "flush" in finding.message  # the chain is shown

    def test_run_in_executor_is_the_escape_hatch(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import asyncio
                    import functools
                    import time

                    async def handler():
                        loop = asyncio.get_running_loop()
                        await loop.run_in_executor(None, time.sleep, 1)
                        await loop.run_in_executor(
                            None, functools.partial(time.sleep, 2)
                        )
                        await asyncio.to_thread(time.sleep, 3)
                    """,
            },
            select=["RPR009"],
        )
        assert result.clean

    def test_nested_def_not_blamed_on_parent(self, tmp_path):
        # The nested helper may only ever run inside an executor; its
        # calls must not make the enclosing coroutine look blocking.
        result = lint_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import time

                    async def handler():
                        def work():
                            time.sleep(1)
                        return work
                    """,
            },
            select=["RPR009"],
        )
        assert result.clean

    def test_noqa_suppresses(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import time

                    async def handler():
                        time.sleep(1)  # repro: noqa[RPR009]
                    """,
            },
            select=["RPR009"],
        )
        assert result.clean
        assert [f.rule_id for f in result.suppressed] == ["RPR009"]

    def test_domain_blocking_registry_knows_the_engine(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/engine/engine.py": """
                    class ExperimentEngine:
                        def map(self, grid):
                            return grid
                    """,
                "repro/m.py": """
                    from repro.engine.engine import ExperimentEngine

                    async def handler(engine: ExperimentEngine):
                        engine.map([])
                    """,
            },
            select=["RPR009"],
        )
        assert finding_rules(result) == ["RPR009"]
        assert "ExperimentEngine.map" in result.findings[0].message


# ---------------------------------------------------------------------------
# RPR010: lock discipline
# ---------------------------------------------------------------------------


class TestRPR010LockDiscipline:
    def test_await_while_holding_threading_lock(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import asyncio
                    import threading

                    class Box:
                        def __init__(self):
                            self._lock = threading.Lock()

                        async def go(self):
                            with self._lock:
                                await asyncio.sleep(0)
                    """,
            },
            select=["RPR010"],
        )
        assert finding_rules(result) == ["RPR010"]
        assert "deadlock" in result.findings[0].message

    def test_bare_acquire_without_with(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import threading

                    lock = threading.Lock()

                    def grab():
                        lock.acquire()
                    """,
            },
            select=["RPR010"],
        )
        assert finding_rules(result) == ["RPR010"]
        assert "with lock:" in result.findings[0].message

    def test_module_scope_asyncio_primitive(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import asyncio

                    LOCK = asyncio.Lock()
                    """,
            },
            select=["RPR010"],
        )
        assert finding_rules(result) == ["RPR010"]
        assert "module scope" in result.findings[0].message

    def test_class_scope_asyncio_primitive(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import asyncio

                    class Shared:
                        lock = asyncio.Lock()
                    """,
            },
            select=["RPR010"],
        )
        assert finding_rules(result) == ["RPR010"]
        assert "class scope" in result.findings[0].message

    def test_per_instance_asyncio_lock_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import asyncio

                    async def go():
                        lock = asyncio.Lock()
                        async with lock:
                            await asyncio.sleep(0)
                    """,
            },
            select=["RPR010"],
        )
        assert result.clean

    def test_noqa_suppresses(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import asyncio

                    LOCK = asyncio.Lock()  # repro: noqa[RPR010]
                    """,
            },
            select=["RPR010"],
        )
        assert result.clean
        assert [f.rule_id for f in result.suppressed] == ["RPR010"]


# ---------------------------------------------------------------------------
# RPR011: registry drift
# ---------------------------------------------------------------------------


class TestRPR011RegistryDrift:
    def test_record_span_with_unregistered_name(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/obs/names.py": """
                    SPAN_NAMES = frozenset({"svc.request"})
                    """,
                "repro/svc.py": """
                    def go(tracer):
                        tracer.record_span("svc.request", 1.0)
                        tracer.record_span("svc.rogue", 2.0)
                    """,
            },
            select=["RPR011"],
        )
        assert finding_rules(result) == ["RPR011"]
        finding = result.findings[0]
        assert finding.path.endswith("svc.py")
        assert "svc.rogue" in finding.message

    def test_registered_name_nothing_emits(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/obs/names.py": """
                    SPAN_NAMES = frozenset({"svc.live", "svc.dead"})
                    """,
                "repro/svc.py": """
                    def go(tracer):
                        tracer.record_span("svc.live", 1.0)
                    """,
            },
            select=["RPR011"],
        )
        assert finding_rules(result) == ["RPR011"]
        finding = result.findings[0]
        assert finding.path.endswith("names.py")
        assert "svc.dead" in finding.message
        assert "never emitted" in finding.message

    def test_fallback_to_installed_registry(self, tmp_path):
        # No registry module in the linted tree: the rule checks
        # record_span names against the installed repro.obs.names.
        result = lint_tree(
            tmp_path,
            {
                "repro/svc.py": """
                    def go(tracer):
                        tracer.record_span("no.such.span.anywhere", 1.0)
                    """,
            },
            select=["RPR011"],
        )
        assert finding_rules(result) == ["RPR011"]
        assert "no.such.span.anywhere" in result.findings[0].message

    def test_noqa_suppresses(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/obs/names.py": """
                    SPAN_NAMES = frozenset({"svc.request"})
                    """,
                "repro/svc.py": """
                    def go(tracer):
                        tracer.record_span("svc.request", 1.0)
                        tracer.record_span("svc.rogue", 2.0)  # repro: noqa[RPR011]
                    """,
            },
            select=["RPR011"],
        )
        assert result.clean
        assert [f.rule_id for f in result.suppressed] == ["RPR011"]


# ---------------------------------------------------------------------------
# RPR012: durability ordering
# ---------------------------------------------------------------------------

_JOURNAL = """
    import os

    class Journal:
        def __init__(self, fh):
            self._fh = fh

        def record_admit(self, line):
            self._fh.write(line)
            os.fsync(self._fh.fileno())
    """


class TestRPR012Durability:
    def test_write_without_fsync_in_journal_class(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/journal.py": """
                    import os

                    class Journal:
                        def __init__(self, fh):
                            self._fh = fh

                        def record_admit(self, line):
                            self._fh.write(line)
                            os.fsync(self._fh.fileno())

                        def record_done(self, line):
                            self._fh.write(line)
                    """,
            },
            select=["RPR012"],
        )
        assert finding_rules(result) == ["RPR012"]
        finding = result.findings[0]
        assert "record_done" in finding.message
        assert "no fsync" in finding.message

    def test_conditional_fsync_after_write_is_enough(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/journal.py": """
                    import os

                    class Journal:
                        def __init__(self, fh, durable):
                            self._fh = fh
                            self._durable = durable

                        def record(self, line, flush):
                            self._fh.write(line)
                            if flush:
                                os.fsync(self._fh.fileno())
                    """,
            },
            select=["RPR012"],
        )
        assert result.clean

    def test_fire_and_forget_admit_from_async(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/journal.py": _JOURNAL,
                "repro/broker.py": """
                    import asyncio
                    import functools

                    from repro.journal import Journal

                    class Broker:
                        def __init__(self):
                            self.journal = Journal(None)

                        async def submit(self):
                            loop = asyncio.get_running_loop()
                            loop.run_in_executor(
                                None,
                                functools.partial(self.journal.record_admit, "x"),
                            )
                    """,
            },
            select=["RPR012"],
        )
        assert finding_rules(result) == ["RPR012"]
        finding = result.findings[0]
        assert finding.path.endswith("broker.py")
        assert "fire-and-forget" in finding.message

    def test_detached_admit_task_from_async(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/journal.py": _JOURNAL,
                "repro/broker.py": """
                    import asyncio

                    from repro.journal import Journal

                    class Broker:
                        def __init__(self):
                            self.journal = Journal(None)

                        async def submit(self):
                            asyncio.create_task(self.journal.record_admit("x"))
                    """,
            },
            select=["RPR012"],
        )
        assert finding_rules(result) == ["RPR012"]

    def test_awaited_executor_admit_is_clean(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/journal.py": _JOURNAL,
                "repro/broker.py": """
                    import asyncio
                    import functools

                    from repro.journal import Journal

                    class Broker:
                        def __init__(self):
                            self.journal = Journal(None)

                        async def submit(self):
                            loop = asyncio.get_running_loop()
                            await loop.run_in_executor(
                                None,
                                functools.partial(self.journal.record_admit, "x"),
                            )
                    """,
            },
            select=["RPR012"],
        )
        assert result.clean

    def test_noqa_suppresses(self, tmp_path):
        result = lint_tree(
            tmp_path,
            {
                "repro/journal.py": """
                    import os

                    class Journal:
                        def __init__(self, fh):
                            self._fh = fh

                        def flush(self):
                            os.fsync(self._fh.fileno())

                        def record_done(self, line):
                            self._fh.write(line)  # repro: noqa[RPR012]
                    """,
            },
            select=["RPR012"],
        )
        assert result.clean
        assert [f.rule_id for f in result.suppressed] == ["RPR012"]


# ---------------------------------------------------------------------------
# every run reads the tree
# ---------------------------------------------------------------------------


class TestFreshRuns:
    def test_registry_change_between_runs_is_reported(self, tmp_path, monkeypatch):
        # A file's RPR006 findings depend on repro.obs.names as well as
        # on the file, so a run after the registry changes must report
        # what the change exposes.  The pyproject.toml makes tmp_path the
        # config root: the one directory a run could keep state in, and
        # it must keep none.
        (tmp_path / "pyproject.toml").write_text(
            "[project]\nname = 'probe'\n", encoding="utf-8"
        )
        paths = write_tree(
            tmp_path,
            {
                "probe/m.py": """
                    def step(tracer):
                        with tracer.span("probe.step"):
                            return 1
                    """,
            },
        )
        registered = naming.SPAN_NAMES
        monkeypatch.setattr(naming, "SPAN_NAMES", registered | {"probe.step"})
        first = lint_paths(paths, select=["RPR006"])
        monkeypatch.setattr(naming, "SPAN_NAMES", registered)
        second = lint_paths(paths, select=["RPR006"])
        assert first.clean
        assert finding_rules(second) == ["RPR006"]
        assert not (tmp_path / ".repro-lint-cache").exists()


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

_BLOCKING_TREE = {
    "repro/util.py": """
        import os

        def flush(fd):
            os.fsync(fd)
        """,
    "repro/srv.py": """
        from repro.util import flush

        async def handler(fd):
            flush(fd)
        """,
}


class TestProjectPassPlumbing:
    def test_cli_exit_codes_are_stable(self, tmp_path):
        dirty = write_tree(tmp_path, {"dirty/m.py": "import random\n"})[0]
        clean = write_tree(tmp_path, {"clean/m.py": "x_ns = 1.0\n"})[0]
        buf = io.StringIO()
        assert (
            lint_main([str(dirty)], output_format="json", stream=buf)
            == EXIT_FINDINGS
        )
        assert json.loads(buf.getvalue())["findings"]
        assert (
            lint_main([str(clean)], output_format="json", stream=io.StringIO())
            == EXIT_CLEAN
        )
        assert (
            lint_main(
                ["/no/such/path-anywhere"],
                output_format="json",
                stream=io.StringIO(),
            )
            == EXIT_ERROR
        )

    def test_no_project_skips_cross_module_rules(self, tmp_path):
        files = {
            "repro/m.py": """
                import time

                async def handler():
                    time.sleep(1)
                """,
        }
        # Selecting the seven file rules is how to run the file pass alone.
        file_rules = [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR008",
        ]
        with_pass = lint_tree(tmp_path / "a", files)
        without = lint_tree(tmp_path / "b", files, select=file_rules)
        assert finding_rules(with_pass) == ["RPR009"]
        assert without.clean
        assert without.rule_ids == tuple(file_rules)

    def test_graph_dump_via_main(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "repro/m.py": """
                    def a():
                        return b()

                    def b():
                        return 1
                    """,
            },
        )
        buf = io.StringIO()
        code = lint_main([str(tmp_path / "repro")], graph=True, stream=buf)
        assert code == EXIT_CLEAN
        doc = json.loads(buf.getvalue())
        assert doc["version"] == 1
        targets = {
            edge["target"]
            for node in doc["nodes"]
            for edge in node["calls"]
        }
        assert any(t and t.endswith(".b") for t in targets)

    def test_project_findings_respect_per_path_ignores(self, tmp_path):
        paths = write_tree(
            tmp_path,
            {
                "repro/m.py": """
                    import time

                    async def handler():
                        time.sleep(1)
                    """,
            },
        )
        config = LintConfig(
            per_path_ignores=(("*repro/m.py", frozenset({"RPR009"})),)
        )
        result = lint_paths(paths, config=config)
        assert result.clean

    def test_project_graph_is_deterministic(self, tmp_path):
        files = dict(_BLOCKING_TREE)
        one = build_project(tmp_path / "a", files).graph.to_json()
        two = build_project(tmp_path / "b", files).graph.to_json()

        def strip_paths(doc):
            for node in doc["nodes"]:
                node.pop("path", None)
            return doc

        assert strip_paths(one) == strip_paths(two)
