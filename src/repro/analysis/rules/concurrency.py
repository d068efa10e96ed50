"""Event-loop concurrency rules (RPR009, RPR010) — project pass.

The sweep service (PR 6), tracing SLOs (PR 7) and the dispatch plane
(PR 9) all run on one asyncio event loop.  A single synchronous
``fsync`` or ``time.sleep`` on that loop stalls *every* in-flight
request — the latency SLOs the loadtest enforces are only as good as
the guarantee that nothing blocking is reachable from a coroutine.
These rules prove the guarantee statically over the call graph built
by :mod:`repro.analysis.callgraph`.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.callgraph import KIND_FUNCTION, CallGraph
from repro.analysis.core import Finding, ProjectRule
from repro.analysis.project import ProjectContext
from repro.analysis.registry import register

# ---------------------------------------------------------------------------
# RPR009: blocking calls reachable from async defs
# ---------------------------------------------------------------------------

#: Known-blocking callables.  Entries ending in ``.`` are prefixes
#: (``http.client.`` matches every HTTPConnection method); the rest
#: match exactly.  Values are the hint appended to the finding.
BLOCKING_REGISTRY: dict[str, str] = {
    "time.sleep": "use `await asyncio.sleep(...)`",
    "os.fsync": "offload with `await loop.run_in_executor(...)`",
    "os.fdatasync": "offload with `await loop.run_in_executor(...)`",
    "os.system": "use `asyncio.create_subprocess_shell`",
    "subprocess.": "use `asyncio.create_subprocess_exec`",
    "socket.socket": "use asyncio streams",
    "socket.create_connection": "use `asyncio.open_connection`",
    "socket.getaddrinfo": "use `loop.getaddrinfo`",
    "http.client.": "synchronous HTTP; offload with `run_in_executor`",
    "urllib.request.": "synchronous HTTP; offload with `run_in_executor`",
    "requests.": "synchronous HTTP; offload with `run_in_executor`",
    "repro.engine.engine.ExperimentEngine.map": (
        "runs a whole sweep synchronously; offload with `run_in_executor`"
    ),
    "repro.engine.engine.ExperimentEngine.close": (
        "joins the worker processes; offload with `run_in_executor`"
    ),
    "repro.resilience.executor.ResilientExecutor.run": (
        "runs a whole sweep synchronously; offload with `run_in_executor`"
    ),
    "repro.resilience.faults.evaluate_chunk_with_faults": (
        "evaluates cells synchronously; offload with `run_in_executor`"
    ),
}


def blocking_hint(target: str) -> str | None:
    """The registry hint for ``target``, or ``None`` if not blocking."""
    for entry, hint in BLOCKING_REGISTRY.items():
        if entry.endswith("."):
            if target.startswith(entry):
                return hint
        elif target == entry:
            return hint
    return None


def _pretty(graph: CallGraph, fq: str) -> str:
    """Short display name: in-module qualname for project functions."""
    entry = graph.functions.get(fq)
    if entry is not None:
        return entry[1].name
    return fq


def _chain_to_blocking(
    graph: CallGraph,
    fq: str,
    memo: dict[str, tuple[str, ...] | None],
    stack: set[str],
) -> tuple[str, ...] | None:
    """Shortest-found sync call chain from ``fq`` to a blocking call.

    The chain starts with ``fq`` itself and ends with the external
    blocking name.  Executor-offloaded and detached edges are not
    followed — they run off the loop.  ``None`` when nothing blocking
    is reachable (or nothing *provably* reachable: unresolved calls are
    skipped, so the rule under-reports rather than guesses).
    """
    if fq in memo:
        return memo[fq]
    if fq in stack:
        return None
    stack.add(fq)
    found: tuple[str, ...] | None = None
    for call in graph.resolved_calls(fq):
        if call.site.via_executor or call.site.detached or call.target is None:
            continue
        if blocking_hint(call.target) is not None:
            found = (fq, call.target)
            break
        if (
            call.kind == KIND_FUNCTION
            and call.target in graph.functions
            and not graph.is_async(call.target)
        ):
            sub = _chain_to_blocking(graph, call.target, memo, stack)
            if sub is not None:
                found = (fq, *sub)
                break
    stack.discard(fq)
    memo[fq] = found
    return found


@register
class AsyncBlockingRule(ProjectRule):
    """RPR009: no blocking call reachable from an async def."""

    rule_id = "RPR009"
    title = "blocking call reachable from async code"
    rationale = (
        "A synchronous sleep/fsync/subprocess/socket call on the event "
        "loop stalls every in-flight request and voids the latency "
        "SLOs. Offload with `await loop.run_in_executor(...)` or "
        "`asyncio.to_thread(...)` — the analyzer recognises both."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.graph
        memo: dict[str, tuple[str, ...] | None] = {}
        for fq, summary, fn in graph.async_roots():
            for call in graph.resolved_calls(fq):
                if (
                    call.site.via_executor
                    or call.site.detached
                    or call.target is None
                ):
                    continue
                hint = blocking_hint(call.target)
                if hint is not None:
                    chain: tuple[str, ...] = (call.target,)
                elif (
                    call.kind == KIND_FUNCTION
                    and call.target in graph.functions
                    and not graph.is_async(call.target)
                ):
                    sub = _chain_to_blocking(graph, call.target, memo, set())
                    if sub is None:
                        continue
                    chain = sub
                    hint = blocking_hint(chain[-1]) or ""
                else:
                    continue
                shown = " -> ".join(
                    [fn.name, *(_pretty(graph, step) for step in chain)]
                )
                message = (
                    f"blocking call `{chain[-1]}` reachable on the event "
                    f"loop: {shown}"
                )
                if hint:
                    message += f"; {hint}"
                yield self.project_finding(
                    summary.display_path, call.site.line, call.site.col, message
                )


# ---------------------------------------------------------------------------
# RPR010: lock discipline
# ---------------------------------------------------------------------------

_THREADING_LOCKS = frozenset({"threading.Lock", "threading.RLock"})


@register
class LockDisciplineRule(ProjectRule):
    """RPR010: sync locks and async code do not mix."""

    rule_id = "RPR010"
    title = "lock misuse across the sync/async boundary"
    rationale = (
        "Awaiting while holding a threading.Lock can deadlock the loop "
        "(another task blocks on the lock and the holder never "
        "resumes); bare .acquire() leaks on exceptions; asyncio "
        "primitives created at import time bind to whichever event "
        "loop touches them first and break every other loop."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.graph
        for summary, fn in project.iter_functions():
            if fn.is_async:
                for la in fn.lock_awaits:
                    lock_type = graph.expr_type(summary, fn, la.lock)
                    if lock_type in _THREADING_LOCKS:
                        yield self.project_finding(
                            summary.display_path,
                            la.line,
                            la.col,
                            f"`await` at line {la.await_line} while "
                            f"holding sync lock `{la.lock}` "
                            f"({lock_type}); a task blocking on this "
                            "lock would deadlock the event loop — use "
                            "asyncio.Lock or release before awaiting",
                        )
            for call in fn.calls:
                if not call.callee.endswith(".acquire"):
                    continue
                base = call.callee.rsplit(".", 1)[0]
                lock_type = graph.expr_type(summary, fn, base)
                if lock_type in _THREADING_LOCKS:
                    yield self.project_finding(
                        summary.display_path,
                        call.line,
                        call.col,
                        f"`{call.callee}()` without `with`: the lock "
                        "leaks if an exception lands before release() "
                        f"— use `with {base}:`",
                    )
        for summary in project.modules.values():
            for prim in summary.primitives:
                yield self.project_finding(
                    summary.display_path,
                    prim.line,
                    prim.col,
                    f"asyncio primitive `{prim.callee}()` created at "
                    "module scope binds to the first event loop that "
                    "uses it; create it inside start()/run() on the "
                    "owning loop",
                )
            for info in summary.classes.values():
                for prim in info.primitives:
                    yield self.project_finding(
                        summary.display_path,
                        prim.line,
                        prim.col,
                        f"asyncio primitive `{prim.callee}()` created "
                        f"at class scope is shared by every "
                        f"`{info.name}` instance across event loops; "
                        "create it per-instance on the owning loop",
                    )
