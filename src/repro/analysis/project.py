"""Whole-program summaries: the input to the lint project pass.

The per-file pass (PR 5) sees one :class:`~repro.analysis.core.FileContext`
at a time; cross-module rules need the *shape* of every module at once.
This module extracts that shape — imports, classes and their attribute
types, functions with their call sites, observability emissions, name
literals — into plain-data :class:`ModuleSummary` objects that hold
call *sites*, not ASTs.  Every run summarises the files it lints
afresh; nothing is kept between runs.

The call graph built on top lives in :mod:`repro.analysis.callgraph`.

Extraction is deliberately best-effort.  Python cannot be resolved
statically in general; the summariser records what a reader would:
``self.journal = JobJournal(...)`` types the attribute, annotations
type parameters and dataclass fields, ``x = ClassName(...)`` types a
local.  Anything dynamic is left unresolved and the downstream rules
stay silent about it — the linter under-reports rather than guesses.

Concurrency-relevant structure is captured at extraction time:

* calls handed to ``loop.run_in_executor(...)`` / ``asyncio.to_thread``
  are recorded with ``via_executor=True`` (the escape hatch RPR009
  honours),
* coroutines handed to ``create_task`` / ``ensure_future`` are marked
  ``detached`` (fire-and-forget — RPR012 cares),
* ``await`` inside a *synchronous* ``with`` block is recorded as a
  :class:`LockAwait` (RPR010 decides whether the context manager is a
  ``threading`` lock),
* nested ``def``\\ s are summarised as their own functions and their
  calls are **not** attributed to the enclosing function — a nested
  helper that only ever runs inside an executor must not make its
  parent look blocking.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.analysis.core import FileContext, call_name, dotted_name
from repro.analysis.suppress import suppressed_rules

#: Constructor calls treated as asyncio synchronisation primitives.
_ASYNCIO_PRIMITIVES = frozenset(
    {
        "asyncio.Lock",
        "asyncio.Event",
        "asyncio.Condition",
        "asyncio.Semaphore",
        "asyncio.BoundedSemaphore",
        "asyncio.Queue",
        "asyncio.LifoQueue",
        "asyncio.PriorityQueue",
    }
)

#: Observability emission call names -> kind (mirrors RPR006's set, plus
#: the tracer method ``record_span`` that RPR006 cannot see).
_EMISSION_KINDS: Mapping[str, str] = {
    "span": "span",
    "record_span": "span",
    "event": "event",
    "counter": "metric",
    "gauge": "metric",
    "histogram": "metric",
}

#: String literals that look like registered observability names.
_NAME_LITERAL_RE = re.compile(r"^[a-z][a-z0-9_.]{2,59}$")

#: Generic containers skipped when picking the payload type out of an
#: annotation like ``dict[str, Job]`` or ``JobJournal | None``.
_CONTAINER_NAMES = frozenset(
    {
        "dict",
        "list",
        "tuple",
        "set",
        "frozenset",
        "type",
        "Optional",
        "Union",
        "Mapping",
        "MutableMapping",
        "Sequence",
        "Iterable",
        "Iterator",
        "Callable",
        "Awaitable",
        "Coroutine",
        "Any",
        "ClassVar",
        "Final",
        "None",
    }
)


# ---------------------------------------------------------------------------
# summary dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One call expression inside one function body."""

    #: Raw dotted callee text: ``time.sleep``, ``self.journal.record_admit``.
    callee: str
    line: int
    col: int
    #: The call (or the executor submission carrying it) was awaited.
    awaited: bool = False
    #: Target of ``run_in_executor`` / ``to_thread`` — runs off-loop.
    via_executor: bool = False
    #: Argument of ``create_task`` / ``ensure_future`` — fire-and-forget.
    detached: bool = False


@dataclass(frozen=True)
class LockAwait:
    """An ``await`` while inside a synchronous ``with <lock>:`` block."""

    #: Raw dotted context-manager expression (``self._lock``).
    lock: str
    line: int
    col: int
    await_line: int


@dataclass(frozen=True)
class Emission:
    """One observability emission with a literal name."""

    kind: str  # "span" | "event" | "metric"
    #: The call name it came from (``span``, ``record_span``, ...).
    call: str
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class FunctionInfo:
    """One function/method/nested def, summarised."""

    #: Dotted path within the module: ``SweepBroker.submit``,
    #: ``run_worker._main`` for a nested def.
    name: str
    line: int
    col: int
    is_async: bool
    #: Owning class name when this is a method, else ``None``.
    cls: str | None
    #: Raw dotted decorator names (``staticmethod``, ``app.route``).
    decorators: tuple[str, ...]
    calls: tuple[CallSite, ...]
    #: Parameter/local variable -> raw dotted type text.
    local_types: Mapping[str, str]
    lock_awaits: tuple[LockAwait, ...]
    #: Names of directly nested defs (their infos are separate entries).
    nested: tuple[str, ...]


@dataclass(frozen=True)
class ClassInfo:
    """One class: bases, attribute types, method names."""

    name: str
    line: int
    bases: tuple[str, ...]
    #: Attribute -> raw dotted type text (from annotations and
    #: ``self.x = ClassName(...)`` assignments).
    attr_types: Mapping[str, str]
    methods: tuple[str, ...]
    #: asyncio primitives created at class scope (shared across
    #: instances and therefore across event loops).
    primitives: tuple[CallSite, ...]


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the project pass needs to know about one module."""

    module: str
    display_path: str
    #: Local binding -> fully dotted import target.  ``import a.b as c``
    #: gives ``c -> a.b``; ``from m import x as y`` gives ``y -> m.x``;
    #: ``import a.b`` binds ``a -> a``.
    imports: Mapping[str, str]
    functions: tuple[FunctionInfo, ...]
    classes: Mapping[str, ClassInfo]
    #: Module-level variable -> raw dotted type text.
    module_types: Mapping[str, str]
    emissions: tuple[Emission, ...]
    #: Name-like string literal -> first line it appears on.
    name_literals: Mapping[str, int]
    #: For the obs names registry module only: set name
    #: (``SPAN_NAMES``...) -> {registered name -> line}.
    registry_sets: Mapping[str, Mapping[str, int]]
    #: Line -> rule ids suppressed on that line (``# repro: noqa[...]``).
    noqa: Mapping[int, tuple[str, ...]]
    #: asyncio primitives created at module scope.
    primitives: tuple[CallSite, ...]

    def suppressed_on(self, line: int, rule_id: str) -> bool:
        """Whether ``rule_id`` is noqa'd on ``line`` of this module."""
        ids = self.noqa.get(line, ())
        return rule_id in ids

    def function(self, qualname: str) -> FunctionInfo | None:
        """Look up a function by its in-module dotted path."""
        for fn in self.functions:
            if fn.name == qualname:
                return fn
        return None


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _annotation_type(node: ast.expr | None) -> str | None:
    """The payload type a reader takes from an annotation.

    ``JobJournal | None`` -> ``JobJournal``; ``dict[str, Job]`` -> ``Job``;
    string annotations are parsed.  ``None`` when nothing concrete.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    for sub in ast.walk(node):
        dotted = dotted_name(sub)
        if dotted is None:
            continue
        head = dotted.split(".", 1)[0]
        if dotted in _CONTAINER_NAMES or head == "typing":
            continue
        return dotted
    return None


def _value_type(node: ast.expr) -> str | None:
    """Type text for ``x = ClassName(...)``-shaped assignments."""
    if isinstance(node, ast.Call):
        return dotted_name(node.func)
    return None


class _BodyScanner(ast.NodeVisitor):
    """Collect call sites and concurrency structure from one body.

    Does not descend into nested function/class definitions — those are
    summarised separately so a parent is never blamed for calls that
    only run inside a nested helper (which may run inside an executor).
    """

    def __init__(self) -> None:
        self.calls: list[CallSite] = []
        self.local_types: dict[str, str] = {}
        self.lock_awaits: list[LockAwait] = []
        self.nested: list[str] = []
        self.emissions: list[Emission] = []
        self._awaited: set[int] = set()
        self._detached: set[int] = set()
        self._with_stack: list[tuple[str, int, int]] = []
        self._locks_awaited: set[tuple[str, int, int, int]] = set()

    # -- scope boundaries ---------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.nested.append(node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.nested.append(node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return None

    # -- structure ----------------------------------------------------------

    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self._awaited.add(id(node.value))
        for lock, line, col in self._with_stack:
            self._locks_awaited.add((lock, line, col, node.lineno))
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            expr = item.context_expr
            self.visit(expr)  # locks can hide calls: with make_lock():
            dotted = dotted_name(expr)
            if dotted is not None:
                self._with_stack.append((dotted, expr.lineno, expr.col_offset))
                pushed += 1
        for stmt in node.body:
            self.visit(stmt)
        del self._with_stack[len(self._with_stack) - pushed :]

    def visit_Assign(self, node: ast.Assign) -> None:
        typ = _value_type(node.value)
        if typ is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.local_types.setdefault(target.id, typ)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            typ = _annotation_type(node.annotation) or (
                _value_type(node.value) if node.value is not None else None
            )
            if typ is not None:
                self.local_types.setdefault(node.target.id, typ)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        tail = call_name(node)
        awaited = id(node) in self._awaited
        if callee is not None:
            self.calls.append(
                CallSite(
                    callee=callee,
                    line=node.lineno,
                    col=node.col_offset,
                    awaited=awaited,
                    via_executor=False,
                    detached=id(node) in self._detached,
                )
            )
        if tail == "run_in_executor":
            self._executor_target(node, node.args[1] if len(node.args) > 1 else None)
        elif tail == "to_thread":
            self._executor_target(node, node.args[0] if node.args else None)
        elif tail in ("create_task", "ensure_future") and node.args:
            inner = node.args[0]
            if isinstance(inner, ast.Call):
                self._detached.add(id(inner))
        if tail in _EMISSION_KINDS:
            name = _literal_first_arg(node)
            if name is not None:
                self.emissions.append(
                    Emission(
                        kind=_EMISSION_KINDS[tail],
                        call=tail,
                        name=name,
                        line=node.lineno,
                        col=node.col_offset,
                    )
                )
        self.generic_visit(node)

    def _executor_target(self, call: ast.Call, target: ast.expr | None) -> None:
        if target is None:
            return
        if (
            isinstance(target, ast.Call)
            and dotted_name(target.func) in ("functools.partial", "partial")
            and target.args
        ):
            target = target.args[0]
        dotted = dotted_name(target)
        if dotted is None:
            return
        self.calls.append(
            CallSite(
                callee=dotted,
                line=call.lineno,
                col=call.col_offset,
                awaited=id(call) in self._awaited,
                via_executor=True,
                detached=False,
            )
        )

    def finish(self) -> None:
        """Fold the awaited-marks collected during the walk back in."""
        self.lock_awaits = [
            LockAwait(lock=lock, line=line, col=col, await_line=await_line)
            for lock, line, col, await_line in sorted(self._locks_awaited)
        ]


def _literal_first_arg(node: ast.Call) -> str | None:
    if not node.args:
        return None
    arg = node.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    return None


def _param_types(args: ast.arguments) -> dict[str, str]:
    out: dict[str, str] = {}
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        typ = _annotation_type(arg.annotation)
        if typ is not None:
            out[arg.arg] = typ
    return out


def _summarize_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    cls: str | None,
    functions: list[FunctionInfo],
    emissions: list[Emission],
    attr_sink: dict[str, str] | None = None,
) -> None:
    """Append the summary of ``node`` (and, recursively, its nested defs)."""
    scanner = _BodyScanner()
    for stmt in node.body:
        scanner.visit(stmt)
    scanner.finish()
    local_types = _param_types(node.args)
    local_types.update(scanner.local_types)
    if attr_sink is not None:
        _collect_self_attrs(node, attr_sink)
    functions.append(
        FunctionInfo(
            name=qualname,
            line=node.lineno,
            col=node.col_offset,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            cls=cls,
            decorators=tuple(
                d
                for d in (
                    dotted_name(dec.func) if isinstance(dec, ast.Call) else dotted_name(dec)
                    for dec in node.decorator_list
                )
                if d is not None
            ),
            calls=tuple(scanner.calls),
            local_types=local_types,
            lock_awaits=tuple(scanner.lock_awaits),
            nested=tuple(scanner.nested),
        )
    )
    emissions.extend(scanner.emissions)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _summarize_function(
                stmt, f"{qualname}.{stmt.name}", None, functions, emissions
            )


def _collect_self_attrs(
    node: ast.FunctionDef | ast.AsyncFunctionDef, sink: dict[str, str]
) -> None:
    """Record ``self.x = ClassName(...)`` / ``self.x: T`` attribute types."""
    for stmt in ast.walk(node):
        if isinstance(stmt, ast.Assign):
            typ = _value_type(stmt.value)
            if typ is None:
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    sink.setdefault(target.attr, typ)
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                typ = _annotation_type(stmt.annotation) or (
                    _value_type(stmt.value) if stmt.value is not None else None
                )
                if typ is not None:
                    sink.setdefault(target.attr, typ)


def _registry_literals(value: ast.expr) -> dict[str, int]:
    """String members of a ``frozenset({...})`` / set / tuple literal."""
    if (
        isinstance(value, ast.Call)
        and dotted_name(value.func) in ("frozenset", "set")
        and value.args
    ):
        value = value.args[0]
    out: dict[str, int] = {}
    if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                out.setdefault(elt.value, elt.lineno)
    return out


_REGISTRY_SET_NAMES = frozenset({"SPAN_NAMES", "EVENT_NAMES", "METRIC_NAMES"})


def _is_names_registry(module: str) -> bool:
    return module == "repro.obs.names" or module.endswith(".obs.names")


def summarize(ctx: FileContext) -> ModuleSummary:
    """Summarise one parsed file for the project pass."""
    imports: dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    imports.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # `from ..x import y` anchors at the enclosing package.
                parts = ctx.module.split(".")
                anchor = parts[: max(len(parts) - node.level, 0)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name

    functions: list[FunctionInfo] = []
    emissions: list[Emission] = []
    classes: dict[str, ClassInfo] = {}
    module_types: dict[str, str] = {}
    module_primitives: list[CallSite] = []
    registry_sets: dict[str, dict[str, int]] = {}
    collect_registry = _is_names_registry(ctx.module)

    def record_primitive(value: ast.expr, sink: list[CallSite]) -> None:
        if not isinstance(value, ast.Call):
            return
        callee = dotted_name(value.func)
        if callee is None:
            return
        # Bare names resolve through the import map: `from asyncio
        # import Lock` makes a module-level `Lock()` an asyncio.Lock.
        fq = callee if "." in callee else imports.get(callee, callee)
        if fq in _ASYNCIO_PRIMITIVES:
            sink.append(
                CallSite(callee=callee, line=value.lineno, col=value.col_offset)
            )

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _summarize_function(node, node.name, None, functions, emissions)
        elif isinstance(node, ast.ClassDef):
            attr_types: dict[str, str] = {}
            methods: list[str] = []
            class_primitives: list[CallSite] = []
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(stmt.name)
                    _summarize_function(
                        stmt,
                        f"{node.name}.{stmt.name}",
                        node.name,
                        functions,
                        emissions,
                        attr_sink=attr_types,
                    )
                elif isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    typ = _annotation_type(stmt.annotation) or (
                        _value_type(stmt.value) if stmt.value is not None else None
                    )
                    if typ is not None:
                        attr_types.setdefault(stmt.target.id, typ)
                    if stmt.value is not None:
                        record_primitive(stmt.value, class_primitives)
                elif isinstance(stmt, ast.Assign):
                    typ = _value_type(stmt.value)
                    if typ is not None:
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                attr_types.setdefault(target.id, typ)
                    record_primitive(stmt.value, class_primitives)
            classes[node.name] = ClassInfo(
                name=node.name,
                line=node.lineno,
                bases=tuple(
                    b for b in (dotted_name(base) for base in node.bases) if b
                ),
                attr_types=attr_types,
                methods=tuple(methods),
                primitives=tuple(class_primitives),
            )
        elif isinstance(node, ast.Assign):
            typ = _value_type(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if typ is not None:
                        module_types.setdefault(target.id, typ)
                    if collect_registry and target.id in _REGISTRY_SET_NAMES:
                        registry_sets[target.id] = _registry_literals(node.value)
            record_primitive(node.value, module_primitives)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            typ = _annotation_type(node.annotation) or (
                _value_type(node.value) if node.value is not None else None
            )
            if typ is not None:
                module_types.setdefault(node.target.id, typ)
            if (
                collect_registry
                and node.target.id in _REGISTRY_SET_NAMES
                and node.value is not None
            ):
                registry_sets[node.target.id] = _registry_literals(node.value)
            if node.value is not None:
                record_primitive(node.value, module_primitives)

    name_literals: dict[str, int] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _NAME_LITERAL_RE.match(node.value):
                name_literals.setdefault(node.value, node.lineno)

    noqa: dict[int, tuple[str, ...]] = {}
    for lineno, line in enumerate(ctx.lines, start=1):
        ids = suppressed_rules(line)
        if ids:
            noqa[lineno] = tuple(sorted(ids))

    return ModuleSummary(
        module=ctx.module,
        display_path=ctx.display_path,
        imports=imports,
        functions=tuple(functions),
        classes=classes,
        module_types=module_types,
        emissions=tuple(emissions),
        name_literals=name_literals,
        registry_sets=registry_sets,
        noqa=noqa,
        primitives=tuple(module_primitives),
    )


# ---------------------------------------------------------------------------
# project context
# ---------------------------------------------------------------------------


@dataclass
class ProjectContext:
    """Every module summary plus the lazily built call graph."""

    #: Module name -> summary, for every linted file.
    modules: dict[str, ModuleSummary] = field(default_factory=dict)
    _graph: Any = field(default=None, repr=False)

    @property
    def graph(self) -> Any:
        """The resolved :class:`~repro.analysis.callgraph.CallGraph`."""
        if self._graph is None:
            from repro.analysis.callgraph import CallGraph

            self._graph = CallGraph.build(self)
        return self._graph

    def iter_functions(self) -> Iterator[tuple[ModuleSummary, FunctionInfo]]:
        for summary in self.modules.values():
            for fn in summary.functions:
                yield summary, fn

    def names_registry(self) -> ModuleSummary | None:
        """The linted obs names registry module, if any."""
        for summary in self.modules.values():
            if summary.registry_sets:
                return summary
        return None
