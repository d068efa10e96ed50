"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: it wraps the public functions each
layer is made of, records one span per call in memory, and derives
self times afterwards (a span's duration minus its children's).  The
same table of wrappers is installed in ``run.py`` for the in-process
workloads and in the ``repro serve`` process for ``svc_mixed`` (see
``traced_serve.py``).
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


def _first_len(_self: Any, items: Any, *args: Any, **kwargs: Any) -> int:
    return len(items)


#: (layer, owner, attribute, work counter) for every wrapped callable.
#: The owner is a module or ``module:Class``.  Module-level functions
#: are patched where the caller looks them up, because ``from x import
#: f`` binds a second name.  The counter maps a call's arguments to the
#: work it simulates (references, instructions, branches).
WRAPPED: tuple[tuple[str, str, str, Callable[..., int] | None], ...] = (
    # The figure harnesses' own work: suite averages, argmins, tables.
    ("experiments.harness", "repro.experiments.cache_study", "figure8_9", None),
    ("experiments.harness", "repro.experiments.cache_study", "cache_tpi_table",
     None),
    ("experiments.harness", "repro.experiments.queue_study", "figure11", None),
    ("experiments.harness", "repro.experiments.queue_study", "queue_tpi_table",
     None),
    ("workloads.gen", "repro.engine.cells", "generate_address_trace", None),
    ("workloads.gen", "repro.engine.cells", "generate_instruction_trace", None),
    ("workloads.gen", "repro.engine.cells", "generate_page_trace", None),
    ("workloads.gen", "repro.branch.tpi", "generate_branch_trace", None),
    ("cache.kernel", "repro.cache.stackdist:StackDistanceEngine", "process",
     _first_len),
    ("cache.reduce", "repro.cache.stackdist:DepthHistogram", "from_depths", None),
    ("cache.reduce", "repro.cache.tpi:CacheTpiModel", "evaluate", None),
    ("ooo.kernel", "repro.ooo.machine:OutOfOrderMachine", "run", _first_len),
    ("tlb.kernel", "repro.tlb.simulator:PageStackEngine", "process", _first_len),
    ("branch.kernel", "repro.branch.predictors:BimodalPredictor", "run",
     _first_len),
    ("branch.kernel", "repro.branch.predictors:GsharePredictor", "run",
     _first_len),
    # Building the live structure the manager reconfigures is part of
    # selection: Figures 8/9 build one per pass.
    ("core.select", "repro.cache.adaptive:AdaptiveCacheHierarchy", "__init__",
     None),
    ("core.select", "repro.core.manager:ConfigurationManager", "__init__", None),
    ("core.select", "repro.core.manager:ConfigurationManager",
     "select_for_process", None),
    ("core.select", "repro.core.manager:ConfigurationManager", "apply", None),
    ("engine.init", "repro.engine.engine:ExperimentEngine", "__init__", None),
    ("engine.map", "repro.engine.engine:ExperimentEngine", "map", None),
    ("engine.evaluate", "repro.engine.cells", "evaluate_cell", None),
    ("engine.cache_key", "repro.engine.cache:ResultCache", "key", None),
    ("engine.cache_load", "repro.engine.cache:ResultCache", "load", None),
    ("engine.cache_store", "repro.engine.cache:ResultCache", "store", None),
    ("api.assemble", "repro.api.types:OptimizationRequest", "__init__", None),
    ("api.assemble", "repro.experiments.cache_study", "cache_tpi_cell", None),
    ("api.assemble", "repro.api.query", "request_cell", None),
    ("api.assemble", "repro.api.query", "result_from_payload", None),
    ("api.assemble", "repro.service.broker", "request_cell", None),
    ("api.assemble", "repro.service.jobs", "result_from_payload", None),
    ("api.assemble", "repro.experiments.cache_study",
     "tpi_breakdown_from_payload", None),
)

#: Every layer the table records, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(row[0] for row in WRAPPED))

#: Span name of one timed op (a figure pass); never a layer.
OP = "op"

_CACHE_LOAD = "engine.cache_load"


#: One recorded span: [name, parent index, start, end, work].
Span = list


class SpanLog:
    """In-memory span store with one span list and one stack per thread.

    Per-thread lists need no lock and keep parent indices local: in the
    service, HTTP handling runs on the event-loop thread while
    ``ExperimentEngine.map`` runs in an executor thread.  A span's
    ``work`` is the counter's value; for cache loads it is 1 on a miss
    and 0 on a hit (payloads are not kept, they would pin every result
    in memory).
    """

    def __init__(self, enabled: bool = True) -> None:
        #: Wrappers call straight through while this is false, so traced
        #: and untraced ops can alternate without re-patching.
        self.enabled = enabled
        self.threads: list[list[Span]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _register(self) -> list[Span]:
        spans: list[Span] = []
        self._local.spans = spans
        self._local.stack = []
        with self._lock:
            self.threads.append(spans)
        return spans

    def wrap(
        self, layer: str, fn: Callable, counter: Callable[..., int] | None = None
    ) -> Callable:
        """``fn`` recording one span per call while :attr:`enabled`.
        Whatever the wrapper spends outside its two timestamps lands in
        the parent's self time, so it does as little as it can there."""
        log = self
        local = self._local
        is_load = layer == _CACHE_LOAD
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not log.enabled:
                return fn(*args, **kwargs)
            spans = getattr(local, "spans", None)
            if spans is None:
                spans = log._register()
            stack = local.stack
            span = [layer, stack[-1] if stack else -1, 0.0, 0.0,
                    counter(*args, **kwargs) if counter else 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if is_load and result is None:
                span[4] = 1
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def dump(self, path: str) -> None:
        """Write each thread's spans as one JSON line (after the run)."""
        with open(path, "w", encoding="utf-8") as fh:
            for spans in self.threads:
                fh.write(json.dumps(spans) + "\n")

    @classmethod
    def load(cls, path: str) -> "SpanLog":
        log = cls()
        with open(path, encoding="utf-8") as fh:
            log.threads = [json.loads(line) for line in fh]
        return log


def _resolve(owner: str) -> Any:
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


def install(log: SpanLog) -> Callable[[], None]:
    """Wrap every callable in :data:`WRAPPED`; returns the undo function."""
    undo: list[tuple[Any, str, Any]] = []
    for layer, owner, attr, counter in WRAPPED:
        target = _resolve(owner)
        raw = target.__dict__[attr] if isinstance(target, type) else getattr(target, attr)
        if isinstance(raw, classmethod):
            patched: Any = classmethod(log.wrap(layer, raw.__func__, counter))
        else:
            patched = log.wrap(layer, raw, counter)
        undo.append((target, attr, raw))
        setattr(target, attr, patched)

    def uninstall() -> None:
        for target, attr, raw in reversed(undo):
            setattr(target, attr, raw)

    return uninstall


@dataclass
class LayerTotals:
    """Self time, calls and simulated work per span name."""

    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    work: dict[str, int] = field(default_factory=dict)

    @property
    def cache_misses(self) -> int:
        return self.work.get(_CACHE_LOAD, 0)

    @property
    def cache_hits(self) -> int:
        return self.calls.get(_CACHE_LOAD, 0) - self.cache_misses


def totals(log: SpanLog) -> LayerTotals:
    """Fold a span log into per-name self times (duration minus children)."""
    out = LayerTotals()
    for spans in log.threads:
        child_s = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, _, start, end, work), children in zip(spans, child_s):
            out.self_s[name] = out.self_s.get(name, 0.0) + end - start - children
            out.calls[name] = out.calls.get(name, 0) + 1
            out.work[name] = out.work.get(name, 0) + work
    return out


def op_wall_s(log: SpanLog) -> float:
    """Summed duration of the op spans ``run.py`` records."""
    return sum(
        end - start
        for spans in log.threads
        for name, _, start, end, _ in spans
        if name == OP
    )
