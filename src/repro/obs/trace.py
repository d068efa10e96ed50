"""Structured decision tracing: nested spans and point events.

One :class:`Tracer` owns one trace: a ``trace_id``, a stack of open
spans, and an append-only JSONL sink.  Entering the tracer as a context
manager *activates* it — instrumented code anywhere in the process then
reaches it through the module-level :func:`span` and :func:`event`
helpers, so no plumbing of tracer handles through APIs is needed::

    with Tracer("t.jsonl"):
        with span("figure", level="run", figure="9"):
            ...instrumented code traces itself...

When no tracer is active the helpers dispatch to a shared null
implementation whose context managers do nothing, keeping the disabled
path to a couple of attribute lookups per instrumentation point.

Records are written when a span closes (children before parents; see
:mod:`repro.obs.schema` for the shape) and are also retained on
``Tracer.records`` for in-process inspection and tests.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, TextIO

from repro.errors import ObservabilityError
from repro.obs.schema import SPAN_LEVELS, validate_record


def new_trace_id() -> str:
    """A fresh 12-hex-digit trace id (the wire format of ``X-Repro-Trace``)."""
    return uuid.uuid4().hex[:12]


def _jsonable(value: Any) -> Any:
    """Coerce one attribute value to something JSON-serialisable."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    return repr(value)


class Span:
    """One open timed region; use only as a context manager."""

    __slots__ = ("_tracer", "name", "level", "id", "parent", "attrs", "_ts", "_t0")

    #: Whether events and attributes are recorded (``False`` on the
    #: null span), so a caller can skip building them.
    enabled = True

    def __init__(self, tracer: "Tracer", name: str, level: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.level = level
        self.id = tracer._next_id()
        self.parent: str | None = None
        self.attrs = attrs

    def set(self, **attrs: Any) -> "Span":
        """Attach or overwrite attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point event parented to this span."""
        self._tracer._emit_event(name, self.id, attrs)

    def __enter__(self) -> "Span":
        self.parent = self._tracer._push(self.id)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        dur = time.perf_counter() - self._t0
        self._tracer._pop(self.id)
        self._tracer._write(
            {
                "record": "span",
                "name": self.name,
                "level": self.level,
                "trace_id": self._tracer.trace_id,
                "id": self.id,
                "parent": self.parent,
                "ts": self._ts,
                "dur_s": dur,
                "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
            }
        )


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()
    enabled = False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _NullTracer:
    """Stand-in active tracer when tracing is disabled."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, level: str = "section", **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def new_span_id(self) -> str:
        return ""

    def record_span(
        self,
        name: str,
        level: str = "section",
        *,
        ts: float,
        dur_s: float,
        trace_id: str | None = None,
        span_id: str | None = None,
        parent: str | None = None,
        **attrs: Any,
    ) -> str:
        return ""

    def adopt(self, records: list[dict]) -> int:
        return 0


NULL_TRACER = _NullTracer()


class Tracer:
    """Writes one trace: validated span/event records, JSONL on disk.

    Parameters
    ----------
    path:
        JSONL sink; ``None`` keeps records in memory only (tests).
    trace_id:
        Adopt an existing trace id instead of minting one — used by
        worker-side tracers so their records join the parent trace.
    id_prefix:
        Prefix for generated span ids.  Worker-side tracers use a
        per-chunk prefix so ids stay unique when their records merge.
    root_parent:
        Parent span id assigned to stack-root spans.  A worker-side
        tracer sets this to the engine-side anchor span so worker spans
        attach to the parent process's tree instead of floating as roots.
    """

    enabled = True

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        trace_id: str | None = None,
        id_prefix: str = "s",
        root_parent: str | None = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.id_prefix = id_prefix
        self.root_parent = root_parent
        self.records: list[dict] = []
        self._stack: list[str] = []
        self._ids = itertools.count(1)
        self._fh: TextIO | None = None
        self._restore: list[Any] = []
        # The service records spans from its event loop while an engine
        # batch closes spans on an executor thread; one lock keeps the
        # JSONL sink line-atomic.
        self._write_lock = threading.Lock()

    # -- record plumbing --------------------------------------------------

    def _next_id(self) -> str:
        return f"{self.id_prefix}{next(self._ids):06x}"

    def _push(self, span_id: str) -> str | None:
        parent = self._stack[-1] if self._stack else self.root_parent
        self._stack.append(span_id)
        return parent

    def _pop(self, span_id: str) -> None:
        if not self._stack or self._stack[-1] != span_id:
            raise ObservabilityError(
                f"span {span_id!r} closed out of order; open: {self._stack}"
            )
        self._stack.pop()

    def _write(self, record: dict) -> None:
        validate_record(record)
        with self._write_lock:
            self.records.append(record)
            if self.path is not None:
                if self._fh is None:  # the sink is created on first use
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._fh = self.path.open("a", encoding="utf-8")
                self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def _emit_event(self, name: str, parent: str | None, attrs: dict) -> None:
        self._write(
            {
                "record": "event",
                "name": name,
                "trace_id": self.trace_id,
                "id": self._next_id(),
                "parent": parent,
                "ts": time.time(),
                "attrs": {k: _jsonable(v) for k, v in attrs.items()},
            }
        )

    # -- public API -------------------------------------------------------

    def span(self, name: str, level: str = "section", **attrs: Any) -> Span:
        """Open a span at ``level`` (see :data:`~repro.obs.schema.SPAN_LEVELS`)."""
        if level not in SPAN_LEVELS:
            raise ObservabilityError(f"span level {level!r} not in {SPAN_LEVELS}")
        return Span(self, name, level, dict(attrs))

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point event parented to the innermost open span."""
        self._emit_event(name, self._stack[-1] if self._stack else None, attrs)

    def new_span_id(self) -> str:
        """Reserve a span id for later :meth:`record_span` use.

        Lets concurrent code (the asyncio service) hand a parent id to
        downstream work before the parent span itself is recorded.
        """
        return self._next_id()

    def record_span(
        self,
        name: str,
        level: str = "section",
        *,
        ts: float,
        dur_s: float,
        trace_id: str | None = None,
        span_id: str | None = None,
        parent: str | None = None,
        **attrs: Any,
    ) -> str:
        """Record one span with explicit timing and parentage, no stack.

        The stack-based :meth:`span` context manager assumes one
        spans-nest-within-spans flow of control; event-loop code serving
        many interleaved requests instead measures ``ts``/``dur_s``
        itself and records the finished span here.  ``trace_id``
        defaults to the tracer's own; ``span_id`` defaults to a fresh
        id (pass one reserved via :meth:`new_span_id` to pre-parent
        children).  Returns the span id.
        """
        sid = span_id if span_id is not None else self._next_id()
        self._write(
            {
                "record": "span",
                "name": name,
                "level": level,
                "trace_id": trace_id if trace_id is not None else self.trace_id,
                "id": sid,
                "parent": parent,
                "ts": ts,
                "dur_s": dur_s,
                "attrs": {k: _jsonable(v) for k, v in attrs.items()},
            }
        )
        return sid

    def adopt(self, records: list[dict]) -> int:
        """Append already-formed records (a worker's spans) to this trace.

        Records keep their own ids, parents and trace ids — stitching
        decides parentage; the tracer only validates and persists.
        Returns the number of records adopted.
        """
        for record in records:
            self._write(record)
        return len(records)

    def close(self) -> None:
        """Flush and close the on-disk sink (open spans stay unwritten)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Tracer":
        global _CURRENT
        self._restore.append(_CURRENT)
        _CURRENT = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _CURRENT
        _CURRENT = self._restore.pop()
        self.close()


_CURRENT: Tracer | _NullTracer = NULL_TRACER


def current_tracer() -> Tracer | _NullTracer:
    """The active tracer (the shared null tracer when tracing is off)."""
    return _CURRENT


@contextmanager
def use_tracer(tracer: Tracer | _NullTracer) -> Iterator[Tracer | _NullTracer]:
    """Temporarily install ``tracer`` as the active tracer."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer
    try:
        yield tracer
    finally:
        _CURRENT = previous


@contextmanager
def scoped_trace(
    tracer: Tracer | _NullTracer,
    trace_id: str,
    parent_id: str | None,
) -> Iterator[Tracer | _NullTracer]:
    """Temporarily re-home ``tracer`` under another trace/parent.

    Spans opened inside the block close with ``trace_id`` as their
    trace and stack-roots parented to ``parent_id`` — how the broker
    makes an engine batch's spans land in the triggering request's
    trace.  Only safe while no other thread opens spans on ``tracer``
    (the broker runs one batch at a time).
    """
    if not isinstance(tracer, Tracer):
        yield tracer
        return
    saved = (tracer.trace_id, tracer.root_parent)
    tracer.trace_id = trace_id
    tracer.root_parent = parent_id
    try:
        yield tracer
    finally:
        tracer.trace_id, tracer.root_parent = saved


def span(name: str, level: str = "section", **attrs: Any) -> Span | _NullSpan:
    """Open a span on the active tracer (no-op when tracing is off)."""
    tracer = _CURRENT  # off, skip re-packing ``**attrs`` for the null tracer
    if tracer is NULL_TRACER:
        return _NULL_SPAN
    return tracer.span(name, level=level, **attrs)


def event(name: str, **attrs: Any) -> None:
    """Emit an event on the active tracer (no-op when tracing is off)."""
    tracer = _CURRENT
    if tracer is not NULL_TRACER:
        tracer.event(name, **attrs)
