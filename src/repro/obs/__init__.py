"""Decision-trace observability for the adaptive-control stack.

The paper's Configuration Manager claims to pick the TPI-minimising
configuration per process or per interval; this package makes that
decision process *visible*.  Two cooperating, zero-dependency layers:

* :mod:`repro.obs.trace` — a :class:`Tracer` emitting structured,
  schema-validated span/event records as JSONL.  Spans nest naturally:
  run → interval → candidate-evaluation → reconfiguration, mirroring
  the levels at which the adaptive stack makes decisions.  The trace
  is the one event stream: engine runs (``engine.map`` spans with one
  ``engine.cell`` event per cell), structure runs and service requests
  all land in it, and :mod:`repro.obs.summarize` renders it — including
  the ``--profile`` wall-time table.
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  of counters, gauges and histograms (reconfigurations, per-interval
  TPI, cache-hit ratios, exploration vs. exploitation steps...) with
  snapshot/diff support and Prometheus text export.

Instrumented code never checks whether observability is on: the
module-level :func:`~repro.obs.trace.span` / :func:`~repro.obs.trace.event`
helpers dispatch to a null tracer when no real tracer is active, so the
disabled path costs a few attribute lookups and nothing else — results
are byte-identical with instrumentation on or off.

See ``docs/observability.md`` for the trace schema, the metrics
catalog, and CLI usage (``--trace`` / ``--metrics`` / ``--profile`` and
``repro obs summarize``).
"""

from __future__ import annotations

from repro.obs.critical import critical_path
from repro.obs.metrics import MetricsRegistry, metrics
from repro.obs.schema import (
    SPAN_LEVELS,
    read_records,
    validate_record,
    validate_trace,
)
from repro.obs.stitch import TraceContext, validate_parentage
from repro.obs.summarize import summarize_path, summarize_trace
from repro.obs.trace import (
    Tracer,
    current_tracer,
    event,
    new_trace_id,
    scoped_trace,
    span,
    use_tracer,
)

__all__ = [
    "MetricsRegistry",
    "SPAN_LEVELS",
    "TraceContext",
    "Tracer",
    "critical_path",
    "current_tracer",
    "event",
    "metrics",
    "new_trace_id",
    "read_records",
    "scoped_trace",
    "span",
    "summarize_path",
    "summarize_trace",
    "use_tracer",
    "validate_parentage",
    "validate_record",
    "validate_trace",
]
