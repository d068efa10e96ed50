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

from repro._lazy import lazy_exports

# Eager on purpose: `metrics` is also the name of the submodule that
# defines it, and importing that submodule would rebind a lazy name.
from repro.obs.metrics import MetricsRegistry, metrics

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

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.obs.critical": ("critical_path",),
    "repro.obs.schema": (
        "SPAN_LEVELS", "read_records", "validate_record", "validate_trace",
    ),
    "repro.obs.stitch": ("TraceContext", "validate_parentage"),
    "repro.obs.summarize": ("summarize_path", "summarize_trace"),
    "repro.obs.trace": (
        "Tracer", "current_tracer", "event", "new_trace_id", "scoped_trace", "span",
        "use_tracer",
    ),
})
